// Shell (wrapper) unit tests: strict WP1 synchronization, τ emission,
// initial tokens, back-pressure, oracle-based WP2 firing, stale-token
// discarding, peeking, unsound-oracle detection and output fan-out, plus
// the Network counters the shell commits feed and the checks on every
// Network call that builds a shell.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "testkit/systems.hpp"
#include "util/assert.hpp"
#include "core/procs.hpp"
#include "core/shell.hpp"
#include "core/system.hpp"

namespace wp {
namespace {

using testkit::drive;

ShellOptions wp1() {
  ShellOptions o;
  o.use_oracle = false;
  return o;
}

ShellOptions wp2() {
  ShellOptions o;
  o.use_oracle = true;
  return o;
}

// A two-input process that records what it saw at each firing.
class RecordingProcess final : public Process {
 public:
  RecordingProcess() : Process("rec") {
    add_input("a");
    add_input("b");
    add_output("out", 0);
  }
  void fire(const Word* in, Word* out) override {
    seen.emplace_back(in[0], in[1]);
    out[0] = in[0] + in[1];
  }
  std::vector<std::pair<Word, Word>> seen;
};

// An intentionally broken process: its oracle never asks for input b, but
// fire() reads it anyway.
class UnsoundOracleProcess final : public Process {
 public:
  UnsoundOracleProcess() : Process("unsound") {
    declare_oracle();
    add_input("a");
    add_input("b");
    add_output("out", 0);
  }
  InputMask required(const PeekView&) const override { return 0b01; }
  void fire(const Word* in, Word* out) override { out[0] = in[0] + in[1]; }
};

// A process with `inputs` inputs that fires on all of them.
class WideProcess final : public Process {
 public:
  explicit WideProcess(std::size_t inputs) : Process("wide") {
    for (std::size_t i = 0; i < inputs; ++i)
      add_input("in" + std::to_string(i));
    add_output("out");
  }
  void fire(const Word* in, Word* out) override {
    out[0] = 0;
    for (std::size_t i = 0; i < inputs().size(); ++i) out[0] += in[i];
  }
};

TEST(Shell, StrictWaitsForAllInputs) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  auto proc = std::make_unique<RecordingProcess>();
  auto* rec = proc.get();
  const ShellId shell = net.add_shell("s", std::move(proc), wp1());
  net.connect_input(shell, 0, wa, 10);  // initial tokens tag 0: (10, 20)
  net.connect_input(shell, 1, wb, 20);
  net.add_output_wire(shell, 0, wo);

  net.step();  // fires tag 0 from the initial tokens
  EXPECT_EQ(net.stats(shell).firings, 1u);
  ASSERT_EQ(rec->seen.size(), 1u);
  EXPECT_EQ(rec->seen[0], std::make_pair(Word{10}, Word{20}));

  // Only input a gets a tag-1 token: the strict shell must stall.
  drive(net.wire(wa), Token::make(11));
  net.step();
  drive(net.wire(wa), Token::tau());
  net.step();
  EXPECT_EQ(net.stats(shell).firings, 1u);
  EXPECT_GT(net.stats(shell).stalls_input, 0u);

  // b arrives: fire.
  drive(net.wire(wb), Token::make(21));
  net.step();
  drive(net.wire(wb), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 2u);
  EXPECT_EQ(rec->seen[1], std::make_pair(Word{11}, Word{21}));
}

TEST(Shell, EmitsTauWhileStalled) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<RecordingProcess>(), wp1());
  net.connect_input(shell, 0, wa, 1);
  net.connect_input(shell, 1, wb, 2);
  net.add_output_wire(shell, 0, wo);

  net.step();  // tag-0 firing; result (3) is driven next cycle
  net.step();
  EXPECT_TRUE(net.wire(wo).valid);
  EXPECT_EQ(net.wire(wo).value, 3u);
  net.step();  // no new inputs: stalled, output must be τ
  EXPECT_FALSE(net.wire(wo).valid);
}

TEST(Shell, OutputHeldUnderStopThenDelivered) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wo = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<IdentityProcess>("id"), wp1());
  net.connect_input(shell, 0, wa, 5);
  net.add_output_wire(shell, 0, wo);

  net.wire(wo).stop = true;  // consumer stalls (re-driven manually each eval)
  net.step();            // fires tag 0 (output pending)
  EXPECT_EQ(net.stats(shell).firings, 1u);
  // Pending output + stop: cannot fire tag 1 even though input arrives.
  drive(net.wire(wa), Token::make(6));
  net.wire(wo).stop = true;
  net.step();
  drive(net.wire(wa), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 1u);
  EXPECT_GT(net.stats(shell).stalls_output, 0u);
  EXPECT_EQ(net.wire(wo).value, 5u);  // held token re-driven
  // Release the stop: token 5 delivered, then tag 1 fires with value 6.
  net.wire(wo).stop = false;
  net.step();
  EXPECT_EQ(net.stats(shell).firings, 2u);
}

TEST(Shell, BackPressureAssertsStopWhenFifoFull) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  ShellOptions opts = wp1();
  opts.fifo_capacity = 2;
  const ShellId shell = net.add_shell(
      "s", std::make_unique<RecordingProcess>(), opts);
  net.connect_input(shell, 0, wa, 0);
  net.connect_input(shell, 1, wb, 0);
  net.add_output_wire(shell, 0, wo);

  // Flood input a while b starves: a's FIFO fills to capacity, stop rises.
  for (int i = 1; i <= 6; ++i) {
    drive(net.wire(wa), Token::make(static_cast<Word>(i)));
    net.step();
    EXPECT_LE(net.fifo_size(shell, 0), 2u);
  }
  EXPECT_TRUE(net.wire(wa).stop);
}

TEST(Shell, OracleFiresWithoutUnneededInput) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  // Input b needed only at every 3rd firing (phase 0).
  const ShellId shell = net.add_shell(
      "s", std::make_unique<DutyCycleProcess>("duty", 3), wp2());
  net.connect_input(shell, 0, wa, 100);
  net.connect_input(shell, 1, wb, 200);
  net.add_output_wire(shell, 0, wo);

  net.step();  // tag 0 fires (both initial tokens present)
  EXPECT_EQ(net.stats(shell).firings, 1u);
  // Feed only a: tags 1 and 2 need just a, so the shell runs ahead.
  drive(net.wire(wa), Token::make(101));
  net.step();
  drive(net.wire(wa), Token::make(102));
  net.step();
  drive(net.wire(wa), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 3u);
  // Tag 3 is a phase-0 firing again: b required, shell must stall.
  drive(net.wire(wa), Token::make(103));
  net.step();
  drive(net.wire(wa), Token::tau());
  net.step();
  EXPECT_EQ(net.stats(shell).firings, 3u);
  // The stale b tokens (tags 1, 2) arrive late and must be discarded; the
  // tag-3 token unblocks the firing.
  for (Word v : {201, 202, 203}) {
    drive(net.wire(wb), Token::make(v));
    net.step();
  }
  drive(net.wire(wb), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 4u);
  EXPECT_EQ(net.stats(shell).discarded_tokens, 2u);
}

TEST(Shell, StrictModeNeverDiscards) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<DutyCycleProcess>("duty", 3), wp1());
  net.connect_input(shell, 0, wa, 0);
  net.connect_input(shell, 1, wb, 0);
  net.add_output_wire(shell, 0, wo);
  for (int i = 1; i <= 10; ++i) {
    drive(net.wire(wa), Token::make(static_cast<Word>(i)));
    drive(net.wire(wb), Token::make(static_cast<Word>(100 + i)));
    net.step();
  }
  EXPECT_EQ(net.stats(shell).discarded_tokens, 0u);
  EXPECT_EQ(net.stats(shell).firings, 10u);  // one firing per cycle, tags 0-9
}

TEST(Shell, UnsoundOracleGetsPoisonedInput) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<UnsoundOracleProcess>(), wp2());
  net.connect_input(shell, 0, wa, 1);
  net.connect_input(shell, 1, wb, 2);
  net.add_output_wire(shell, 0, wo);
  net.step();  // fires: b available but NOT required -> poisoned
  net.step();
  EXPECT_TRUE(net.wire(wo).valid);
  EXPECT_EQ(net.wire(wo).value, 1u + kPoisonWord);  // the bug is loud
}

TEST(Shell, FanOutWaitsForAllBranches) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId w1 = net.make_wire("o1");
  const WireId w2 = net.make_wire("o2");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<IdentityProcess>("id"), wp1());
  net.connect_input(shell, 0, wa, 7);
  net.add_output_wire(shell, 0, w1);
  net.add_output_wire(shell, 0, w2);

  net.wire(w2).stop = true;
  net.step();  // fires tag 0
  drive(net.wire(wa), Token::make(8));
  net.wire(w2).stop = true;
  net.step();  // w1 delivered, w2 held: no second firing
  drive(net.wire(wa), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 1u);
  net.wire(w2).stop = true;
  net.step();  // branch w1 now drives τ, w2 still re-drives the held token
  EXPECT_FALSE(net.wire(w1).valid);  // already delivered branch sends τ
  EXPECT_EQ(net.wire(w2).value, 7u);
  net.wire(w2).stop = false;
  net.step();  // w2 delivered; tag 1 fires
  EXPECT_EQ(net.stats(shell).firings, 2u);
}

TEST(Shell, FireObserverSeesTagsInOrder) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wo = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<IdentityProcess>("id"), wp1());
  net.connect_input(shell, 0, wa, 0);
  net.add_output_wire(shell, 0, wo);
  std::vector<Tag> tags;
  net.set_fire_observer(
      shell, [&tags](Cycle, Tag tag, const Word*) { tags.push_back(tag); });
  for (int i = 1; i <= 5; ++i) {
    drive(net.wire(wa), Token::make(static_cast<Word>(i)));
    net.step();
  }
  EXPECT_EQ(tags, (std::vector<Tag>{0, 1, 2, 3, 4}));
  EXPECT_EQ(net.firing_counter(shell), 5u);  // the next tag to fire
}

TEST(Network, CountsFiringsAndHalts) {
  // The shell commits feed the run loop's two counters: the number of
  // halted shells ends a run, and a firing total that stands still trips
  // the watchdog.
  Network net;
  const WireId w = net.make_wire("w");
  const ShellId src = net.add_shell(
      "src", std::make_unique<CounterSource>("src", 0, 1, 3), wp1());
  const ShellId sink = net.add_shell(
      "sink", std::make_unique<SinkProcess>("sink"), wp1());
  net.add_output_wire(src, 0, w);
  net.connect_input(sink, 0, w, 0);

  EXPECT_EQ(net.run(100, 1), 3u);  // the source halts after 3 firings
  EXPECT_TRUE(net.halted(src));
  EXPECT_FALSE(net.halted(sink));
  EXPECT_EQ(net.run(100, 1), 0u);  // already satisfied: no step
  // The sink never halts, and once it has taken the source's tokens
  // nothing fires again.
  EXPECT_THROW(net.run(10 * Network::kDeadlockWindow, 2), ContractViolation);
}

TEST(Shell, RejectsBadConfiguration) {
  auto make = [] { return std::make_unique<IdentityProcess>("id"); };
  Network net;
  EXPECT_THROW(net.add_shell("s", nullptr, wp1()), ContractViolation);
  ShellOptions zero = wp1();
  zero.fifo_capacity = 0;
  EXPECT_THROW(net.add_shell("s", make(), zero), ContractViolation);
  ShellOptions huge = wp1();
  huge.fifo_capacity = kMaxFifoCapacity + 1;
  EXPECT_THROW(net.add_shell("s", make(), huge), ContractViolation);
  huge.fifo_capacity = kMaxFifoCapacity;
  // A refused shell leaves no entry: the first accepted one gets id 0.
  EXPECT_EQ(net.add_shell("big", make(), huge), 0u);

  const WireId w = net.make_wire("w");
  const ShellId s = net.add_shell("s", make(), wp1());
  EXPECT_THROW(net.connect_input(s, 5, w, 0), ContractViolation);
  EXPECT_THROW(net.add_output_wire(s, 5, w), ContractViolation);
  EXPECT_THROW(net.connect_input(s + 1, 0, w, 0), ContractViolation);
  EXPECT_THROW(net.add_output_wire(s + 1, 0, w), ContractViolation);
  EXPECT_THROW(net.stats(s + 1), ContractViolation);
  EXPECT_EQ(net.shell_name(s), "s");
  net.connect_input(s, 0, w, 0);
  EXPECT_THROW(net.connect_input(s, 0, w, 0), ContractViolation);  // twice
}

TEST(Network, RejectsOutOfRangeWireIds) {
  // The next step would index the wire array with any id a connection
  // holds, so both connection calls range-check it, as add_relay_station
  // does. A refused connection leaves the port free.
  Network net;
  const WireId in = net.make_wire("in");
  const WireId out = net.make_wire("out");
  const ShellId s =
      net.add_shell("s", std::make_unique<IdentityProcess>("id"), wp1());
  EXPECT_THROW(net.connect_input(s, 0, 999, 0), ContractViolation);
  EXPECT_THROW(net.connect_input(s, 0, out + 1, 0), ContractViolation);
  EXPECT_THROW(net.add_output_wire(s, 0, 12345), ContractViolation);
  EXPECT_THROW(net.add_output_wire(s, 0, out + 1), ContractViolation);
  net.connect_input(s, 0, in, 4);
  net.add_output_wire(s, 0, out);
  net.step();  // fires tag 0 from the initial token
  net.step();
  EXPECT_EQ(net.stats(s).firings, 1u);
  EXPECT_TRUE(net.wire(out).valid);
  EXPECT_EQ(net.wire(out).value, 4u);
}

TEST(Shell, RejectsMoreInputsThanTheMaskHolds) {
  // Availability and requirements are 32-bit InputMasks: a 33rd input has
  // no bit, so such a process is refused before a shell can wrap it.
  Network net;
  EXPECT_THROW(net.add_shell("s", std::make_unique<WideProcess>(33), wp1()),
               ContractViolation);

  // 32 inputs use every bit of the mask, the top one included. The refused
  // shell left no entry, so this one gets id 0.
  const WireId out = net.make_wire("o");
  const ShellId shell = net.add_shell(
      "s", std::make_unique<WideProcess>(32), wp2());
  EXPECT_EQ(shell, 0u);
  std::vector<WireId> in;
  for (std::size_t i = 0; i < 32; ++i) {
    in.push_back(net.make_wire("in" + std::to_string(i)));
    net.connect_input(shell, i, in.back(), i + 1);
  }
  net.add_output_wire(shell, 0, out);
  net.step();  // tag 0 fires from the 32 initial tokens
  EXPECT_EQ(net.stats(shell).firings, 1u);
  net.step();
  EXPECT_TRUE(net.wire(out).valid);
  EXPECT_EQ(net.wire(out).value, Word{32 * 33 / 2});
  net.step();  // tag 1 waits for the top input, like every other one
  EXPECT_EQ(net.stats(shell).firings, 1u);
  for (std::size_t i = 0; i < 31; ++i) drive(net.wire(in[i]), Token::make(1));
  net.step();
  for (std::size_t i = 0; i < 31; ++i) drive(net.wire(in[i]), Token::tau());
  EXPECT_EQ(net.stats(shell).firings, 1u);
  drive(net.wire(in[31]), Token::make(1));
  net.step();
  EXPECT_EQ(net.stats(shell).firings, 2u);
}

}  // namespace
}  // namespace wp
