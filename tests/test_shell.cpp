// Shell (wrapper) unit tests: strict WP1 synchronization, τ emission,
// initial tokens, back-pressure, oracle-based WP2 firing, stale-token
// discarding, peeking, unsound-oracle detection and output fan-out, plus
// the Network counters the shell commits feed.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "util/assert.hpp"
#include "core/procs.hpp"
#include "core/shell.hpp"
#include "core/system.hpp"

namespace wp {
namespace {

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
  void reset() override { seen.clear(); }
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
  void reset() override {}
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
  void reset() override {}
};

TEST(Shell, StrictWaitsForAllInputs) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  auto proc = std::make_unique<RecordingProcess>();
  auto* rec = proc.get();
  auto* shell = net.add_shell(
      std::make_unique<Shell>("s", std::move(proc), wp1()));
  shell->connect_input(0, wa, 10);  // initial tokens tag 0: (10, 20)
  shell->connect_input(1, wb, 20);
  shell->add_output_wire(0, wo);

  net.step();  // fires tag 0 from the initial tokens
  EXPECT_EQ(shell->stats().firings, 1u);
  ASSERT_EQ(rec->seen.size(), 1u);
  EXPECT_EQ(rec->seen[0], std::make_pair(Word{10}, Word{20}));

  // Only input a gets a tag-1 token: the strict shell must stall.
  net.wire(wa).drive(Token::make(11));
  net.step();
  net.wire(wa).drive(Token::tau());
  net.step();
  EXPECT_EQ(shell->stats().firings, 1u);
  EXPECT_GT(shell->stats().stalls_input, 0u);

  // b arrives: fire.
  net.wire(wb).drive(Token::make(21));
  net.step();
  net.wire(wb).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 2u);
  EXPECT_EQ(rec->seen[1], std::make_pair(Word{11}, Word{21}));
}

TEST(Shell, EmitsTauWhileStalled) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<RecordingProcess>(), wp1()));
  shell->connect_input(0, wa, 1);
  shell->connect_input(1, wb, 2);
  shell->add_output_wire(0, wo);

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
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<IdentityProcess>("id"), wp1()));
  shell->connect_input(0, wa, 5);
  shell->add_output_wire(0, wo);

  net.wire(wo).stop = true;  // consumer stalls (re-driven manually each eval)
  net.step();            // fires tag 0 (output pending)
  EXPECT_EQ(shell->stats().firings, 1u);
  // Pending output + stop: cannot fire tag 1 even though input arrives.
  net.wire(wa).drive(Token::make(6));
  net.wire(wo).stop = true;
  net.step();
  net.wire(wa).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 1u);
  EXPECT_GT(shell->stats().stalls_output, 0u);
  EXPECT_EQ(net.wire(wo).value, 5u);  // held token re-driven
  // Release the stop: token 5 delivered, then tag 1 fires with value 6.
  net.wire(wo).stop = false;
  net.step();
  EXPECT_EQ(shell->stats().firings, 2u);
}

TEST(Shell, BackPressureAssertsStopWhenFifoFull) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  ShellOptions opts = wp1();
  opts.fifo_capacity = 2;
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<RecordingProcess>(), opts));
  shell->connect_input(0, wa, 0);
  shell->connect_input(1, wb, 0);
  shell->add_output_wire(0, wo);

  // Flood input a while b starves: a's FIFO fills to capacity, stop rises.
  for (int i = 1; i <= 6; ++i) {
    net.wire(wa).drive(Token::make(static_cast<Word>(i)));
    net.step();
    EXPECT_LE(shell->fifo_size(0), 2u);
  }
  EXPECT_TRUE(net.wire(wa).stop);
}

TEST(Shell, OracleFiresWithoutUnneededInput) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  // Input b needed only at every 3rd firing (phase 0).
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<DutyCycleProcess>("duty", 3), wp2()));
  shell->connect_input(0, wa, 100);
  shell->connect_input(1, wb, 200);
  shell->add_output_wire(0, wo);

  net.step();  // tag 0 fires (both initial tokens present)
  EXPECT_EQ(shell->stats().firings, 1u);
  // Feed only a: tags 1 and 2 need just a, so the shell runs ahead.
  net.wire(wa).drive(Token::make(101));
  net.step();
  net.wire(wa).drive(Token::make(102));
  net.step();
  net.wire(wa).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 3u);
  // Tag 3 is a phase-0 firing again: b required, shell must stall.
  net.wire(wa).drive(Token::make(103));
  net.step();
  net.wire(wa).drive(Token::tau());
  net.step();
  EXPECT_EQ(shell->stats().firings, 3u);
  // The stale b tokens (tags 1, 2) arrive late and must be discarded; the
  // tag-3 token unblocks the firing.
  for (Word v : {201, 202, 203}) {
    net.wire(wb).drive(Token::make(v));
    net.step();
  }
  net.wire(wb).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 4u);
  EXPECT_EQ(shell->stats().discarded_tokens, 2u);
}

TEST(Shell, StrictModeNeverDiscards) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<DutyCycleProcess>("duty", 3), wp1()));
  shell->connect_input(0, wa, 0);
  shell->connect_input(1, wb, 0);
  shell->add_output_wire(0, wo);
  for (int i = 1; i <= 10; ++i) {
    net.wire(wa).drive(Token::make(static_cast<Word>(i)));
    net.wire(wb).drive(Token::make(static_cast<Word>(100 + i)));
    net.step();
  }
  EXPECT_EQ(shell->stats().discarded_tokens, 0u);
  EXPECT_EQ(shell->stats().firings, 10u);  // one firing per cycle, tags 0-9
}

TEST(Shell, UnsoundOracleGetsPoisonedInput) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wb = net.make_wire("b");
  const WireId wo = net.make_wire("o");
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<UnsoundOracleProcess>(), wp2()));
  shell->connect_input(0, wa, 1);
  shell->connect_input(1, wb, 2);
  shell->add_output_wire(0, wo);
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
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<IdentityProcess>("id"), wp1()));
  shell->connect_input(0, wa, 7);
  shell->add_output_wire(0, w1);
  shell->add_output_wire(0, w2);

  net.wire(w2).stop = true;
  net.step();  // fires tag 0
  net.wire(wa).drive(Token::make(8));
  net.wire(w2).stop = true;
  net.step();  // w1 delivered, w2 held: no second firing
  net.wire(wa).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 1u);
  net.wire(w2).stop = true;
  net.step();  // branch w1 now drives τ, w2 still re-drives the held token
  EXPECT_FALSE(net.wire(w1).valid);  // already delivered branch sends τ
  EXPECT_EQ(net.wire(w2).value, 7u);
  net.wire(w2).stop = false;
  net.step();  // w2 delivered; tag 1 fires
  EXPECT_EQ(shell->stats().firings, 2u);
}

TEST(Shell, FireObserverSeesTagsInOrder) {
  Network net;
  const WireId wa = net.make_wire("a");
  const WireId wo = net.make_wire("o");
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "s", std::make_unique<IdentityProcess>("id"), wp1()));
  shell->connect_input(0, wa, 0);
  shell->add_output_wire(0, wo);
  std::vector<Tag> tags;
  shell->set_fire_observer(
      [&tags](Cycle, Tag tag, const Word*) { tags.push_back(tag); });
  for (int i = 1; i <= 5; ++i) {
    net.wire(wa).drive(Token::make(static_cast<Word>(i)));
    net.step();
  }
  EXPECT_EQ(tags, (std::vector<Tag>{0, 1, 2, 3, 4}));
}

TEST(Network, CountsFiringsAndHaltsAcrossReset) {
  // The shell commits feed the run loop's two counters: the firing total
  // and the number of halted shells. reset() clears both.
  Network net;
  const WireId w = net.make_wire("w");
  Shell* src = net.add_shell(std::make_unique<Shell>(
      "src", std::make_unique<CounterSource>("src", 0, 1, 3), wp1()));
  Shell* sink = net.add_shell(std::make_unique<Shell>(
      "sink", std::make_unique<SinkProcess>("sink"), wp1()));
  src->add_output_wire(0, w);
  sink->connect_input(0, w, 0);

  EXPECT_EQ(net.run(100, 1), 3u);  // the source halts after 3 firings
  EXPECT_EQ(net.halted_shells(), 1u);
  EXPECT_EQ(net.firings(), src->stats().firings + sink->stats().firings);
  EXPECT_EQ(net.run(100, 1), 0u);  // already satisfied: no step

  net.reset();
  EXPECT_EQ(net.cycle(), 0u);
  EXPECT_EQ(net.firings(), 0u);
  EXPECT_EQ(net.halted_shells(), 0u);
  EXPECT_FALSE(src->halted());
  EXPECT_EQ(net.run(100, 1), 3u);  // the same run again
}

TEST(Shell, RejectsBadConfiguration) {
  auto make = [] {
    return std::make_unique<IdentityProcess>("id");
  };
  EXPECT_THROW(Shell("s", nullptr, wp1()), ContractViolation);
  ShellOptions zero = wp1();
  zero.fifo_capacity = 0;
  EXPECT_THROW(Shell("s", make(), zero), ContractViolation);
  ShellOptions huge = wp1();
  huge.fifo_capacity = kMaxFifoCapacity + 1;
  EXPECT_THROW(Shell("s", make(), huge), ContractViolation);
  huge.fifo_capacity = kMaxFifoCapacity;
  EXPECT_NO_THROW(Shell("s", make(), huge));

  Network net;
  const WireId w = net.make_wire("w");
  Shell s("s", make(), wp1());
  EXPECT_THROW(s.connect_input(5, w, 0), ContractViolation);
  s.connect_input(0, w, 0);
  EXPECT_THROW(s.connect_input(0, w, 0), ContractViolation);  // twice
}

TEST(Shell, RejectsMoreInputsThanTheMaskHolds) {
  // Availability and requirements are 32-bit InputMasks: a 33rd input has
  // no bit, so such a process is refused before a shell can wrap it.
  EXPECT_THROW(Shell("s", std::make_unique<WideProcess>(33), wp1()),
               ContractViolation);

  // 32 inputs use every bit of the mask, the top one included.
  Network net;
  const WireId out = net.make_wire("o");
  Shell* shell = net.add_shell(
      std::make_unique<Shell>("s", std::make_unique<WideProcess>(32), wp2()));
  std::vector<WireId> in;
  for (std::size_t i = 0; i < 32; ++i) {
    in.push_back(net.make_wire("in" + std::to_string(i)));
    shell->connect_input(i, in.back(), i + 1);
  }
  shell->add_output_wire(0, out);
  net.step();  // tag 0 fires from the 32 initial tokens
  EXPECT_EQ(shell->stats().firings, 1u);
  net.step();
  EXPECT_TRUE(net.wire(out).valid);
  EXPECT_EQ(net.wire(out).value, Word{32 * 33 / 2});
  net.step();  // tag 1 waits for the top input, like every other one
  EXPECT_EQ(shell->stats().firings, 1u);
  for (std::size_t i = 0; i < 31; ++i) net.wire(in[i]).drive(Token::make(1));
  net.step();
  for (std::size_t i = 0; i < 31; ++i) net.wire(in[i]).drive(Token::tau());
  EXPECT_EQ(shell->stats().firings, 1u);
  net.wire(in[31]).drive(Token::make(1));
  net.step();
  EXPECT_EQ(shell->stats().firings, 2u);
}

}  // namespace
}  // namespace wp
