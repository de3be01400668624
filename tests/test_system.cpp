// System-level tests: golden vs LID cycle-identity at zero relay stations,
// the Th = m/(m+n) loop formula in simulation (parameterized ring sweep),
// equivalence checking, and back-pressure safety with tiny FIFOs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>

#include "util/assert.hpp"

#include "core/procs.hpp"
#include "core/system.hpp"
#include "proc/blocks.hpp"
#include "proc/experiment.hpp"
#include "stream/harness.hpp"
#include "stream/stream.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace wp {
namespace {

/// A ring of `m` accumulator-ish identity stages with a source-free closed
/// loop: stage i feeds stage (i+1) mod m. Every stage also counts firings;
/// the ring sustains one token per stage.
SystemSpec ring_system(int m) {
  SystemSpec spec;
  for (int i = 0; i < m; ++i) {
    spec.add_process("p" + std::to_string(i), [i]() {
      // Reset output value = stage index, so values circulate and mix.
      return std::make_unique<IdentityProcess>("p" + std::to_string(i),
                                               static_cast<Word>(i));
    });
  }
  for (int i = 0; i < m; ++i)
    spec.add_channel("p" + std::to_string(i), "out",
                     "p" + std::to_string((i + 1) % m), "in",
                     "ring" + std::to_string(i));
  return spec;
}

TEST(System, GoldenRunsAndTraces) {
  SystemSpec spec = ring_system(3);
  GoldenSim golden(spec, true);
  for (int i = 0; i < 10; ++i) golden.step();
  EXPECT_EQ(golden.cycle(), 10u);
  const auto& trace = golden.trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.at("p0.out").size(), 10u);
  // Identity ring of period 3: p0 emits the value it got from p2.
  EXPECT_EQ(trace.at("p0.out")[0], 2u);  // p2's reset value
}

TEST(System, LidZeroRsIsCycleAccurate) {
  SystemSpec spec = ring_system(4);
  GoldenSim golden(spec, true);
  for (int i = 0; i < 50; ++i) golden.step();

  LidSystem lid = build_lid(spec, ShellOptions{}, true);
  for (int i = 0; i < 50; ++i) lid.network->step();

  // Every shell fired every cycle (throughput 1.0)...
  for (const auto& [name, shell] : lid.shells)
    EXPECT_EQ(shell->stats().firings, 50u) << name;
  // ...and the τ-filtered streams match the golden ones exactly.
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
  EXPECT_EQ(eq.events_checked, 4u * 50u);
}

/// Simulated WP1 ring throughput must equal m/(m+n) (paper §2).
class RingThroughput
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(RingThroughput, MatchesLoopFormula) {
  const auto [m, n, oracle] = GetParam();
  SystemSpec spec = ring_system(m);
  spec.set_connection_rs("ring0", n);  // n relay stations on one edge

  ShellOptions opts;
  opts.use_oracle = oracle;
  LidSystem lid = build_lid(spec, opts, false);
  const std::uint64_t cycles = 3000;
  for (std::uint64_t i = 0; i < cycles; ++i) lid.network->step();

  const double expected = static_cast<double>(m) / (m + n);
  for (const auto& [name, shell] : lid.shells) {
    const double th =
        static_cast<double>(shell->stats().firings) / static_cast<double>(cycles);
    // IdentityProcess has no oracle slack, so WP1 == WP2 == m/(m+n).
    EXPECT_NEAR(th, expected, 0.01) << name << " m=" << m << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingThroughput,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(0, 1, 2, 4),
                       ::testing::Values(false, true)));

/// Distributing the same total RS differently around a loop must not change
/// throughput (only the sum m+n matters).
TEST(System, RsPlacementWithinLoopIsIrrelevant) {
  for (const std::vector<int>& split : std::vector<std::vector<int>>{
           {3, 0, 0}, {1, 1, 1}, {0, 2, 1}}) {
    SystemSpec spec = ring_system(3);
    for (int i = 0; i < 3; ++i)
      spec.set_connection_rs("ring" + std::to_string(i),
                             split[static_cast<std::size_t>(i)]);
    LidSystem lid = build_lid(spec, ShellOptions{}, false);
    for (int i = 0; i < 2400; ++i) lid.network->step();
    const double th = static_cast<double>(
                          lid.shells.at("p0")->stats().firings) /
                      2400.0;
    EXPECT_NEAR(th, 0.5, 0.01);  // 3/(3+3)
  }
}

TEST(System, TinyFifosStillLoseNothing) {
  // With capacity-1 FIFOs the ring must still make progress and stay
  // token-conserving (throughput may drop, correctness may not).
  SystemSpec spec = ring_system(3);
  spec.set_all_rs(2);
  ShellOptions opts;
  opts.fifo_capacity = 1;
  GoldenSim golden(spec, true);
  for (int i = 0; i < 200; ++i) golden.step();
  LidSystem lid = build_lid(spec, opts, true);
  for (int i = 0; i < 2000; ++i) lid.network->step();
  EXPECT_GT(lid.shells.at("p0")->stats().firings, 50u);
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

TEST(System, SourceSinkPipelineDeliversSequence) {
  SystemSpec spec;
  spec.add_process("src", []() {
    return std::make_unique<CounterSource>("src", 5, 3, 0);
  });
  spec.add_process("sink", []() {
    return std::make_unique<SinkProcess>("sink", 40);
  });
  spec.add_channel("src", "out", "sink", "in");
  spec.set_all_rs(3);

  LidSystem lid = build_lid(spec, ShellOptions{}, false);
  lid.run_until_halt(10000, /*grace=*/0);
  const auto& sink =
      dynamic_cast<const SinkProcess&>(lid.shells.at("sink")->process());
  ASSERT_GE(sink.received().size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    // First value is the channel's initial token (source reset value 5),
    // then the source's emitted sequence 5, 8, 11, ...
    const Word expected = i == 0 ? 5 : 5 + 3 * (static_cast<Word>(i) - 1);
    EXPECT_EQ(sink.received()[i], expected) << i;
  }
}

TEST(System, EquivalenceCheckerFindsDivergence) {
  Trace a{{"p.out", {1, 2, 3}}};
  Trace b{{"p.out", {1, 9, 3}}};
  const auto eq = check_equivalence(a, b);
  EXPECT_FALSE(eq.equivalent);
  EXPECT_NE(eq.detail.find("tag 1"), std::string::npos);
}

TEST(System, EquivalenceIsPrefixBased) {
  Trace golden{{"p.out", {1, 2, 3, 4, 5}}};
  Trace wp{{"p.out", {1, 2, 3}}};  // shorter (stalled) but equivalent
  const auto eq = check_equivalence(golden, wp);
  EXPECT_TRUE(eq.equivalent);
  EXPECT_EQ(eq.events_checked, 3u);
}

TEST(System, EquivalenceIgnoresUnsharedStreams) {
  Trace golden{{"p.out", {1}}, {"q.out", {7}}};
  Trace wp{{"p.out", {1}}};
  EXPECT_TRUE(check_equivalence(golden, wp).equivalent);
}

TEST(System, SpecValidation) {
  SystemSpec spec;
  spec.add_process("a", []() { return std::make_unique<IdentityProcess>("a"); });
  EXPECT_THROW(spec.add_process("a", []() {
    return std::make_unique<IdentityProcess>("a");
  }), ContractViolation);
  EXPECT_THROW(spec.add_channel("a", "out", "missing", "in"),
               ContractViolation);
  spec.add_process("b", []() { return std::make_unique<IdentityProcess>("b"); });
  spec.add_channel("a", "out", "b", "in");
  EXPECT_THROW(spec.set_connection_rs("nope", 1), ContractViolation);
  spec.set_connection_rs("a-b", 2);
  EXPECT_EQ(spec.channels()[0].relay_stations, 2);
}

TEST(System, ResetReproducesTheRunExactly) {
  // Network::reset must restore wires, relay stations and shells (tags,
  // FIFOs, initial tokens) to power-on state: a re-run yields the same
  // τ-filtered trace.
  SystemSpec spec = ring_system(3);
  spec.set_connection_rs("ring1", 2);
  ShellOptions wp2;
  wp2.use_oracle = true;
  LidSystem lid = build_lid(spec, wp2, true);
  for (int i = 0; i < 400; ++i) lid.network->step();
  const Trace first = lid.trace;
  lid.trace.clear();
  lid.network->reset();
  EXPECT_EQ(lid.network->cycle(), 0u);
  for (int i = 0; i < 400; ++i) lid.network->step();
  EXPECT_EQ(first, lid.trace);
}

TEST(System, BoundedFifosMatchTheSemiInfiniteAbstraction) {
  // Paper §1 first defines the wrapper with "semi-infinite fifos", then
  // bounds them with back-pressure. Both must produce identical streams
  // and identical throughput once the bound exceeds the loop slack.
  SystemSpec spec = ring_system(4);
  spec.set_connection_rs("ring0", 3);
  Trace traces[2];
  std::uint64_t firings[2];
  int variant = 0;
  for (const std::size_t capacity : {4u, 1u << 20}) {
    ShellOptions opts;
    opts.use_oracle = true;
    opts.fifo_capacity = capacity;  // 2^20 ~ the semi-infinite abstraction
    LidSystem lid = build_lid(spec, opts, true);
    for (int i = 0; i < 1000; ++i) lid.network->step();
    traces[variant] = std::move(lid.trace);
    firings[variant] = lid.shells.at("p0")->stats().firings;
    ++variant;
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(firings[0], firings[1]);
}

TEST(System, GoldenUnconnectedInputReadsItsResetValue) {
  SystemSpec spec;
  spec.add_process("lonely", []() {
    auto p = std::make_unique<AdderProcess>("lonely");
    return p;
  });
  spec.add_process("echo", []() {
    return std::make_unique<IdentityProcess>("echo", 0);
  });
  // Only input a is fed; input b stays unconnected (reset value 0).
  spec.add_channel("echo", "out", "lonely", "a");
  spec.add_channel("lonely", "sum", "echo", "in");
  GoldenSim golden(spec, true);
  for (int i = 0; i < 10; ++i) golden.step();
  // sum = a + 0 forever: the loop circulates the initial 0s.
  for (Word v : golden.trace().at("lonely.sum")) EXPECT_EQ(v, 0u);
}

TEST(System, HaltGraceDrainsInFlightTokens) {
  SystemSpec spec;
  spec.add_process("src", []() {
    return std::make_unique<CounterSource>("src", 1, 1, 20);  // halts at 20
  });
  spec.add_process("sink", []() {
    return std::make_unique<SinkProcess>("sink", 0);
  });
  spec.add_channel("src", "out", "sink", "in");
  spec.set_all_rs(4);

  for (const std::uint64_t grace : {0ull, 64ull}) {
    LidSystem lid = build_lid(spec, ShellOptions{}, false);
    lid.run_until_halt(10000, grace);
    const auto& sink =
        dynamic_cast<const SinkProcess&>(lid.shells.at("sink")->process());
    if (grace == 0) {
      EXPECT_LT(sink.received().size(), 21u);  // tail still in the RS chain
    } else {
      EXPECT_EQ(sink.received().size(), 21u);  // initial token + 20 emitted
    }
  }
}

TEST(System, KernelBehaviourPinned) {
  // Exact observables of the LID kernel. These values must not move: any
  // change to cycle counts, stall accounting or the noise stations' RNG
  // draw order changes them.
  stream::StreamGraphConfig graph;  // the stream-wp2 workload's shape
  graph.tokens = 2000;
  graph.fir_stages = 3;
  graph.branches = 2;
  graph.agc_period = 16;
  graph.feedback_rs = 2;
  graph.forward_rs = 1;
  graph.sink.keep_samples = false;
  graph.sink.tail_window = 0;
  struct Pin {
    stream::RunMode mode;
    std::uint64_t digest, cycles, input_stalls, output_stalls, discarded;
  };
  for (const Pin& pin : {
           Pin{stream::RunMode::kWp1, 9963346953269847280ULL, 3333, 10678, 9054, 0},
           Pin{stream::RunMode::kWp2, 9963346953269847280ULL, 2253, 2032, 1496, 3244},
       }) {
    stream::HarnessOptions options;
    options.mode = pin.mode;
    options.record_metrics = false;
    const stream::HarnessResult r = stream::run_stream_graph(graph, options);
    SCOPED_TRACE(stream::run_mode_name(pin.mode));
    EXPECT_EQ(r.digest, pin.digest);
    EXPECT_EQ(r.cycles, pin.cycles);
    EXPECT_EQ(r.input_stalls, pin.input_stalls);
    EXPECT_EQ(r.output_stalls, pin.output_stalls);
    EXPECT_EQ(r.discarded_tokens, pin.discarded);
  }

  // Two Table-1 rows of bench_table1_sort.
  const proc::ProgramSpec sort = proc::extraction_sort_program(16, 1);
  struct Row {
    const char* label;
    std::uint64_t wp1_cycles, wp2_cycles;
  };
  for (const Row& row : {Row{"Only RF-DC", 3426, 2299},
                         Row{"All 1 (no CU-IC)", 4569, 3836}}) {
    SCOPED_TRACE(row.label);
    const auto configs = proc::table1_sort_configs();
    const auto it = std::find_if(
        configs.begin(), configs.end(),
        [&row](const proc::RsConfig& c) { return c.label == row.label; });
    ASSERT_NE(it, configs.end());
    const proc::ExperimentRow result =
        proc::run_experiment(sort, proc::CpuConfig{}, *it);
    EXPECT_EQ(result.wp1_cycles, row.wp1_cycles);
    EXPECT_EQ(result.wp2_cycles, row.wp2_cycles);
  }

  // bench_profile_noise's congested CPU: one noise station per channel at
  // p = 0.1, seed 17. Pins the stations' seeding and draw order.
  const SystemSpec cpu = proc::make_cpu_system(sort, {});
  NoiseOptions noise;
  noise.stall_probability = 0.1;
  noise.seed = 17;
  const std::uint64_t noisy_cycles[2] = {5697, 4959};  // WP1, WP2
  for (const bool oracle : {false, true}) {
    ShellOptions shell;
    shell.use_oracle = oracle;
    LidSystem lid = build_lid(cpu, shell, false, noise);
    EXPECT_EQ(lid.run_until_halt(5000000, 0), noisy_cycles[oracle ? 1 : 0])
        << (oracle ? "WP2" : "WP1");
  }
}

TEST(System, DiscardHeavyWp2NetworkPinned) {
  // KernelBehaviourPinned sees discards only on the AGC-GAIN link. Here six
  // random Moore machines with peek-gated oracles skip inputs all the time,
  // behind small FIFOs and noise stations at p = 0.2, so stale tokens,
  // back-pressure and injected stalls meet on every channel. Every shell's
  // counters are pinned: any change to the kernel's behaviour moves them.
  Rng rng(83);
  SystemSpec spec;
  const int n = 6;
  Rng table_rng = rng.split();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = table_rng();
    spec.add_process("p" + std::to_string(i), [seed]() {
      Rng r(seed);
      return std::make_unique<RandomMooreProcess>("m", 3, 2, 6, r, true);
    });
  }
  for (int i = 0; i < n; ++i) {
    spec.add_channel("p" + std::to_string((i + n - 1) % n), "out0",
                     "p" + std::to_string(i), "in0");
    for (int port = 1; port < 3; ++port)
      spec.add_channel("p" + std::to_string(rng.below(n)),
                       "out" + std::to_string(rng.below(2)),
                       "p" + std::to_string(i), "in" + std::to_string(port));
  }
  for (const auto& name : spec.connections())
    spec.set_connection_rs(name, static_cast<int>(rng.below(3)));

  ShellOptions shell;
  shell.use_oracle = true;
  shell.fifo_capacity = 4;
  NoiseOptions noise;
  noise.stall_probability = 0.2;
  noise.seed = 29;
  LidSystem lid = build_lid(spec, shell, false, noise);
  for (int c = 0; c < 20000; ++c) lid.network->step();

  std::uint64_t digest = hash_string("kernel");
  ShellStats total;
  for (const auto& [name, s] : lid.shells) {
    const ShellStats& stats = s->stats();
    digest = hash_combine(digest, hash_string(name));
    for (const std::uint64_t count :
         {stats.firings, stats.stalls_input, stats.stalls_output,
          stats.discarded_tokens})
      digest = hash_combine(digest, count);
    total.firings += stats.firings;
    total.stalls_input += stats.stalls_input;
    total.stalls_output += stats.stalls_output;
    total.discarded_tokens += stats.discarded_tokens;
  }
  EXPECT_EQ(total.firings, 33151u);
  EXPECT_EQ(total.stalls_input, 86734u);
  EXPECT_EQ(total.stalls_output, 115u);
  EXPECT_EQ(total.discarded_tokens, 9081u);
  EXPECT_EQ(digest, 13437317583291833912ULL);
}

TEST(System, StreamGraphCapacitySweepPinned) {
  // KernelBehaviourPinned runs the stream-wp2 shape at the default FIFO
  // capacity only. Capacities 1 and 2 keep the input FIFOs full, empty and
  // wrapping almost every cycle, so these pins cover the ring arithmetic
  // and the stop lines that capacity 16 rarely reaches.
  stream::StreamGraphConfig graph;
  graph.tokens = 2000;
  graph.fir_stages = 3;
  graph.branches = 2;
  graph.agc_period = 16;
  graph.feedback_rs = 2;
  graph.forward_rs = 1;
  graph.sink.keep_samples = false;
  graph.sink.tail_window = 0;
  struct Pin {
    std::size_t capacity;
    stream::RunMode mode;
    std::uint64_t cycles, input_stalls, output_stalls, discarded;
  };
  for (const Pin& pin : {
           Pin{1, stream::RunMode::kWp1, 3333, 10678, 9294, 0},
           Pin{1, stream::RunMode::kWp2, 2253, 2032, 1736, 3244},
           Pin{2, stream::RunMode::kWp1, 3333, 10678, 9278, 0},
           Pin{2, stream::RunMode::kWp2, 2253, 2032, 1720, 3244},
           Pin{4, stream::RunMode::kWp1, 3333, 10678, 9246, 0},
           Pin{4, stream::RunMode::kWp2, 2253, 2032, 1688, 3244},
           Pin{16, stream::RunMode::kWp1, 3333, 10678, 9054, 0},
           Pin{16, stream::RunMode::kWp2, 2253, 2032, 1496, 3244},
       }) {
    stream::HarnessOptions options;
    options.mode = pin.mode;
    options.fifo_capacity = pin.capacity;
    options.record_metrics = false;
    const stream::HarnessResult r = stream::run_stream_graph(graph, options);
    SCOPED_TRACE(std::string(stream::run_mode_name(pin.mode)) + " capacity " +
                 std::to_string(pin.capacity));
    EXPECT_EQ(r.digest, 9963346953269847280ULL);  // the golden digest
    EXPECT_EQ(r.cycles, pin.cycles);
    EXPECT_EQ(r.input_stalls, pin.input_stalls);
    EXPECT_EQ(r.output_stalls, pin.output_stalls);
    EXPECT_EQ(r.discarded_tokens, pin.discarded);
  }
}

/// The Process subclasses under src/ whose class body overrides required():
/// a line `class X ... Process` opens a class, and a `required(const
/// PeekView` line with `override` inside it names X.
std::set<std::string> oracle_overrides_in_src() {
  namespace fs = std::filesystem;
  const std::regex class_line(R"(^\s*class\s+(\w+)\b.*\bProcess\b)");
  std::set<std::string> found;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(WP_SOURCE_DIR) / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    std::ifstream in(entry.path());
    std::string line, current;
    std::smatch match;
    while (std::getline(in, line)) {
      if (std::regex_search(line, match, class_line)) current = match[1];
      if (line.find("required(const PeekView") != std::string::npos &&
          line.find("override") != std::string::npos && !current.empty())
        found.insert(current);
    }
  }
  return found;
}

TEST(System, EveryOracleOverrideDeclaresTheOracle) {
  // The WP2 shell asks required() only of a process that declared an
  // oracle; a class that overrides required() without declaring it would
  // silently run as WP1. Every such class in src/ is listed here, and each
  // one must declare it.
  const std::set<std::string> expected = {
      "AluBlock",         "ControlUnit", "DcacheBlock",
      "DutyCycleProcess", "GainStage",   "RandomMooreProcess",
      "RegFileBlock",     "TimedProcess"};
  EXPECT_EQ(oracle_overrides_in_src(), expected);

  Rng rng(5);
  const std::unique_ptr<Process> processes[] = {
      std::make_unique<proc::AluBlock>(),
      std::make_unique<proc::ControlUnit>(proc::ControlUnit::Config{}),
      std::make_unique<proc::DcacheBlock>(std::vector<std::uint32_t>(4, 0)),
      std::make_unique<DutyCycleProcess>("duty", 3),
      std::make_unique<stream::GainStage>("gain", 16),
      std::make_unique<RandomMooreProcess>("gated", 3, 2, 4, rng, true),
      std::make_unique<RandomMooreProcess>("plain", 3, 2, 4, rng, false),
      std::make_unique<proc::RegFileBlock>(),
  };
  for (const auto& process : processes)
    EXPECT_TRUE(process->has_oracle()) << process->name();
  EXPECT_FALSE(IdentityProcess("id").has_oracle());

  // TimedProcess (the stream harness's stage timer) declares the oracle of
  // the stage it wraps: timed or not, WP2 keeps its WP2 cycle count.
  stream::StreamGraphConfig graph;
  graph.tokens = 2000;
  graph.fir_stages = 3;
  graph.branches = 2;
  graph.agc_period = 16;
  graph.feedback_rs = 2;
  graph.forward_rs = 1;
  stream::HarnessOptions timed;
  timed.mode = stream::RunMode::kWp2;
  timed.record_metrics = false;
  timed.time_stages = true;
  EXPECT_EQ(stream::run_stream_graph(graph, timed).cycles, 2253u);

  // The CPU case study under WP2 keeps KernelBehaviourPinned's Table-1
  // cycles.
  const proc::ProgramSpec sort = proc::extraction_sort_program(16, 1);
  const auto configs = proc::table1_sort_configs();
  for (const auto& [label, wp2_cycles] :
       {std::pair<const char*, std::uint64_t>{"Only RF-DC", 2299},
        {"All 1 (no CU-IC)", 3836}}) {
    const auto it = std::find_if(
        configs.begin(), configs.end(),
        [label = label](const proc::RsConfig& c) { return c.label == label; });
    ASSERT_NE(it, configs.end());
    EXPECT_EQ(proc::run_experiment(sort, proc::CpuConfig{}, *it).wp2_cycles,
              wp2_cycles)
        << label;
  }
}

/// A genuine deadlock: one source fans out to two sinks. Sink `a` halts
/// after 10 tokens and stops draining, its FIFO fills, back-pressure stalls
/// the source, and sink `b` starves short of its limit forever.
SystemSpec fanout_deadlock() {
  SystemSpec spec;
  spec.add_process("src", []() {
    return std::make_unique<CounterSource>("src");
  });
  spec.add_process("a", []() { return std::make_unique<SinkProcess>("a", 10); });
  spec.add_process("b", []() {
    return std::make_unique<SinkProcess>("b", 1000);
  });
  spec.add_channel("src", "out", "a", "in");
  spec.add_channel("src", "out", "b", "in");
  return spec;
}

TEST(System, WatchdogThrowsAfterQuietWindow) {
  // Waiting for both sinks to halt can never succeed: the watchdog must
  // throw after Network::kDeadlockWindow quiet cycles, well before the
  // cycle budget would end the run.
  LidSystem lid = build_lid(fanout_deadlock(), ShellOptions{}, false);
  EXPECT_THROW(lid.network->run(10 * Network::kDeadlockWindow, 2),
               ContractViolation);
  EXPECT_EQ(lid.network->halted_shells(), 1u);
  // Sink b's 27th firing is the last progress; the window starts there.
  EXPECT_EQ(lid.shells.at("b")->stats().firings, 27u);
  EXPECT_EQ(lid.network->cycle(), 27 + Network::kDeadlockWindow);
}

TEST(System, RunAfterMoveStillDetectsDeadlock) {
  // A run after run_until_halt and a move of the system must touch no
  // state of the earlier call, and must still detect the stall.
  LidSystem first = build_lid(fanout_deadlock(), ShellOptions{}, false);
  first.run_until_halt(50, 0);  // sink a halts within 50 cycles
  ASSERT_EQ(first.network->halted_shells(), 1u);
  LidSystem moved = std::move(first);
  EXPECT_EQ(moved.network->run(50, 2), 50u);  // quiet, but inside the window
  EXPECT_THROW(moved.network->run(10 * Network::kDeadlockWindow, 2),
               ContractViolation);
}

TEST(System, WatchdogDetectsDeadlock) {
  // Two strict shells that wait on each other with no initial token cannot
  // exist through build_lid (channels always seed one token), so emulate a
  // stall: a sink whose producer never fires because its own input is never
  // fed. A 2-node chain without a source stalls after the initial tokens.
  SystemSpec spec;
  spec.add_process("x", []() { return std::make_unique<IdentityProcess>("x"); });
  spec.add_process("y", []() { return std::make_unique<IdentityProcess>("y"); });
  spec.add_channel("x", "out", "y", "in");
  // x's input is unconnected -> build must reject it.
  EXPECT_THROW(build_lid(spec, ShellOptions{}, false).network->step(),
               ContractViolation);
}

}  // namespace
}  // namespace wp
