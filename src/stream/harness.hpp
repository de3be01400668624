// The one builder and the one runner of the stream system. The paper's
// AGC pipeline of stream/stream.hpp is the fir_stages = 1, branches = 1
// graph; in general a shared SampleSource fans out to `branches` parallel
// AGC pipelines, each with a chain of `fir_stages` FIR filters in front of
// its GAIN→QNT→SNK spine and its own AGC feedback loop:
//
//          ┌► FIR0_0 ─ … ─ FIR0_d ─► GAIN0 ─► QNT0 ─► SNK0
//   SRC ───┤                           ▲         │
//          │                           └─ AGC0 ◄─┘     (loop, m = 3)
//          └► FIR1_0 ─ …                               (branch 1, …)
//
// run_stream_graph pushes tokens through the golden, WP1 or WP2
// execution until EVERY sink halts, so each sink holds exactly `tokens`
// samples and digests are comparable across runs. A LID run uses the
// kernel's one run loop, Network::run, waiting for `branches` halted
// shells (only the sinks halt); LidSystem::run_until_halt is the same
// loop waiting for one. The harness measures tokens/sec, collects
// per-stage firing/backpressure counters and optional per-stage
// fire-latency histograms, and flushes everything into the src/obs
// metrics registry (`stream/tokens/*`, `stream/backpressure/*`,
// `stream/stage_fire_ns/<stage>`), which means a daemon serving stream
// evaluations exposes the same counters through its kStatsRequest
// scrape. Exhausting the cycle budget without every sink halting is a
// loud ContractViolation, never a silently truncated result.
//
// The harness is also the in-process half of the remote stream path:
// eval::StreamJob (RequestKind::kStreamRun) carries a StreamGraphConfig
// over the wire and the daemon runs this exact harness, so remote output
// is byte-identical to in-process by construction — verified by digest in
// the differential suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "stream/stream.hpp"

namespace wp::stream {

/// Shape and workload of a multi-stage stream graph.
struct StreamGraphConfig {
  std::uint64_t tokens = 100000;  ///< per-sink halt limit (> 0)
  std::size_t fir_stages = 1;     ///< FIR chain depth per branch (>= 1)
  std::size_t branches = 1;       ///< parallel AGC pipelines (>= 1)
  std::uint64_t agc_period = 16;  ///< gain update cadence K (>= 1)
  double agc_target = 0.25;
  std::uint64_t seed = 7;
  std::vector<double> fir = {0.25, 0.5, 0.25};
  int feedback_rs = 0;  ///< relay stations on every AGC-GAIN loop link
  int forward_rs = 0;   ///< relay stations on every non-loop forward link
  SinkOptions sink;     ///< retention mode of every sink
};

/// The stream system's one validator (ContractViolation on the failing
/// field, at spec-build time): token and shape bounds, AGC period >= 1,
/// a positive finite AGC target and non-empty FIR taps, all inside the
/// 16.16 range.
void validate_graph_config(const StreamGraphConfig& config);

/// Builds the graph; validates first. Processes are added SRC first, then
/// branch by branch in pipeline order (FIR<b>_<k>…, GAIN<b>, QNT<b>,
/// AGC<b>, SNK<b>). Feedback connections are named "AGC<b>-GAIN<b>"
/// (relay stations preset from feedback_rs), forward ones "<from>-<to>"
/// (preset from forward_rs).
wp::SystemSpec make_stream_graph(const StreamGraphConfig& config);

// --------------------------------------------------------------- running

enum class RunMode : std::uint8_t {
  kGolden = 0,  ///< fully synchronous reference
  kWp1 = 1,     ///< strict wrappers
  kWp2 = 2,     ///< oracle wrappers (the paper's amortized feedback)
};

const char* run_mode_name(RunMode mode);

/// Per-stage load figures of one LID run (golden runs have no shells and
/// report firings only).
struct StageLoad {
  std::string name;
  std::uint64_t firings = 0;
  std::uint64_t input_stalls = 0;   ///< cycles stalled waiting for tokens
  std::uint64_t output_stalls = 0;  ///< cycles stalled by back-pressure
  std::uint64_t discarded_tokens = 0;
  // Fire-latency octave percentiles (ns), when stage timing was on.
  std::uint64_t fire_count = 0;
  double fire_p50_ns = 0.0;
  double fire_p99_ns = 0.0;
  double fire_mean_ns = 0.0;
};

struct HarnessOptions {
  RunMode mode = RunMode::kWp2;
  std::size_t fifo_capacity = 16;
  /// Cycle budget; 0 derives a generous bound from the graph shape. If
  /// the budget is exhausted before every sink halts, the run FAILS with
  /// ContractViolation — a truncated run must never report a throughput.
  std::uint64_t max_cycles = 0;
  /// Wrap every stage in a fire-latency timer feeding
  /// `stream/stage_fire_ns/<stage>` histograms (per-stage p99 visibility;
  /// adds two clock reads per firing).
  bool time_stages = false;
  /// Flush token/backpressure counters into the obs registry after the
  /// run (one cold-path add per counter; the hot loop stays atomic-free).
  bool record_metrics = true;
};

struct HarnessResult {
  RunMode mode = RunMode::kWp2;
  std::uint64_t tokens = 0;  ///< total sink samples (tokens * branches)
  std::uint64_t cycles = 0;  ///< cycle at which the last sink halted
  double wall_ms = 0.0;
  double tokens_per_sec = 0.0;
  /// Order-sensitive digest over every sink's digest, branch order — the
  /// one word two runs must agree on to be byte-identical.
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> sink_digests;  ///< per branch
  std::vector<std::uint64_t> sink_counts;   ///< per branch
  std::vector<StageLoad> stages;
  // Backpressure totals across stages (0 for golden runs).
  std::uint64_t input_stalls = 0;
  std::uint64_t output_stalls = 0;
  std::uint64_t discarded_tokens = 0;
};

/// Builds and runs the graph in the requested mode. Deterministic for a
/// given (config, mode, fifo_capacity): every field of the result except
/// wall_ms / tokens_per_sec / fire-latency figures is bit-stable across
/// runs and processes.
HarnessResult run_stream_graph(const StreamGraphConfig& config,
                               const HarnessOptions& options);

}  // namespace wp::stream
