// Sustained-load bench for the streaming front end: millions of tokens
// through a parameterized multi-branch stream graph (stream/harness.hpp),
// reporting throughput, per-stage p99 fire latency, backpressure totals
// and — the allocation story — the steady-state allocation rate of the
// token path.
//
// Allocation accounting: this TU overrides the global operator new/delete
// with counting wrappers, then runs the SAME graph at two token counts.
// Per-run setup (spec strings, shells, wires, preallocated ring FIFOs,
// histograms) allocates identically in both; anything that scales with
// tokens is token-path allocation. With the ring-buffer FIFOs the delta is
// zero allocations and zero bytes per million tokens, and the bench exits
// non-zero when either is not, so a vector sneaking back into the hot
// loop fails the run that measured it.
//
// The measured run is cross-checked against a golden run of the same
// config: digest mismatch aborts the bench — a throughput number for a
// stream that is not bit-for-bit the reference stream is worthless.
//
// `wp2_over_golden_ns_per_cycle` puts the LID kernel's cost per cycle next
// to the golden simulator's: five pairs of untimed runs of the same config
// (stage timers off), each a WP2 run and the golden run right after it, all
// in this process; the field is the median of the five per-pair ratios. A
// pair's two runs share a host phase, so a slow phase moves its ratio less
// than it moves either run. It is informational; no gate reads it.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "cli/arg_parser.hpp"
#include "obs/metrics.hpp"
#include "stream/harness.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t alignment) {
  count_alloc(size);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(alignment), size ? size : 1))
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace wp;

stream::RunMode parse_mode(const std::string& name) {
  if (name == "golden") return stream::RunMode::kGolden;
  if (name == "wp1") return stream::RunMode::kWp1;
  if (name == "wp2") return stream::RunMode::kWp2;
  std::cerr << "unknown --mode '" << name << "' (golden|wp1|wp2)\n";
  std::exit(2);
}

struct MeasuredRun {
  stream::HarnessResult result;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

MeasuredRun measure(const stream::StreamGraphConfig& config,
                    const stream::HarnessOptions& options) {
  MeasuredRun run;
  const std::uint64_t allocs_before = g_allocs.load();
  const std::uint64_t bytes_before = g_alloc_bytes.load();
  run.result = stream::run_stream_graph(config, options);
  run.allocs = g_allocs.load() - allocs_before;
  run.alloc_bytes = g_alloc_bytes.load() - bytes_before;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser(
      "bench_stream_load",
      "Heavy-traffic stream harness: tokens/sec, per-stage p99 latency, "
      "backpressure and steady-state allocation rate of the token path.");
  parser.option("--tokens", "N", "1000000", "tokens per sink, measured run");
  parser.option("--fir-stages", "N", "3", "FIR chain depth per branch");
  parser.option("--branches", "N", "2", "parallel AGC pipelines");
  parser.option("--agc-period", "K", "16", "gain update cadence");
  parser.option("--feedback-rs", "N", "2", "relay stations on AGC-GAIN");
  parser.option("--forward-rs", "N", "1", "relay stations on forward links");
  parser.option("--fifo", "N", "16", "shell input FIFO capacity");
  parser.option("--mode", "M", "wp2", "golden|wp1|wp2");
  parser.option("--warmup", "N", "50000", "warmup tokens (not measured)");
  parser.option("--json", "PATH", "BENCH_stream.json",
                "perf flight-recorder artifact");
  parser.parse_or_exit(argc, argv);

  stream::StreamGraphConfig config;
  config.tokens = static_cast<std::uint64_t>(parser.get_int("--tokens"));
  config.fir_stages = static_cast<std::size_t>(parser.get_int("--fir-stages"));
  config.branches = static_cast<std::size_t>(parser.get_int("--branches"));
  config.agc_period = static_cast<std::uint64_t>(parser.get_int("--agc-period"));
  config.feedback_rs = parser.get_int("--feedback-rs");
  config.forward_rs = parser.get_int("--forward-rs");
  config.sink.keep_samples = false;  // stats-only: O(1) sink memory

  stream::HarnessOptions options;
  options.mode = parse_mode(parser.get("--mode"));
  options.fifo_capacity = static_cast<std::size_t>(parser.get_int("--fifo"));
  options.time_stages = true;

  const std::size_t stages =
      stream::make_stream_graph(config).process_names().size();
  std::cout << "stream load: " << config.tokens << " tokens/sink x "
            << config.branches << " branches, " << stages
            << " stages, mode " << stream::run_mode_name(options.mode)
            << ", K=" << config.agc_period << ", feedback RS "
            << config.feedback_rs << ", forward RS " << config.forward_rs
            << "\n";

  // Warmup: registers every registry metric and faults in the allocator,
  // so the two measured runs below differ only in token count.
  stream::StreamGraphConfig warmup = config;
  warmup.tokens = static_cast<std::uint64_t>(parser.get_int("--warmup"));
  (void)stream::run_stream_graph(warmup, options);

  // Token-path allocation rate: same graph at T/2 and T tokens; the
  // per-run setup cancels in the delta.
  stream::StreamGraphConfig half = config;
  half.tokens = config.tokens / 2;
  const MeasuredRun small = measure(half, options);
  const MeasuredRun full = measure(config, options);
  const stream::HarnessResult& result = full.result;

  const double extra_mtokens =
      static_cast<double>(config.tokens - half.tokens) *
      static_cast<double>(config.branches) / 1e6;
  const double allocs_per_mtoken =
      extra_mtokens > 0.0
          ? static_cast<double>(full.allocs > small.allocs
                                    ? full.allocs - small.allocs
                                    : 0) /
                extra_mtokens
          : 0.0;
  const double bytes_per_mtoken =
      extra_mtokens > 0.0
          ? static_cast<double>(full.alloc_bytes > small.alloc_bytes
                                    ? full.alloc_bytes - small.alloc_bytes
                                    : 0) /
                extra_mtokens
          : 0.0;
  obs::Registry::global()
      .gauge("stream/alloc/allocs_per_mtoken")
      .set(static_cast<std::int64_t>(allocs_per_mtoken));
  obs::Registry::global()
      .gauge("stream/alloc/bytes_per_mtoken")
      .set(static_cast<std::int64_t>(bytes_per_mtoken));

  // Differential cross-check: the measured stream must be bit-for-bit the
  // golden stream (skip when the measured mode IS golden).
  stream::HarnessOptions golden_options;
  golden_options.mode = stream::RunMode::kGolden;
  golden_options.record_metrics = false;
  const stream::HarnessResult golden =
      stream::run_stream_graph(config, golden_options);
  if (options.mode != stream::RunMode::kGolden) {
    WP_CHECK(golden.digest == result.digest,
             "bench_stream_load: measured stream diverged from golden — "
             "throughput of a wrong stream is not a result");
    std::cout << "differential check: " << stream::run_mode_name(options.mode)
              << " digest == golden digest\n";
  }

  // The LID kernel's cost per cycle over the golden simulator's: the median
  // of kRatioPairs per-pair ratios, each pair a WP2 run and the golden run
  // right after it.
  constexpr std::size_t kRatioPairs = 5;
  stream::HarnessOptions wp2_options;
  wp2_options.mode = stream::RunMode::kWp2;
  wp2_options.fifo_capacity = options.fifo_capacity;
  wp2_options.record_metrics = false;
  auto ns_per_cycle = [&config](const stream::HarnessOptions& run) {
    const stream::HarnessResult r = stream::run_stream_graph(config, run);
    return r.wall_ms * 1e6 / static_cast<double>(r.cycles);
  };
  std::vector<double> ratios;
  for (std::size_t pair = 0; pair < kRatioPairs; ++pair) {
    const double wp2_ns = ns_per_cycle(wp2_options);
    ratios.push_back(wp2_ns / ns_per_cycle(golden_options));
  }
  std::sort(ratios.begin(), ratios.end());
  const double wp2_over_golden = ratios[kRatioPairs / 2];
  std::cout << "untimed wp2/golden ns per cycle, median of " << kRatioPairs
            << " pairs: " << fmt_fixed(wp2_over_golden, 2) << "x (pairs "
            << fmt_fixed(ratios.front(), 2) << "-"
            << fmt_fixed(ratios.back(), 2) << "x)\n";

  TextTable table({"stage", "firings", "in stalls", "out stalls",
                   "discarded", "fire p50 ns", "fire p99 ns"});
  table.add_section("per-stage load (measured run)");
  table.add_separator();
  double max_p99 = 0.0;
  for (const auto& stage : result.stages) {
    max_p99 = stage.fire_p99_ns > max_p99 ? stage.fire_p99_ns : max_p99;
    table.add_row({stage.name, std::to_string(stage.firings),
                   std::to_string(stage.input_stalls),
                   std::to_string(stage.output_stalls),
                   std::to_string(stage.discarded_tokens),
                   fmt_fixed(stage.fire_p50_ns, 0),
                   fmt_fixed(stage.fire_p99_ns, 0)});
  }
  table.print(std::cout);

  std::cout << "tokens " << result.tokens << " in " << result.cycles
            << " cycles, " << fmt_fixed(result.wall_ms, 1) << " ms = "
            << fmt_fixed(result.tokens_per_sec / 1e6, 2)
            << " Mtokens/s; token-path allocs/Mtoken "
            << fmt_fixed(allocs_per_mtoken, 2) << " ("
            << fmt_fixed(bytes_per_mtoken, 0) << " bytes)\n";

  const std::string json_path = parser.get("--json");
  {
    std::ofstream json_file(json_path);
    json::JsonWriter json(json_file);
    json.begin_object();
    json.field("bench", "stream");
    json.field("mode", stream::run_mode_name(options.mode));
    json.field("tokens", result.tokens);
    json.field("branches",
               static_cast<unsigned long long>(config.branches));
    json.field("stages", static_cast<unsigned long long>(stages));
    json.field("cycles", result.cycles);
    json.field("run_ms", result.wall_ms);
    json.field("tokens_per_sec", result.tokens_per_sec);
    json.field("cycles_per_token",
               result.tokens == 0
                   ? 0.0
                   : static_cast<double>(result.cycles) /
                         static_cast<double>(result.tokens));
    json.field("steady_allocs_per_mtoken", allocs_per_mtoken);
    json.field("steady_bytes_per_mtoken", bytes_per_mtoken);
    json.field("max_stage_fire_p99_ns", max_p99);
    json.field("wp2_over_golden_ns_per_cycle", wp2_over_golden);
    json.key("backpressure").begin_object();
    json.field("input_stalls", result.input_stalls);
    json.field("output_stalls", result.output_stalls);
    json.field("discarded_tokens", result.discarded_tokens);
    json.end_object();
    json.end_object();
    json_file << "\n";
  }
  std::cout << "wrote " << json_path << "\n";

  if (allocs_per_mtoken != 0.0 || bytes_per_mtoken != 0.0) {
    std::cerr << "bench_stream_load: the token path allocates ("
              << fmt_fixed(allocs_per_mtoken, 2) << " allocs, "
              << fmt_fixed(bytes_per_mtoken, 0)
              << " bytes per Mtoken); it must allocate nothing\n";
    return 1;
  }
  return 0;
}
