#include "stream/harness.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::stream {

namespace {

constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;  // FNV offset

std::string fir_name(std::size_t branch, std::size_t stage) {
  return "FIR" + std::to_string(branch) + "_" + std::to_string(stage);
}
std::string gain_name(std::size_t b) { return "GAIN" + std::to_string(b); }
std::string qnt_name(std::size_t b) { return "QNT" + std::to_string(b); }
std::string agc_name(std::size_t b) { return "AGC" + std::to_string(b); }
std::string snk_name(std::size_t b) { return "SNK" + std::to_string(b); }

/// Wraps a stage to time every fire() into a per-run histogram (exact for
/// this run's StageLoad) and, optionally, the process-global registry
/// histogram `stream/stage_fire_ns/<stage>` (cumulative, scrape-visible).
class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner,
               std::shared_ptr<obs::Histogram> local,
               obs::Histogram* registry)
      : Process(inner->name()),
        inner_(std::move(inner)),
        local_(std::move(local)),
        registry_(registry) {
    for (const auto& port : inner_->inputs())
      add_input(port.name, port.reset_value);
    for (const auto& port : inner_->outputs())
      add_output(port.name, port.reset_value);
    if (inner_->has_oracle()) declare_oracle();
  }

  InputMask required(const PeekView& peek) const override {
    return inner_->required(peek);
  }

  void fire(const Word* in, Word* out) override {
    const std::uint64_t start = obs::now_ns();
    inner_->fire(in, out);
    const std::uint64_t elapsed = obs::now_ns() - start;
    local_->record(elapsed);
    if (registry_ != nullptr) registry_->record(elapsed);
  }

  void reset() override { inner_->reset(); }
  bool halted() const override { return inner_->halted(); }
  const Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<Process> inner_;
  std::shared_ptr<obs::Histogram> local_;
  obs::Histogram* registry_;
};

/// Sees through the timing decorator (sinks are downcast to StreamSink).
const Process& unwrap(const Process& process) {
  if (const auto* timed = dynamic_cast<const TimedProcess*>(&process))
    return timed->inner();
  return process;
}

/// Per-run fire-latency histograms, one per stage in spec order (exact for
/// this run's StageLoad), and whether each stage also records into the
/// cumulative registry histogram a daemon scrape exposes.
struct StageTimers {
  bool record_metrics = false;
  std::vector<std::shared_ptr<obs::Histogram>> local;
};

/// Validates, then builds the graph. With `timers`, each stage is wrapped
/// in a TimedProcess bound to that stage's own histograms as it is added.
wp::SystemSpec build_graph(const StreamGraphConfig& config,
                           StageTimers* timers) {
  validate_graph_config(config);
  std::vector<Word> taps;
  taps.reserve(config.fir.size());
  for (double c : config.fir) taps.push_back(fix_from_double(c));

  wp::SystemSpec spec;
  auto add = [&spec, timers](const std::string& name, ProcessFactory make) {
    if (timers == nullptr) {
      spec.add_process(name, std::move(make));
      return;
    }
    auto local = std::make_shared<obs::Histogram>();
    obs::Histogram* registry =
        timers->record_metrics
            ? &obs::Registry::global().histogram("stream/stage_fire_ns/" +
                                                 name)
            : nullptr;
    timers->local.push_back(local);
    spec.add_process(name, [make = std::move(make), local, registry]() {
      return std::make_unique<TimedProcess>(make(), local, registry);
    });
  };

  add("SRC", [config]() {
    return std::make_unique<SampleSource>("SRC", config.seed, 0);
  });
  for (std::size_t b = 0; b < config.branches; ++b) {
    for (std::size_t k = 0; k < config.fir_stages; ++k) {
      const std::string name = fir_name(b, k);
      add(name, [name, taps]() {
        return std::make_unique<FirFilter>(name, taps);
      });
    }
    const std::string gain = gain_name(b), qnt = qnt_name(b),
                      agc = agc_name(b), snk = snk_name(b);
    // One agc_period drives both ends of the gain cadence.
    add(gain, [gain, period = config.agc_period]() {
      return std::make_unique<GainStage>(gain, period);
    });
    add(qnt, [qnt]() { return std::make_unique<Quantizer>(qnt); });
    add(agc, [agc, period = config.agc_period, target = config.agc_target]() {
      return std::make_unique<AgcControl>(agc, period, target);
    });
    add(snk, [snk, config]() {
      return std::make_unique<StreamSink>(snk, config.tokens, config.sink);
    });

    spec.add_channel("SRC", "out", fir_name(b, 0), "in");
    for (std::size_t k = 0; k + 1 < config.fir_stages; ++k)
      spec.add_channel(fir_name(b, k), "out", fir_name(b, k + 1), "in");
    spec.add_channel(fir_name(b, config.fir_stages - 1), "out", gain,
                     "sample");
    spec.add_channel(gain, "out", qnt, "in");
    spec.add_channel(qnt, "out", snk, "in");
    spec.add_channel(qnt, "mag", agc, "mag");
    spec.add_channel(agc, "gain", gain, "gain");

    // Forward relay stations on the acyclic path only — the GAIN→QNT→AGC
    // links are inside the feedback loop, where extra stations would move
    // the K/(K+n) bound the harness certifies.
    if (config.forward_rs > 0) {
      spec.set_connection_rs("SRC-" + fir_name(b, 0), config.forward_rs);
      for (std::size_t k = 0; k + 1 < config.fir_stages; ++k)
        spec.set_connection_rs(fir_name(b, k) + "-" + fir_name(b, k + 1),
                               config.forward_rs);
      spec.set_connection_rs(fir_name(b, config.fir_stages - 1) + "-" + gain,
                             config.forward_rs);
      spec.set_connection_rs(qnt + "-" + snk, config.forward_rs);
    }
    if (config.feedback_rs > 0)
      spec.set_connection_rs(agc + "-" + gain, config.feedback_rs);
  }
  return spec;
}

/// Generous cycle budget: worst case is WP1 paying the full loop latency
/// (3 + feedback_rs)/3 cycles per token, plus pipeline fill, doubled.
std::uint64_t default_max_cycles(const StreamGraphConfig& config) {
  const std::uint64_t per_token =
      2 + (static_cast<std::uint64_t>(config.feedback_rs) + 2) / 3;
  const std::uint64_t fill =
      4 * (config.fir_stages + 4) *
      (static_cast<std::uint64_t>(config.forward_rs) + 4);
  return 4096 + fill + 2 * config.tokens * per_token;
}

void fill_latency(StageLoad& load, const obs::Histogram& histogram) {
  load.fire_count = histogram.count();
  load.fire_p50_ns = histogram.percentile(50);
  load.fire_p99_ns = histogram.percentile(99);
  load.fire_mean_ns = histogram.mean();
}

void flush_metrics(const HarnessResult& result) {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("stream/runs").inc();
  registry.counter("stream/tokens/processed").add(result.tokens);
  registry.counter("stream/tokens/discarded").add(result.discarded_tokens);
  registry.counter("stream/cycles").add(result.cycles);
  registry.counter("stream/backpressure/input_stalls")
      .add(result.input_stalls);
  registry.counter("stream/backpressure/output_stalls")
      .add(result.output_stalls);
  registry.gauge("stream/last_run/tokens_per_sec")
      .set(static_cast<std::int64_t>(result.tokens_per_sec));
  for (const StageLoad& stage : result.stages) {
    registry.counter("stream/stage/" + stage.name + "/firings")
        .add(stage.firings);
    registry.counter("stream/stage/" + stage.name + "/input_stalls")
        .add(stage.input_stalls);
    registry.counter("stream/stage/" + stage.name + "/output_stalls")
        .add(stage.output_stalls);
  }
}

}  // namespace

void validate_graph_config(const StreamGraphConfig& config) {
  WP_REQUIRE(config.tokens >= 1, "stream graph needs tokens >= 1");
  WP_REQUIRE(config.fir_stages >= 1 && config.fir_stages <= 256,
             "fir_stages must be in [1, 256]");
  WP_REQUIRE(config.branches >= 1 && config.branches <= 256,
             "branches must be in [1, 256]");
  WP_REQUIRE(config.feedback_rs >= 0 && config.forward_rs >= 0,
             "relay station counts must be non-negative");
  WP_REQUIRE(config.agc_period >= 1, "AGC period must be >= 1");
  WP_REQUIRE(std::isfinite(config.agc_target) && config.agc_target > 0 &&
                 config.agc_target < 32768.0,
             "AGC target must be positive, finite and inside 16.16 range");
  WP_REQUIRE(!config.fir.empty(), "FIR needs at least one tap");
  for (const double tap : config.fir)
    WP_REQUIRE(std::isfinite(tap) && tap >= -32768.0 && tap < 32768.0,
               "FIR tap outside the representable 16.16 range");
}

wp::SystemSpec make_stream_graph(const StreamGraphConfig& config) {
  return build_graph(config, nullptr);
}

const char* run_mode_name(RunMode mode) {
  switch (mode) {
    case RunMode::kGolden: return "golden";
    case RunMode::kWp1: return "wp1";
    case RunMode::kWp2: return "wp2";
  }
  return "unknown";
}

HarnessResult run_stream_graph(const StreamGraphConfig& config,
                               const HarnessOptions& options) {
  WP_SPAN("stream/run_graph");
  WP_REQUIRE(options.fifo_capacity >= 1, "FIFO capacity must be >= 1");

  StageTimers timers;
  timers.record_metrics = options.record_metrics;
  const wp::SystemSpec spec =
      build_graph(config, options.time_stages ? &timers : nullptr);
  const std::vector<std::string>& names = spec.process_names();
  const std::uint64_t max_cycles =
      options.max_cycles != 0 ? options.max_cycles
                              : default_max_cycles(config);

  HarnessResult result;
  result.mode = options.mode;
  result.sink_digests.reserve(config.branches);
  result.sink_counts.reserve(config.branches);
  auto record_sink = [&](const Process& process) {
    const auto& sink = dynamic_cast<const StreamSink&>(unwrap(process));
    WP_ENSURE(sink.count() == config.tokens,
              "sink halted with an unexpected sample count");
    result.sink_digests.push_back(sink.digest());
    result.sink_counts.push_back(sink.count());
  };

  const std::uint64_t wall_start = obs::now_ns();

  if (options.mode == RunMode::kGolden) {
    GoldenSim golden(spec, false);
    result.cycles = golden.run_until_halt(max_cycles);
    WP_ENSURE(golden.halted(),
              "stream harness exhausted its cycle budget before the sinks "
              "halted — raise max_cycles; refusing to report a truncated "
              "run");
    for (const std::string& name : names) {
      StageLoad load;
      load.name = name;
      load.firings = result.cycles;  // golden: every stage, every cycle
      result.stages.push_back(std::move(load));
    }
    for (std::size_t b = 0; b < config.branches; ++b)
      record_sink(golden.process(snk_name(b)));
  } else {
    ShellOptions shell;
    shell.use_oracle = options.mode == RunMode::kWp2;
    shell.fifo_capacity = options.fifo_capacity;
    LidSystem lid = build_lid(spec, shell, false);

    // Only the sinks halt in a stream graph: wait for all of them, so each
    // branch holds exactly `tokens` samples and digests compare.
    result.cycles = lid.network->run(max_cycles, config.branches);
    bool all_halted = true;
    for (std::size_t b = 0; b < config.branches; ++b)
      all_halted = all_halted && lid.shells.at(snk_name(b))->halted();
    WP_ENSURE(all_halted,
              "stream harness exhausted its cycle budget before every sink "
              "halted — raise max_cycles; refusing to report a truncated "
              "run");

    for (const std::string& name : names) {
      const ShellStats& stats = lid.shells.at(name)->stats();
      StageLoad load;
      load.name = name;
      load.firings = stats.firings;
      load.input_stalls = stats.stalls_input;
      load.output_stalls = stats.stalls_output;
      load.discarded_tokens = stats.discarded_tokens;
      result.input_stalls += stats.stalls_input;
      result.output_stalls += stats.stalls_output;
      result.discarded_tokens += stats.discarded_tokens;
      result.stages.push_back(std::move(load));
    }
    for (std::size_t b = 0; b < config.branches; ++b)
      record_sink(lid.shells.at(snk_name(b))->process());
  }

  const std::uint64_t wall_ns = obs::now_ns() - wall_start;
  for (const std::uint64_t count : result.sink_counts)
    result.tokens += count;
  result.digest = kDigestSeed;
  for (const std::uint64_t digest : result.sink_digests)
    result.digest = hash_combine(result.digest, digest);
  result.wall_ms = static_cast<double>(wall_ns) / 1e6;
  result.tokens_per_sec =
      wall_ns == 0 ? 0.0
                   : static_cast<double>(result.tokens) * 1e9 /
                         static_cast<double>(wall_ns);

  for (std::size_t i = 0; i < timers.local.size(); ++i)
    fill_latency(result.stages[i], *timers.local[i]);
  if (options.record_metrics) flush_metrics(result);
  return result;
}

}  // namespace wp::stream
