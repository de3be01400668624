#include "sim/oracle.hpp"

#include "graph/cycle_ratio.hpp"
#include "graph/throughput_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/blocks.hpp"
#include "proc/cpu.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::sim {

namespace {

const proc::DcacheBlock& dcache_of(const wp::Process& p) {
  const auto* dc = dynamic_cast<const proc::DcacheBlock*>(&p);
  WP_CHECK(dc != nullptr, "DC process is not a DcacheBlock");
  return *dc;
}

/// Stable content digest of program text+data and every CpuConfig knob
/// that shapes a run. Two independently constructed but identical
/// ProgramSpecs (same generator, same parameters) share one record — which
/// also means the cached final-memory verdict assumes ProgramSpec::verify
/// is a pure function of (source, ram), as every program generator's is.
std::uint64_t content_hash(const proc::ProgramSpec& program,
                           const proc::CpuConfig& cpu) {
  std::uint64_t h = hash_string(program.source);
  h = hash_combine(h, hash_bytes(program.ram.data(),
                                 program.ram.size() * sizeof(std::uint32_t)));
  h = hash_combine(h, static_cast<std::uint64_t>(cpu.multicycle));
  h = hash_combine(h, static_cast<std::uint64_t>(cpu.fetch_window));
  h = hash_combine(h, static_cast<std::uint64_t>(cpu.drain_firings));
  h = hash_combine(h, static_cast<std::uint64_t>(cpu.relax_squashed_fetches));
  return h;
}

std::string golden_key(const proc::ProgramSpec& program,
                       const proc::CpuConfig& cpu,
                       std::uint64_t max_cycles) {
  const std::uint64_t h = hash_combine(content_hash(program, cpu), max_cycles);
  return "cpu:" + program.name + ":" + hash_hex(h);
}

}  // namespace

SimOracle::SimOracle() : cache_(kMaxCachedGoldens) {}

SimOracle::~SimOracle() {
  // Spec-cache stats mirror into the registry at teardown — one flush per
  // oracle; the lookup path stays a plain mutex-guarded map.
  obs::Registry& registry = obs::Registry::global();
  SpecStats stats;
  {
    std::lock_guard<std::mutex> lock(spec_mutex_);
    stats = spec_stats_;
  }
  registry.counter("sim/oracle/spec_builds").add(stats.builds);
  registry.counter("sim/oracle/spec_reuses").add(stats.reuses);
}

std::shared_ptr<const wp::SystemSpec> SimOracle::system_spec(
    const proc::ProgramSpec& program, const proc::CpuConfig& cpu) {
  const std::string key =
      program.name + ":" + hash_hex(content_hash(program, cpu));
  std::lock_guard<std::mutex> lock(spec_mutex_);
  auto it = specs_.find(key);
  if (it != specs_.end()) {
    ++spec_stats_.reuses;
    return it->second;
  }
  ++spec_stats_.builds;
  auto spec =
      std::make_shared<const wp::SystemSpec>(proc::make_cpu_system(program, cpu));
  specs_.emplace(key, spec);
  return spec;
}

double SimOracle::static_bound(const std::map<std::string, int>& rs) {
  std::lock_guard<std::mutex> lock(static_mutex_);
  if (static_engine_ == nullptr)
    static_engine_ =
        std::make_unique<graph::ThroughputEngine>(proc::make_cpu_graph());
  return static_engine_->throughput({rs.begin(), rs.end()});
}

SimOracle::SpecStats SimOracle::spec_stats() const {
  std::lock_guard<std::mutex> lock(spec_mutex_);
  return spec_stats_;
}

std::shared_ptr<const GoldenRecord> SimOracle::golden(
    const proc::ProgramSpec& program, const proc::CpuConfig& cpu,
    std::uint64_t max_cycles) {
  return cache_.get_or_run(golden_key(program, cpu, max_cycles), [&] {
    const std::shared_ptr<const wp::SystemSpec> spec =
        system_spec(program, cpu);
    wp::GoldenSim sim(*spec, /*record_trace=*/true);
    GoldenRecord record;
    record.cycles = sim.run_until_halt(max_cycles);
    record.halted = sim.halted();
    WP_CHECK(record.halted, "golden run did not halt — raise max_cycles");
    if (program.verify) {
      std::string error;
      if (!program.verify(dcache_of(sim.process("DC")).memory(), &error)) {
        record.result_ok = false;
        record.result_detail = "golden result check failed: " + error;
      }
    }
    record.trace = sim.trace();
    record.fingerprint = trace_fingerprint(record.trace);
    return record;
  });
}

proc::ExperimentRow SimOracle::run_experiment(
    const proc::ProgramSpec& program, const proc::CpuConfig& cpu,
    const proc::RsConfig& config, const proc::ExperimentOptions& options) {
  WP_SPAN("sim/run_experiment");
  proc::ExperimentRow row;
  row.label = config.label;

  auto note = [&row](const std::string& msg) {
    if (row.detail.empty()) row.detail = msg;
  };

  // --- golden reference: one cached run per (program, cpu, horizon) -----
  const std::shared_ptr<const GoldenRecord> golden_record =
      golden(program, cpu, options.max_cycles);
  row.golden_cycles = golden_record->cycles;
  if (options.verify_result && !golden_record->result_ok) {
    row.result_ok = false;
    note(golden_record->result_detail);
  }

  // --- the two wire-pipelined systems: always simulated fresh (their
  // network state is per-run), but from the shared assembled declaration —
  wp::SystemSpec spec = *system_spec(program, cpu);
  spec.set_rs_map(config.rs);

  for (const bool oracle : {false, true}) {
    wp::ShellOptions shell;
    shell.use_oracle = oracle;
    shell.fifo_capacity = options.fifo_capacity;
    wp::LidSystem lid = build_lid(spec, shell, options.check_equivalence);
    const std::uint64_t cycles = lid.run_until_halt(options.max_cycles);
    const auto* cu = lid.shells.at("CU");
    if (!cu->halted()) {
      note(std::string(oracle ? "WP2" : "WP1") +
           " run did not halt within max_cycles");
    }
    if (options.check_equivalence) {
      const auto eq = check_equivalence(golden_record->trace, lid.trace);
      if (!eq.equivalent) {
        if (oracle)
          row.wp2_equivalent = false;
        else
          row.wp1_equivalent = false;
        note(std::string(oracle ? "WP2" : "WP1") +
             " not equivalent to golden: " + eq.detail);
      }
    }
    if (options.verify_result) {
      std::string error;
      if (!program.verify(dcache_of(lid.shells.at("DC")->process()).memory(),
                          &error)) {
        row.result_ok = false;
        note(std::string(oracle ? "WP2" : "WP1") +
             " result check failed: " + error);
      }
    }
    if (oracle)
      row.wp2_cycles = cycles;
    else
      row.wp1_cycles = cycles;
  }

  row.th_wp1 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp1_cycles);
  row.th_wp2 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp2_cycles);
  row.improvement = (row.th_wp2 - row.th_wp1) / row.th_wp1;
  row.static_wp1 = static_bound(config.rs);
  return row;
}

double SimOracle::wp2_throughput(const proc::ProgramSpec& program,
                                 const proc::CpuConfig& cpu,
                                 const std::map<std::string, int>& rs,
                                 std::size_t fifo_capacity) {
  WP_SPAN("sim/wp2_throughput");
  const std::uint64_t max_cycles = proc::ExperimentOptions{}.max_cycles;
  const std::shared_ptr<const GoldenRecord> golden_record =
      golden(program, cpu, max_cycles);
  wp::SystemSpec spec = *system_spec(program, cpu);
  spec.set_rs_map(rs);
  wp::ShellOptions shell;
  shell.use_oracle = true;
  shell.fifo_capacity = fifo_capacity;
  wp::LidSystem lid = build_lid(spec, shell, false);
  const std::uint64_t cycles = lid.run_until_halt(max_cycles, /*grace=*/0);
  // A run cut off at the horizon has no throughput to report: the ratio
  // would only measure the horizon.
  WP_CHECK(lid.shells.at("CU")->halted(),
           "WP2 run did not halt within max_cycles");
  return static_cast<double>(golden_record->cycles) /
         static_cast<double>(cycles);
}

SimOracle& SimOracle::shared() {
  static SimOracle oracle;
  return oracle;
}

}  // namespace wp::sim
