#include "sim/oracle.hpp"

#include "graph/cycle_ratio.hpp"
#include "obs/trace.hpp"
#include "proc/blocks.hpp"
#include "proc/cpu.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::sim {

namespace {

/// The program's final-memory check on the DC process of one run. A
/// program without a verifier has nothing to check and passes.
bool check_result(const proc::ProgramSpec& program, const wp::Process& dc,
                  std::string* error) {
  if (!program.verify) return true;
  const auto* dcache = dynamic_cast<const proc::DcacheBlock*>(&dc);
  WP_CHECK(dcache != nullptr, "DC process is not a DcacheBlock");
  return program.verify(dcache->memory(), error);
}

/// Stable content digest of program text+data and every CpuConfig knob
/// that shapes a run. Two independently constructed but identical
/// ProgramSpecs (same generator, same parameters) share one record — which
/// also means the cached final-memory verdict assumes ProgramSpec::verify
/// is a pure function of (source, ram), as every program generator's is.
std::uint64_t program_digest(const proc::ProgramSpec& program,
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
  const std::uint64_t h =
      hash_combine(program_digest(program, cpu), max_cycles);
  return "cpu:" + program.name + ":" + hash_hex(h);
}

/// What one wire-pipelined run reports back to its caller.
struct Leg {
  std::uint64_t cycles = 0;  ///< halt cycle (or max_cycles)
  bool halted = false;
  bool equivalent = true;
  bool result_ok = true;
  std::string detail;  ///< first failure of this leg, if any
};

/// One WP leg: builds the LID system of `spec` (WP2 if `use_oracle`, WP1
/// otherwise), runs it to the halt, then checks the halt, equivalence
/// against `golden_trace` (skipped when null) and the final memory (when
/// `verify_result`). A check that reads state after the halt gets a
/// 256-cycle grace period so trailing stores drain; the returned cycle
/// count is the halt cycle either way.
Leg run_leg(const proc::ProgramSpec& program, const wp::SystemSpec& spec,
            bool use_oracle, std::size_t fifo_capacity,
            std::uint64_t max_cycles, const Trace* golden_trace,
            bool verify_result) {
  const std::string name = use_oracle ? "WP2" : "WP1";
  Leg leg;
  auto note = [&leg](const std::string& msg) {
    if (leg.detail.empty()) leg.detail = msg;
  };
  wp::ShellOptions shell;
  shell.use_oracle = use_oracle;
  shell.fifo_capacity = fifo_capacity;
  const bool record_trace = golden_trace != nullptr;
  wp::LidSystem lid = build_lid(spec, shell, record_trace);
  const bool reads_after_halt = record_trace || verify_result;
  leg.cycles = lid.run_until_halt(max_cycles, reads_after_halt ? 256 : 0);
  leg.halted = lid.network->halted(lid.shells.at("CU"));
  if (!leg.halted) note(name + " run did not halt within max_cycles");
  if (record_trace) {
    const auto eq = check_equivalence(*golden_trace, lid.trace);
    if (!eq.equivalent) {
      leg.equivalent = false;
      note(name + " not equivalent to golden: " + eq.detail);
    }
  }
  std::string error;
  if (verify_result &&
      !check_result(program, lid.network->process(lid.shells.at("DC")),
                    &error)) {
    leg.result_ok = false;
    note(name + " result check failed: " + error);
  }
  return leg;
}

}  // namespace

SimOracle::SimOracle() : cache_(kMaxCachedGoldens) {}

std::shared_ptr<const GoldenRecord> SimOracle::golden(
    const proc::ProgramSpec& program, const proc::CpuConfig& cpu,
    std::uint64_t max_cycles) {
  return cache_.get_or_run(golden_key(program, cpu, max_cycles), [&] {
    wp::GoldenSim sim(proc::make_cpu_system(program, cpu),
                      /*record_trace=*/true);
    GoldenRecord record;
    record.cycles = sim.run_until_halt(max_cycles);
    record.halted = sim.halted();
    WP_CHECK(record.halted, "golden run did not halt — raise max_cycles");
    std::string error;
    if (!check_result(program, sim.process("DC"), &error)) {
      record.result_ok = false;
      record.result_detail = "golden result check failed: " + error;
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

  // --- the two wire-pipelined systems, always simulated fresh -----------
  wp::SystemSpec spec = proc::make_cpu_system(program, cpu);
  spec.set_rs_map(config.rs);
  const Trace* golden_trace =
      options.check_equivalence ? &golden_record->trace : nullptr;
  for (const bool use_oracle : {false, true}) {
    const Leg leg = run_leg(program, spec, use_oracle, options.fifo_capacity,
                            options.max_cycles, golden_trace,
                            options.verify_result);
    (use_oracle ? row.wp2_cycles : row.wp1_cycles) = leg.cycles;
    (use_oracle ? row.wp2_equivalent : row.wp1_equivalent) = leg.equivalent;
    if (!leg.result_ok) row.result_ok = false;
    if (!leg.detail.empty()) note(leg.detail);
  }

  row.th_wp1 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp1_cycles);
  row.th_wp2 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp2_cycles);
  row.improvement = (row.th_wp2 - row.th_wp1) / row.th_wp1;
  row.static_wp1 =
      graph::min_cycle_ratio_howard(proc::make_cpu_graph_with_rs(config.rs))
          .ratio;
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
  wp::SystemSpec spec = proc::make_cpu_system(program, cpu);
  spec.set_rs_map(rs);
  const Leg leg = run_leg(program, spec, /*use_oracle=*/true, fifo_capacity,
                          max_cycles, /*golden_trace=*/nullptr,
                          /*verify_result=*/false);
  // A run cut off at the horizon has no throughput to report: the ratio
  // would only measure the horizon.
  WP_CHECK(leg.halted, "WP2 run did not halt within max_cycles");
  return static_cast<double>(golden_record->cycles) /
         static_cast<double>(leg.cycles);
}

SimOracle& SimOracle::shared() {
  static SimOracle oracle;
  return oracle;
}

}  // namespace wp::sim
