#include "proc/experiment.hpp"

#include <utility>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "graph/optimize.hpp"
#include "sim/oracle.hpp"
#include "util/thread_pool.hpp"

namespace wp::proc {

// The historical entry points are thin adapters over the ONE evaluation
// surface: they build an eval::EvalRequest and hand it to eval::evaluate —
// the identical call the service daemon makes for a decoded wire request.
// Programs travel as inline ProgramRefs (in-process only; the daemon path
// uses generator refs).

ExperimentRow run_experiment(const ProgramSpec& program,
                             const CpuConfig& cpu, const RsConfig& config,
                             const ExperimentOptions& options) {
  eval::ExperimentJob job;
  job.program = eval::ProgramRef::inlined(program);
  job.cpu = cpu;
  job.rs = config;
  job.options = options;
  return eval::unwrap_row(
      eval::evaluate(eval::EvalRequest(std::move(job)), {}));
}

std::vector<RsConfig> table1_sort_configs() {
  std::vector<RsConfig> configs;
  configs.push_back({"All 0 (ideal)", {}});
  for (const auto& name : cpu_connections())
    configs.push_back({"Only " + name, {{name, 1}}});
  RsConfig all1{"All 1 (no CU-IC)", {}};
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") all1.rs[name] = 1;
  configs.push_back(std::move(all1));
  return configs;
}

std::vector<RsConfig> table1_matmul_configs() {
  std::vector<RsConfig> configs = table1_sort_configs();
  // "All 1 and 2 <X>": every connection (except CU-IC) at 1, X raised to 2.
  for (const auto& name : cpu_connections()) {
    RsConfig cfg{"All 1 and 2 " + name, {}};
    for (const auto& other : cpu_connections())
      if (other != "CU-IC") cfg.rs[other] = 1;
    cfg.rs[name] = 2;  // CU-IC row: 2 on CU-IC plus 1 everywhere else
    configs.push_back(std::move(cfg));
  }
  RsConfig all2{"All 2 (no CU-IC)", {}};
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") all2.rs[name] = 2;
  configs.push_back(all2);
  RsConfig all2and1{"All 2 and 1 CU-RF", all2.rs};
  all2and1.rs["CU-RF"] = 1;
  configs.push_back(std::move(all2and1));
  return configs;
}

RsConfig optimal_config(const std::string& label, const ProgramSpec& program,
                        const CpuConfig& cpu,
                        const std::map<std::string, int>& demand,
                        const std::map<std::string, int>& relieved,
                        int budget) {
  // Every candidate the exhaustive search scores shares one golden run:
  // the oracle caches it on the first evaluation, so the optimizer's cost
  // is the WP2 simulations alone.
  eval::EvalContext context;  // default: the shared oracle
  wp::graph::RsOptimizeProblem problem;
  problem.demand = demand;
  problem.relieved = relieved;
  problem.max_relieved = budget;
  const auto result = wp::graph::optimize_rs_exhaustive(
      problem, [&](const wp::graph::RsAssignment& assignment) {
        eval::ThroughputJob job;
        job.program = eval::ProgramRef::inlined(program);
        job.cpu = cpu;
        job.rs = assignment;
        return eval::unwrap_throughput(
            eval::evaluate(eval::EvalRequest(std::move(job)), context));
      });
  return {label, result.assignment};
}

ParallelSweep::ParallelSweep(ProgramSpec program, CpuConfig cpu,
                             ExperimentOptions options)
    : program_(std::move(program)), cpu_(cpu), options_(options) {}

std::vector<ExperimentRow> ParallelSweep::run(
    const std::vector<RsConfig>& configs, ThreadPool* pool) const {
  eval::EvalContext context;
  context.oracle = oracle_;  // nullptr → evaluate resolves shared()
  std::vector<eval::EvalRequest> requests;
  requests.reserve(configs.size());
  for (const RsConfig& config : configs) {
    eval::ExperimentJob job;
    job.program = eval::ProgramRef::inlined(program_);
    job.cpu = cpu_;
    job.rs = config;
    job.options = options_;
    requests.emplace_back(std::move(job));
  }
  const std::vector<eval::EvalReply> replies =
      eval::evaluate_batch(requests, context, pool);
  std::vector<ExperimentRow> rows(configs.size());
  for (std::size_t i = 0; i < replies.size(); ++i)
    rows[i] = eval::unwrap_row(replies[i]);
  return rows;
}

std::vector<wp::graph::ThroughputReport> ParallelSweep::analyze(
    const std::vector<RsConfig>& configs, ThreadPool* pool) const {
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::shared();
  std::vector<wp::graph::ThroughputReport> reports(configs.size());
  workers.parallel_for(0, configs.size(), [&](std::size_t i) {
    reports[i] =
        wp::graph::analyze_throughput(make_cpu_graph_with_rs(configs[i].rs));
  });
  return reports;
}

}  // namespace wp::proc
