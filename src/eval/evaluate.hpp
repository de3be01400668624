// eval::evaluate — the executor behind every wire request.
//
// evaluate(request, context) runs any EvalRequest on the engine an
// in-process driver calls directly (sim::SimOracle for experiments and
// WP2 throughput, gen::run_sample_job for ensemble samples, the floorplan
// scoring half of an ensemble sample, stream::run_stream_graph), and never
// throws: an evaluation failure (contract violation, bad program,
// anything) comes back as a typed kError reply, so a batch keeps its
// remaining work. evaluate_batch fans a request vector over a ThreadPool
// and returns replies in input order. The service daemon serves both; the
// in-process drivers (proc::run_experiment, proc::optimal_config,
// gen::run_ensemble) do not pass through here.
//
// The unwrap_* helpers return the payload of a success reply and rethrow
// an error reply as ContractViolation.
#pragma once

#include <vector>

#include "eval/request.hpp"

namespace wp {
class ThreadPool;
}
namespace wp::sim {
class SimOracle;
}

namespace wp::eval {

/// Where an evaluation finds its caches: a null oracle means
/// sim::SimOracle::shared(), resolved lazily inside evaluate(). Ensemble
/// samples keep their netlist golden runs in the oracle's own GoldenCache
/// (netlist golden keys and oracle cpu keys live in distinct key spaces,
/// so one cache serves both).
struct EvalContext {
  sim::SimOracle* oracle = nullptr;
};

/// Evaluates one request. Never throws: failures become kError replies
/// (code kEvalFailed, message = the exception text).
EvalReply evaluate(const EvalRequest& request, const EvalContext& context);

/// Evaluates a batch on `pool` (nullptr = ThreadPool::shared()), replies
/// in input order. The context is shared across workers — both caches are
/// thread-safe.
std::vector<EvalReply> evaluate_batch(const std::vector<EvalRequest>& requests,
                                      const EvalContext& context,
                                      ThreadPool* pool = nullptr);

/// Success-payload accessors: rethrow kError replies as ContractViolation
/// (with the reply's message), require the matching kind otherwise.
const proc::ExperimentRow& unwrap_row(const EvalReply& reply);
double unwrap_throughput(const EvalReply& reply);
const FloorplanResult& unwrap_floorplan(const EvalReply& reply);
const gen::SampleResult& unwrap_sample(const EvalReply& reply);
const StreamResult& unwrap_stream(const EvalReply& reply);

}  // namespace wp::eval
