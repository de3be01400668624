// eval::evaluate — the ONE executor behind the ONE evaluation surface.
//
// evaluate(request, context) runs any EvalRequest and never throws: an
// evaluation failure (contract violation, bad program, anything) comes
// back as a typed kError reply, so batch callers — the in-process
// ParallelSweep as much as the daemon worker pool — keep their remaining
// work. evaluate_batch fans a request vector over a ThreadPool and
// returns replies in input order.
//
// The unwrap_* helpers are for adapters that preserve historical throwing
// behavior: they return the payload of a success reply and rethrow error
// replies as ContractViolation.
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
