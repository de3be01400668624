#include "eval/evaluate.hpp"

#include <exception>
#include <string>
#include <utility>

#include "floorplan/annealer.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::eval {

namespace {

/// Per-kind request counter + latency histogram, resolved once. They count
/// evaluate() calls only: the daemon's requests and in-process callers of
/// evaluate, not the proc and gen drivers, which call their engines
/// directly.
struct KindMetrics {
  obs::Counter& requests;
  obs::Histogram& latency_ns;
};

KindMetrics& kind_metrics(RequestKind kind) {
  obs::Registry& registry = obs::Registry::global();
  auto make = [&registry](RequestKind k) {
    const std::string name = request_kind_name(k);
    return KindMetrics{registry.counter("eval/requests/" + name),
                       registry.histogram("eval/latency_ns/" + name)};
  };
  static KindMetrics experiment = make(RequestKind::kExperiment);
  static KindMetrics throughput = make(RequestKind::kWp2Throughput);
  static KindMetrics floorplan = make(RequestKind::kFloorplanAnneal);
  static KindMetrics sample = make(RequestKind::kEnsembleSample);
  static KindMetrics stream_run = make(RequestKind::kStreamRun);
  switch (kind) {
    case RequestKind::kExperiment:
      return experiment;
    case RequestKind::kWp2Throughput:
      return throughput;
    case RequestKind::kFloorplanAnneal:
      return floorplan;
    case RequestKind::kEnsembleSample:
      return sample;
    case RequestKind::kStreamRun:
      return stream_run;
  }
  return experiment;  // unknown kinds fail below; attribute arbitrarily
}

EvalReply eval_experiment(const ExperimentJob& job, sim::SimOracle& oracle) {
  return EvalReply(oracle.run_experiment(job.program.materialize(), job.cpu,
                                         job.rs, job.options));
}

EvalReply eval_throughput(const ThroughputJob& job, sim::SimOracle& oracle) {
  return EvalReply(oracle.wp2_throughput(
      job.program.materialize(), job.cpu, job.rs,
      static_cast<std::size_t>(job.fifo_capacity)));
}

// The floorplan portion of the ensemble pipeline as a standalone request:
// generate → dress → gen::anneal_and_score (the same scoring half an
// ensemble sample runs). The reply reads no netlist, so the topology is
// dressed netlist-free whatever job.system.build_netlist says (and the
// netlist's port limits do not apply), and the topology moves into the
// scoring engine.
EvalReply eval_floorplan(const FloorplanJob& job) {
  Rng rng(job.seed);
  graph::Digraph topology = gen::generate_topology(job.topology, rng);
  gen::SystemConfig system = job.system;
  system.build_netlist = false;
  const gen::GeneratedSystem sys = gen::dress_topology(topology, system, rng);
  gen::SampleResult score;
  const fplan::AnnealResult annealed = gen::anneal_and_score(
      std::move(topology), sys.instance, job.anneal.to_options(), score);

  FloorplanResult fp;
  fp.area = score.area;
  fp.wirelength = score.wirelength;
  fp.cost = annealed.cost;
  fp.throughput = score.throughput;
  fp.total_rs = score.total_rs;
  fp.accepted_moves = annealed.accepted_moves;
  fp.evaluations = annealed.evaluations;
  fp.engine_incremental = score.engine_incremental;
  fp.engine_fallbacks = score.engine_fallbacks;
  return EvalReply(fp);
}

EvalReply eval_sample(const gen::SampleJob& job, sim::GoldenCache* cache) {
  return EvalReply(gen::run_sample_job(job, cache));
}

// A stream run served remotely: force stats-only sinks (the reply carries
// digests and counts, never samples — see StreamJob), run the harness, and
// project the deterministic core of the HarnessResult into the reply. The
// harness flushes its counters into the obs registry, so a daemon serving
// stream runs exposes stream/* through its stats scrape for free.
EvalReply eval_stream(const StreamJob& job) {
  stream::StreamGraphConfig config = job.graph;
  config.sink.keep_samples = false;
  config.sink.tail_window = 0;

  stream::HarnessOptions options;
  options.mode = job.mode;
  options.fifo_capacity = static_cast<std::size_t>(job.fifo_capacity);
  const stream::HarnessResult run = stream::run_stream_graph(config, options);

  StreamResult result;
  result.tokens = run.tokens;
  result.cycles = run.cycles;
  result.digest = run.digest;
  result.sink_digests = run.sink_digests;
  result.sink_counts = run.sink_counts;
  result.input_stalls = run.input_stalls;
  result.output_stalls = run.output_stalls;
  result.discarded_tokens = run.discarded_tokens;
  result.tokens_per_sec = run.tokens_per_sec;
  return EvalReply(std::move(result));
}

[[noreturn]] void unwrap_fail(const EvalReply& reply, ReplyKind wanted) {
  if (reply.kind == ReplyKind::kError)
    WP_CHECK(false, "evaluation failed: " + reply.error.message);
  WP_CHECK(false, std::string("reply kind mismatch: wanted ") +
                      std::to_string(static_cast<int>(wanted)) + ", got " +
                      std::to_string(static_cast<int>(
                          static_cast<ReplyKind>(reply.kind))));
  std::terminate();  // unreachable: WP_CHECK(false, ...) throws
}

}  // namespace

EvalReply evaluate(const EvalRequest& request, const EvalContext& context) {
  WP_SPAN("eval/evaluate");
  KindMetrics& metrics = kind_metrics(request.kind);
  metrics.requests.inc();
  const obs::ScopedTimer timer(metrics.latency_ns);
  try {
    sim::SimOracle& oracle =
        context.oracle != nullptr ? *context.oracle : sim::SimOracle::shared();
    switch (request.kind) {
      case RequestKind::kExperiment:
        return eval_experiment(request.experiment, oracle);
      case RequestKind::kWp2Throughput:
        return eval_throughput(request.throughput, oracle);
      case RequestKind::kFloorplanAnneal:
        return eval_floorplan(request.floorplan);
      case RequestKind::kEnsembleSample:
        return eval_sample(request.sample, &oracle.cache());
      case RequestKind::kStreamRun:
        return eval_stream(request.stream);
    }
    return EvalReply::make_error(
        ErrorCode::kMalformedRequest,
        "unknown request kind " +
            std::to_string(static_cast<int>(
                static_cast<RequestKind>(request.kind))));
  } catch (const std::exception& e) {
    obs::Registry::global().counter("eval/errors").inc();
    return EvalReply::make_error(ErrorCode::kEvalFailed, e.what());
  } catch (...) {
    obs::Registry::global().counter("eval/errors").inc();
    return EvalReply::make_error(ErrorCode::kEvalFailed,
                                 "non-standard exception");
  }
}

std::vector<EvalReply> evaluate_batch(const std::vector<EvalRequest>& requests,
                                      const EvalContext& context,
                                      ThreadPool* pool) {
  std::vector<EvalReply> replies(requests.size());
  if (pool == nullptr) pool = &ThreadPool::shared();
  pool->parallel_for(0, requests.size(), [&](std::size_t i) {
    replies[i] = evaluate(requests[i], context);
  });
  return replies;
}

const proc::ExperimentRow& unwrap_row(const EvalReply& reply) {
  if (reply.kind != ReplyKind::kExperiment)
    unwrap_fail(reply, ReplyKind::kExperiment);
  return reply.row;
}

double unwrap_throughput(const EvalReply& reply) {
  if (reply.kind != ReplyKind::kThroughput)
    unwrap_fail(reply, ReplyKind::kThroughput);
  return reply.throughput;
}

const FloorplanResult& unwrap_floorplan(const EvalReply& reply) {
  if (reply.kind != ReplyKind::kFloorplan)
    unwrap_fail(reply, ReplyKind::kFloorplan);
  return reply.floorplan;
}

const gen::SampleResult& unwrap_sample(const EvalReply& reply) {
  if (reply.kind != ReplyKind::kSample)
    unwrap_fail(reply, ReplyKind::kSample);
  return reply.sample;
}

const StreamResult& unwrap_stream(const EvalReply& reply) {
  if (reply.kind != ReplyKind::kStream) unwrap_fail(reply, ReplyKind::kStream);
  return reply.stream;
}

}  // namespace wp::eval
