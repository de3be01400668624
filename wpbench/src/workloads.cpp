// The four workloads of the wirepipe benchmark.
//
// Every input is generated from the run's seed; the library only ever
// sees the generated requests. Each workload cycles a fixed pool of
// requests in a closed loop, so its simulated outputs (floorplan
// throughput, area, stream cycles, the results digest) are a function of
// the seed alone, however many passes a machine manages in the measured
// time. Every reply after the first pass must equal the first pass's
// reply for the same request.
//
// Untraced runs report the end-to-end metrics. Traced runs interleave
// untraced requests (the baseline for the trace overhead) with traced
// ones that record spans around each call into a layer, from which the
// per-layer metrics are computed; interleaving keeps host-speed drift out
// of the comparison.
#include <algorithm>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include <unistd.h>

#include "bench.hpp"
#include "eval/evaluate.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/model.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/throughput_engine.hpp"
#include "stream/harness.hpp"
#include "svc/eval_client.hpp"
#include "svc/protocol.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wpbench {

namespace {

using wp::eval::EvalReply;
using wp::eval::EvalRequest;
using wp::eval::FloorplanJob;
using wp::eval::FloorplanResult;

/// A measured loop never runs longer than this, whatever --seconds asks,
/// so a run always ends within three minutes.
constexpr double kMaxLoopSeconds = 120.0;
/// Set-up runs this many times before the measured loop...
constexpr int kSetupRepeats = 5;
/// ...and once more every this many seconds of it (in-process workloads).
constexpr double kSetupEverySeconds = 1.0;

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Digest of the trajectory-defined fields of a floorplan reply. Oracle
/// path counters (engine_incremental/engine_fallbacks) are left out: a
/// speed-only change to the oracle may move them without changing any
/// result.
std::uint64_t floorplan_digest(std::uint64_t state, const FloorplanResult& r) {
  for (const double v : {r.area, r.wirelength, r.cost, r.throughput})
    state = wp::hash_combine(state, bits_of(v));
  state = wp::hash_combine(state, static_cast<std::uint64_t>(r.total_rs));
  state = wp::hash_combine(state, static_cast<std::uint64_t>(r.accepted_moves));
  return wp::hash_combine(state, static_cast<std::uint64_t>(r.evaluations));
}

double seconds_since(std::uint64_t start_ns) { return ms_since(start_ns) / 1e3; }

/// Untraced closed-loop timings of one measured phase.
struct LoopTimes {
  std::uint64_t start_ns = now_ns();
  Samples latency_ms;
  double elapsed_s = 0.0;
  std::uint64_t requests = 0;

  /// One measured call that started at `t0`, ended now and completed
  /// `count` requests.
  void record(std::uint64_t t0, std::uint64_t count) {
    latency_ms.add(ms_since(t0));
    requests += count;
  }

  void absorb(const LoopTimes& other) {
    for (double v : other.latency_ms.values) latency_ms.add(v);
    requests += other.requests;
  }
};

/// Times a workload's set-up. It runs kSetupRepeats times on
/// construction and again whenever tick() finds kSetupEverySeconds gone
/// since the last time, between measured requests, so the reported median
/// samples the host over the whole run, as the request latencies do, not
/// only over its first moments.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup)
      : setup_(std::move(setup)) {
    for (int r = 0; r < kSetupRepeats; ++r) run();
  }

  void tick() {
    if (seconds_since(last_ns_) >= kSetupEverySeconds) run();
  }

  const Samples& samples() const { return samples_; }

 private:
  void run() {
    const std::uint64_t t0 = now_ns();
    setup_();
    samples_.add(seconds_since(t0));
    last_ns_ = now_ns();
  }

  std::function<void()> setup_;
  Samples samples_;
  std::uint64_t last_ns_ = 0;
};

void report_setup(Report& report, const Samples& setup_s) {
  report.distributions["setup_s"] = setup_s;
  report.metric("setup_s", setup_s.median(), "s", setup_s.count());
}

/// End-to-end timings of one measured loop. Gated: the 1st-percentile
/// latency, which reads the speed of the code in the run's quietest
/// moments and so stays put when a shared host slows whole stretches of a
/// run down. Reported beside it, with units and sample counts: the median,
/// the workload's tail percentile (the highest that leaves about ten
/// samples beyond it in a full-length run) and the mean rate.
void report_timing(Report& report, const LoopTimes& times, int tail_pct) {
  const Samples& lat = times.latency_ms;
  report.distributions["latency_ms"] = lat;
  report.metric("latency_p1_ms", lat.percentile(1.0), "ms", lat.count());
  report.info("latency_p50_ms", lat.median(), "ms", lat.count());
  report.info("latency_p" + std::to_string(tail_pct) + "_ms",
              lat.percentile(tail_pct), "ms", lat.count());
  report.info("requests_per_s",
              static_cast<double>(times.requests) / times.elapsed_s, "1/s",
              times.requests);
}

// --------------------------------------------------- floorplan layer replay

/// Per-request counts of one traced floorplan replay (the times come
/// from its spans).
struct ReplayFigures {
  int evaluations = 0;
  int accepted = 0;
  int oracle_queries = 0;
  int memo_hits = 0;
  std::uint64_t engine_queries = 0;
  std::uint64_t engine_incremental = 0;
};

/// Replays eval::evaluate's floorplan path through the public layer calls
/// — gen::generate_topology + dress_topology, a private
/// graph::ThroughputEngine, fplan::anneal, fplan::rs_demand, the final
/// engine query — with a span around each call (none when `tracer` is
/// null). fplan::total_wirelength runs on the annealed placement as well.
/// The returned result must equal evaluate()'s reply for the same job.
FloorplanResult replay_floorplan(const FloorplanJob& job, Tracer* tracer,
                                 std::size_t root, ReplayFigures* figures) {
  std::optional<SpanScope> build_span(std::in_place, tracer, "gen.build",
                                      root);
  wp::Rng rng(job.seed);
  const wp::graph::Digraph topology =
      wp::gen::generate_topology(job.topology, rng);
  const wp::gen::GeneratedSystem sys =
      wp::gen::dress_topology(topology, job.system, rng);
  wp::graph::Digraph base = topology;
  for (wp::graph::EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;
  wp::graph::ThroughputEngine engine(std::move(base));
  build_span.reset();

  wp::fplan::AnnealOptions options = job.anneal.to_options();
  options.throughput_fn = nullptr;
  options.throughput_engine = &engine;
  wp::fplan::AnnealResult annealed;
  {
    const SpanScope span(tracer, "floorplan.anneal", root);
    annealed = wp::fplan::anneal(sys.instance, options);
    if (tracer != nullptr) {
      tracer->add_synthetic("floorplan.pack", span.index(),
                            static_cast<std::uint64_t>(annealed.pack_ms * 1e6));
      tracer->add_synthetic(
          "graph.oracle", span.index(),
          static_cast<std::uint64_t>(annealed.throughput_ms * 1e6));
    }
  }

  FloorplanResult result;
  result.area = annealed.area;
  result.wirelength = annealed.wirelength;
  result.cost = annealed.cost;
  result.accepted_moves = annealed.accepted_moves;
  result.evaluations = annealed.evaluations;

  std::vector<std::pair<std::string, int>> demand;
  {
    const SpanScope span(tracer, "floorplan.rs_demand", root);
    demand = wp::fplan::rs_demand(sys.instance, annealed.placement,
                                  options.delay_model);
  }
  for (const auto& [connection, rs] : demand) {
    (void)connection;
    result.total_rs += rs;
  }
  {
    const SpanScope span(tracer, "floorplan.wirelength", root);
    (void)wp::fplan::total_wirelength(sys.instance, annealed.placement);
  }
  {
    const SpanScope span(tracer, "graph.score", root);
    result.throughput = engine.throughput(demand);
  }
  result.engine_incremental = engine.stats().incremental();
  result.engine_fallbacks = engine.stats().fallbacks;

  figures->evaluations = annealed.evaluations;
  figures->accepted = annealed.accepted_moves;
  figures->oracle_queries = annealed.throughput_evals;
  figures->memo_hits = annealed.throughput_cache_hits;
  figures->engine_queries = engine.stats().queries;
  figures->engine_incremental = engine.stats().incremental();
  return result;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Samples find_or_empty(const std::map<std::string, Samples>& by_name,
                      const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? Samples{} : it->second;
}

/// Per-layer metrics of the floorplan path from a set of traced replays.
void report_floorplan_layers(Report& report, const Tracer& tracer,
                             const std::string& kind,
                             const std::vector<ReplayFigures>& figures) {
  const std::map<std::string, Samples> self = tracer.self_ms(kind);
  const Samples total = tracer.request_ms(kind);
  auto self_of = [&self](const std::string& name) {
    return find_or_empty(self, name);
  };
  const Samples pack = self_of("floorplan.pack");
  const Samples oracle = self_of("graph.oracle");
  const Samples cost = self_of("floorplan.anneal");
  const Samples rs_demand = self_of("floorplan.rs_demand");
  const Samples wirelength = self_of("floorplan.wirelength");
  Samples anneal_ms, pack_share, oracle_share, evals, accept, us_per_eval,
      queries, memo, incremental, query_us, rs_us, wl_us;
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const ReplayFigures& f = figures[i];
    const double anneal = cost.values[i] + pack.values[i] + oracle.values[i];
    anneal_ms.add(anneal);
    pack_share.add(ratio(pack.values[i], total.values[i]));
    oracle_share.add(ratio(oracle.values[i], total.values[i]));
    evals.add(f.evaluations);
    accept.add(ratio(f.accepted, f.evaluations));
    us_per_eval.add(ratio(anneal * 1e3, f.evaluations));
    queries.add(f.oracle_queries);
    memo.add(ratio(f.memo_hits, f.oracle_queries + f.memo_hits));
    incremental.add(ratio(static_cast<double>(f.engine_incremental),
                          static_cast<double>(f.engine_queries)));
    query_us.add(ratio(oracle.values[i] * 1e3, f.oracle_queries));
    rs_us.add(rs_demand.values[i] * 1e3);
    wl_us.add(wirelength.values[i] * 1e3);
  }
  const std::size_t n = figures.size();
  report.metric("gen.build_ms", self_of("gen.build").median(), "ms", n);
  report.metric("floorplan.anneal_ms", anneal_ms.median(), "ms", n);
  report.metric("floorplan.pack_ms", pack.median(), "ms", n);
  report.metric("floorplan.pack_share", pack_share.median(), "ratio", n);
  report.metric("floorplan.cost_ms", cost.median(), "ms", n);
  report.metric("floorplan.rs_demand_us", rs_us.median(), "us", n);
  report.metric("floorplan.wirelength_us", wl_us.median(), "us", n);
  report.metric("floorplan.evals", evals.median(), "count", n);
  report.metric("floorplan.accept_ratio", accept.median(), "ratio", n);
  report.metric("floorplan.us_per_eval", us_per_eval.median(), "us", n);
  report.metric("graph.oracle_ms", oracle.median(), "ms", n);
  report.metric("graph.oracle_share", oracle_share.median(), "ratio", n);
  report.metric("graph.oracle_queries", queries.median(), "count", n);
  report.metric("graph.memo_hit_ratio", memo.median(), "ratio", n);
  report.metric("graph.incremental_ratio", incremental.median(), "ratio", n);
  report.metric("graph.query_us", query_us.median(), "us", n);
}

/// Traced run epilogue shared by every workload: summary table, span file,
/// unattributed remainder and trace overhead.
void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  const std::vector<std::string>& kinds,
                  const std::string& measured_kind, double untraced_p50_ms) {
  const double traced_p50 = tracer.request_ms(measured_kind).median();
  const double overhead = ratio(traced_p50, untraced_p50_ms) - 1.0;
  const Samples unattributed = find_or_empty(tracer.self_ms(measured_kind),
                                            "bench.unattributed");
  report.metric("bench.unattributed_ms", unattributed.median(), "ms",
                unattributed.count());
  report.metric("bench.trace_overhead", overhead, "ratio",
                tracer.request_ms(measured_kind).count());
  report.span_file = options.out_dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".spans.jsonl";
  tracer.write_jsonl(report.span_file);
  report.summary = summary_table(tracer, kinds, overhead);
  report.check("layer self times add up to each request",
               tracer.max_additivity_error_ns() == 0,
               std::to_string(tracer.max_additivity_error_ns()) +
                   " ns largest error");
}

// ------------------------------------------------------- anneal workloads

struct AnnealShape {
  bool throughput_driven = false;
  std::size_t pool = 0;
};

/// The anneals run a tenth (area) or an eighth (throughput) of 20,000- and
/// 4,000-iteration schedules with the cooling rate raised to match, so each
/// request covers the same temperature range in ~0.1 s. Short requests are
/// what lets the low latency percentile find the host's quiet moments: a
/// one-second anneal never runs entirely inside one.
constexpr double kAreaCooling = 0.995;        // 0.9995^10
constexpr double kThroughputCooling = 0.996;  // 0.9995^8

/// Pool request `index`: the instance (topology and block extents, both
/// drawn from job.seed) is a fixed sample, the same for every run seed, so
/// runs with different seeds do comparable work; the run seed picks each
/// request's annealing seed.
FloorplanJob anneal_job(const AnnealShape& shape, bool smoke,
                        std::size_t index, wp::Rng& rng) {
  FloorplanJob job;
  job.system.build_netlist = false;  // floorplan views only
  job.seed = 1000 + index;
  job.anneal.seed = rng();
  if (shape.throughput_driven) {
    // BA-128, the ensemble's throughput-driven objective, hot schedule.
    job.topology.family = wp::gen::TopologyFamily::kBarabasiAlbert;
    job.topology.num_nodes = smoke ? 24 : 128;
    job.anneal.iterations = smoke ? 100 : 500;
    job.anneal.cooling = kThroughputCooling;
    job.anneal.weight_wirelength = 0.05;
    job.anneal.weight_throughput = 50.0;
  } else {
    // 32x32 mesh, area + wirelength, pre-cooled schedule (reject-heavy).
    job.topology.family = wp::gen::TopologyFamily::kMesh;
    job.topology.num_nodes = smoke ? 64 : 1024;
    job.topology.mesh_rows = smoke ? 8 : 32;
    job.topology.mesh_cols = smoke ? 8 : 32;
    job.anneal.iterations = smoke ? 200 : 2000;
    job.anneal.cooling = kAreaCooling;
    job.anneal.initial_temperature = 0.05;
    job.anneal.weight_throughput = 0.0;
  }
  return job;
}

std::vector<EvalRequest> anneal_pool(const AnnealShape& shape,
                                     const Options& options) {
  wp::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
              (shape.throughput_driven ? 2 : 1));
  std::vector<EvalRequest> pool;
  const std::size_t n = options.smoke ? 2 : shape.pool;
  for (std::size_t i = 0; i < n; ++i)
    pool.emplace_back(anneal_job(shape, options.smoke, i, rng));
  return pool;
}

/// What the traced anneal loop collects besides the spans.
struct AnnealTrace {
  Tracer tracer;
  std::vector<ReplayFigures> figures;  ///< one per traced replay
  Samples untraced_replay_ms;          ///< the same replays without spans
  std::uint64_t mismatches = 0;
};

/// One closed-loop caller evaluating the pool in order until `seconds`
/// have passed and every pool request ran at least once. First-pass
/// replies land in `first`; later replies are compared with them. With a
/// trace, each evaluate() is followed by two layer replays of the same
/// request, one with spans and one without (in alternating order), and
/// both must equal the reply; the trace overhead compares the two, so it
/// measures the spans on one code path and host drift cancels out.
LoopTimes anneal_loop(const std::vector<EvalRequest>& pool, double seconds,
                      std::vector<std::optional<FloorplanResult>>& first,
                      Report& report, const std::string& kind,
                      SetupSampler& setup, AnnealTrace* trace) {
  LoopTimes times;
  const std::uint64_t start = times.start_ns;
  for (std::size_t k = 0;; ++k) {
    const double elapsed = seconds_since(start);
    if ((k >= pool.size() && elapsed >= seconds) ||
        elapsed >= kMaxLoopSeconds)
      break;
    setup.tick();
    const std::size_t i = k % pool.size();
    const std::uint64_t t0 = now_ns();
    const EvalReply reply = wp::eval::evaluate(pool[i], {});
    times.record(t0, 1);
    ++report.attempted;
    const bool ok =
        reply.ok() && reply.kind == wp::eval::ReplyKind::kFloorplan;
    if (!ok) {
      ++report.failed;
    } else if (!first[i].has_value()) {
      first[i] = reply.floorplan;
    } else if (!(reply.floorplan == *first[i])) {
      ++report.failed;
    }
    if (trace == nullptr) continue;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (k % 2 == 0);
      ReplayFigures f;
      FloorplanResult replay;
      if (traced) {
        const std::size_t root = trace->tracer.begin_request(kind);
        replay = replay_floorplan(pool[i].floorplan, &trace->tracer, root, &f);
        trace->tracer.close(root);
        trace->figures.push_back(f);
      } else {
        const std::uint64_t t1 = now_ns();
        replay = replay_floorplan(pool[i].floorplan, nullptr, 0, &f);
        trace->untraced_replay_ms.add(ms_since(t1));
      }
      ++report.attempted;
      if (!ok || !(replay == reply.floorplan)) {
        ++report.failed;
        ++trace->mismatches;
      }
    }
  }
  times.elapsed_s = seconds_since(start);
  return times;
}

Report run_anneal(const Options& options, const AnnealShape& shape) {
  Report report;
  // Set-up: generate the request pool and warm up with one full-size
  // request (the next pool request each time).
  std::vector<EvalRequest> pool;
  std::size_t warm = 0;
  SetupSampler setup([&] {
    std::vector<EvalRequest> fresh = anneal_pool(shape, options);
    (void)wp::eval::evaluate(fresh[warm++ % fresh.size()], {});
    if (pool.empty()) pool = std::move(fresh);
  });

  std::vector<std::optional<FloorplanResult>> first(pool.size());
  const std::string kind = options.workload;
  AnnealTrace trace;
  const LoopTimes times =
      anneal_loop(pool, options.seconds, first, report, kind, setup,
                  options.trace ? &trace : nullptr);

  bool pool_done = true;
  std::uint64_t digest = wp::hash_string("floorplan");
  double throughput_sum = 0.0, area_sum = 0.0;
  std::int64_t total_rs = 0;
  for (const auto& r : first) {
    if (!r.has_value()) {
      pool_done = false;
      continue;
    }
    digest = floorplan_digest(digest, *r);
    throughput_sum += r->throughput;
    area_sum += r->area;
    total_rs += r->total_rs;
  }
  report.check("every pool request answered", pool_done,
               std::to_string(pool.size()) + " requests in the pool");
  report.results_digest = digest;
  const double n_pool = static_cast<double>(pool.size());
  report.simulate("floorplan_throughput", throughput_sum / n_pool,
                  "tokens/cycle", pool.size());
  report.simulate("floorplan_area_mm2", area_sum / n_pool, "mm2",
                  pool.size());
  report.simulate("total_rs", static_cast<double>(total_rs), "count",
                  pool.size());

  if (!options.trace) {
    // Reference check outside the measured loop: the first request
    // replayed through the layer calls equals evaluate()'s reply.
    ReplayFigures figures;
    const FloorplanResult replay =
        replay_floorplan(pool[0].floorplan, nullptr, 0, &figures);
    report.check("evaluate reply equals the layer replay",
                 first[0].has_value() && replay == *first[0], "request 0");
    report_setup(report, setup.samples());
    report_timing(report, times, 90);
    report.metric("peak_rss_mb", peak_rss_self_mb(), "MB", 1);
    return report;
  }

  report.check("evaluate replies equal the layer replays",
               trace.mismatches == 0,
               std::to_string(trace.figures.size() +
                              trace.untraced_replay_ms.count()) +
                   " replays, " + std::to_string(trace.mismatches) +
                   " mismatches");
  report_floorplan_layers(report, trace.tracer, kind, trace.figures);
  finish_trace(report, options, trace.tracer, {kind}, kind,
               trace.untraced_replay_ms.median());
  return report;
}

// ---------------------------------------------------------------- fabric

constexpr std::size_t kBatch = 16;
/// One batch in this many carries one medium request.
constexpr std::size_t kMediumEvery = 10;

FloorplanJob tiny_job(wp::Rng& rng) {
  FloorplanJob job;
  job.topology.family = wp::gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 9;
  job.seed = rng();
  job.anneal.seed = rng();
  job.anneal.iterations = 12;
  job.anneal.weight_throughput = 10.0;
  return job;
}

FloorplanJob medium_job(wp::Rng& rng) {
  FloorplanJob job;
  job.topology.family = wp::gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 16;
  job.seed = rng();
  job.anneal.seed = rng();
  job.anneal.iterations = 400;
  job.anneal.weight_throughput = 10.0;
  return job;
}

/// The fabric's request pool, batch by batch: every kMediumEvery-th batch
/// (from a seed-chosen offset) holds one medium request at a seed-chosen
/// position, the rest are tiny.
std::vector<EvalRequest> fabric_pool(const Options& options) {
  wp::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  const std::size_t batches = options.smoke ? 2 * kMediumEvery : 16 * kMediumEvery;
  const std::size_t offset = rng.below(kMediumEvery);
  std::vector<EvalRequest> pool;
  pool.reserve(batches * kBatch);
  for (std::size_t b = 0; b < batches; ++b) {
    const bool has_medium = b % kMediumEvery == offset;
    const std::size_t medium_at = rng.below(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      pool.emplace_back(has_medium && i == medium_at ? medium_job(rng)
                                                     : tiny_job(rng));
  }
  return pool;
}

std::size_t fabric_daemons() {
  // Half the cores (at least one, at most four): the client threads and
  // the rest of the machine keep the other half, which keeps the
  // fabric's figures steady from run to run.
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp<long>(cores / 2, 1, 4));
}

/// The daemon-side histogram of eval::evaluate time for floorplan requests.
const std::string kEvalLatencyHistogram =
    std::string("eval/latency_ns/") +
    wp::eval::request_kind_name(wp::eval::RequestKind::kFloorplanAnneal);

/// Totals of one daemon's scraped registry that the traced run diffs.
struct ServerTotals {
  double batch_ns_sum = 0.0;
  double eval_ns_sum = 0.0;
};

const wp::json::Value* histogram(const wp::json::Value& stats,
                                 const std::string& name) {
  const wp::json::Value* metrics = stats.find("metrics");
  if (metrics == nullptr) return nullptr;
  const wp::json::Value* histograms = metrics->find("histograms");
  return histograms == nullptr ? nullptr : histograms->find(name);
}

double histogram_field(const wp::json::Value& stats, const std::string& name,
                       const std::string& field) {
  const wp::json::Value* h = histogram(stats, name);
  const wp::json::Value* v = h == nullptr ? nullptr : h->find(field);
  return v == nullptr ? 0.0 : v->as_double();
}

ServerTotals scrape_totals(wp::svc::EvalClient& client) {
  const wp::json::Value stats = wp::json::Value::parse(client.stats_json());
  ServerTotals totals;
  totals.batch_ns_sum = histogram_field(stats, "svc/server/batch_ns", "sum");
  totals.eval_ns_sum =
      histogram_field(stats, kEvalLatencyHistogram, "sum");
  return totals;
}

/// Everything the client threads of one fabric phase produced.
struct FabricPhase {
  LoopTimes times;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Tracer> tracers;  ///< traced phase: one per client
  Samples request_bytes, reply_bytes;
};

/// C client threads, each with one outstanding batch on its own daemon
/// connection, until `seconds` have passed. Client c sends pool batches
/// c, c+C, c+2C, … (wrapping); every reply is compared with the
/// in-process reference reply of the same request. With `traced`, every
/// second batch of each client is traced instead of timed, so traced and
/// untraced batches interleave.
FabricPhase fabric_loop(wp::svc::WorkerFleet& fleet,
                        const std::vector<EvalRequest>& pool,
                        const std::vector<EvalReply>& reference,
                        double seconds, bool traced) {
  const std::size_t clients = fleet.workers();
  const std::size_t batches = pool.size() / kBatch;
  FabricPhase phase;
  phase.tracers.resize(clients);
  const std::uint64_t start = phase.times.start_ns;
  std::vector<LoopTimes> times(clients);
  std::vector<Samples> request_bytes(clients), reply_bytes(clients);
  std::vector<std::uint64_t> attempted(clients, 0), failed(clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      wp::svc::EvalClient& client = fleet.client(c);
      for (std::size_t j = c, n = 0;; j += clients, ++n) {
        const double elapsed = seconds_since(start);
        if (elapsed >= seconds || elapsed >= kMaxLoopSeconds) break;
        Tracer* tracer = traced && n % 2 == 1 ? &phase.tracers[c] : nullptr;
        const std::size_t b = j % batches;
        const std::vector<EvalRequest> batch(
            pool.begin() + static_cast<std::ptrdiff_t>(b * kBatch),
            pool.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatch));
        ServerTotals before;
        if (tracer != nullptr) before = scrape_totals(client);
        std::vector<EvalReply> replies;
        std::size_t root = 0, roundtrip = 0;
        if (tracer != nullptr) {
          root = tracer->begin_request("fabric-batch");
          roundtrip = tracer->open("svc.roundtrip", root);
        }
        const std::uint64_t t0 = now_ns();
        try {
          replies = client.evaluate(batch);
        } catch (const std::exception& e) {
          std::cerr << "wpbench: client " << c << ": " << e.what() << "\n";
          replies.clear();
        }
        const std::uint64_t t1 = now_ns();
        if (tracer != nullptr) {
          tracer->close(roundtrip);
          tracer->close(root);
        }
        attempted[c] += kBatch;
        if (replies.size() != kBatch) {
          failed[c] += kBatch;
          break;
        }
        for (std::size_t i = 0; i < kBatch; ++i) {
          const EvalReply& want = reference[b * kBatch + i];
          if (!replies[i].ok() || !(replies[i].floorplan == want.floorplan))
            ++failed[c];
        }
        if (tracer == nullptr) {
          times[c].latency_ms.add(static_cast<double>(t1 - t0) / 1e6);
          times[c].requests += kBatch;
          continue;
        }
        // Server-side time of this batch, from the daemon's own
        // histograms (one outstanding batch per connection, one client
        // per daemon, so the deltas belong to this batch alone).
        const ServerTotals after = scrape_totals(client);
        const std::size_t server = tracer->add_synthetic(
            "svc.server_batch", roundtrip,
            static_cast<std::uint64_t>(after.batch_ns_sum -
                                       before.batch_ns_sum));
        tracer->add_synthetic(
            "eval.evaluate", server,
            static_cast<std::uint64_t>(after.eval_ns_sum - before.eval_ns_sum));
        request_bytes[c].add(
            static_cast<double>(wp::svc::encode_request_batch(batch).size()));
        reply_bytes[c].add(
            static_cast<double>(wp::svc::encode_reply_batch(replies).size()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.times.elapsed_s = seconds_since(start);
  for (std::size_t c = 0; c < clients; ++c) {
    phase.times.absorb(times[c]);
    for (double v : request_bytes[c].values) phase.request_bytes.add(v);
    for (double v : reply_bytes[c].values) phase.reply_bytes.add(v);
    phase.attempted += attempted[c];
    phase.failed += failed[c];
  }
  return phase;
}

}  // namespace

Report run_anneal_area(const Options& options) {
  return run_anneal(options, AnnealShape{false, 16});
}

Report run_anneal_throughput(const Options& options) {
  return run_anneal(options, AnnealShape{true, 16});
}

Report run_fabric(const Options& options) {
  Report report;
  wp::svc::FleetOptions fleet_options;
  fleet_options.workers = fabric_daemons();
  fleet_options.evald_path = options.evald_path;
  fleet_options.threads_per_worker = 1;
  fleet_options.extra_args = {"--quiet"};

  // Set-up: build the pool, spawn and connect the daemons, send each one
  // warm-up batch. Repeated; every fleet but the last is shut down again.
  constexpr int kFleetSetups = 3;
  Samples setup_s;
  std::vector<EvalRequest> pool;
  std::unique_ptr<wp::svc::WorkerFleet> fleet;
  for (int r = 0; r < kFleetSetups; ++r) {
    if (fleet) fleet->stop();
    const std::uint64_t t0 = now_ns();
    pool = fabric_pool(options);
    fleet = std::make_unique<wp::svc::WorkerFleet>(fleet_options);
    fleet->start();
    // Warm-up: the first kMediumEvery batches, so each daemon has run a
    // medium request before the measured loop.
    const std::vector<EvalRequest> warm(
        pool.begin(), pool.begin() + kBatch * kMediumEvery);
    for (std::size_t c = 0; c < fleet->workers(); ++c)
      (void)fleet->client(c).evaluate(warm);
    setup_s.add(seconds_since(t0));
  }

  // Reference replies, in process, outside every timed region.
  const std::vector<EvalReply> reference = wp::eval::evaluate_batch(pool, {});
  std::uint64_t digest = wp::hash_string("fabric");
  double throughput_sum = 0.0, area_sum = 0.0;
  bool reference_ok = true;
  for (const EvalReply& reply : reference) {
    reference_ok = reference_ok && reply.ok();
    digest = floorplan_digest(digest, reply.floorplan);
    throughput_sum += reply.floorplan.throughput;
    area_sum += reply.floorplan.area;
  }
  report.check("in-process reference replies are all ok", reference_ok,
               std::to_string(pool.size()) + " requests");
  report.results_digest = digest;
  const double n_pool = static_cast<double>(pool.size());
  report.simulate("floorplan_throughput", throughput_sum / n_pool,
                  "tokens/cycle", pool.size());
  report.simulate("floorplan_area_mm2", area_sum / n_pool, "mm2",
                  pool.size());

  // Traced runs spend a quarter of the time on the untraced rate (for
  // svc.fabric_over_inprocess) and the rest alternating traced and
  // untraced batches.
  const double loop_seconds =
      options.trace ? options.seconds / 4 : options.seconds;
  FabricPhase untraced =
      fabric_loop(*fleet, pool, reference, loop_seconds, false);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  report.check("every fabric reply equals the in-process reply",
               untraced.failed == 0,
               std::to_string(untraced.attempted) + " replies compared");

  if (!options.trace) {
    fleet->stop();
    report_setup(report, setup_s);
    report_timing(report, untraced.times, 99);
    report.metric("peak_rss_mb",
                  std::max(peak_rss_self_mb(), peak_rss_children_mb()), "MB",
                  fleet_options.workers + 1);
    return report;
  }

  // The fabric's request mix in process: one thread per batch (eval.inproc)
  // and the in-process rate on as many threads as there are daemons.
  Samples inproc_ms;
  for (std::size_t b = 0; b < pool.size() / kBatch; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i)
      (void)wp::eval::evaluate(pool[b * kBatch + i], {});
    inproc_ms.add(ms_since(t0));
  }
  double inproc_rate = 0.0;
  {
    wp::ThreadPool threads(fleet_options.workers);
    std::uint64_t done = 0;
    const std::uint64_t t0 = now_ns();
    while (done == 0 || seconds_since(t0) < 1.0) {
      (void)wp::eval::evaluate_batch(pool, {}, &threads);
      done += pool.size();
    }
    inproc_rate = static_cast<double>(done) / seconds_since(t0);
  }
  const double fabric_rate = static_cast<double>(untraced.times.requests) /
                             untraced.times.elapsed_s;

  // Traced phase: spans on every second batch plus scraped server time.
  FabricPhase traced =
      fabric_loop(*fleet, pool, reference, options.seconds * 3 / 4, true);
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report.check("every traced-phase fabric reply equals the in-process reply",
               traced.failed == 0,
               std::to_string(traced.attempted) + " replies compared");
  Tracer tracer;
  for (const Tracer& t : traced.tracers) tracer.absorb(t);

  // Cumulative server histograms of the whole run, from every daemon.
  Samples server_batch_p50, queue_wait_p99, eval_p50;
  for (std::size_t c = 0; c < fleet->workers(); ++c) {
    const wp::json::Value stats =
        wp::json::Value::parse(fleet->client(c).stats_json());
    server_batch_p50.add(
        histogram_field(stats, "svc/server/batch_ns", "p50") / 1e6);
    queue_wait_p99.add(
        histogram_field(stats, "util/pool/task_wait_ns", "p99") / 1e3);
    eval_p50.add(
        histogram_field(stats, kEvalLatencyHistogram, "p50") / 1e3);
  }
  fleet->stop();

  // Layer replays of the request mix (gen vs floorplan vs graph).
  const std::string replay_kind = "fabric-replay";
  std::vector<ReplayFigures> figures;
  std::uint64_t mismatches = 0;
  const std::size_t replays = std::min<std::size_t>(pool.size(), 320);
  for (std::size_t i = 0; i < replays; ++i) {
    ReplayFigures f;
    const std::size_t root = tracer.begin_request(replay_kind);
    const FloorplanResult replay =
        replay_floorplan(pool[i].floorplan, &tracer, root, &f);
    tracer.close(root);
    figures.push_back(f);
    if (!(replay == reference[i].floorplan)) ++mismatches;
  }
  report.failed += mismatches;
  report.attempted += replays;
  report.check("evaluate replies equal the traced layer replays",
               mismatches == 0,
               std::to_string(replays) + " replays, " +
                   std::to_string(mismatches) + " mismatches");
  report_floorplan_layers(report, tracer, replay_kind, figures);

  const std::map<std::string, Samples> self = tracer.self_ms("fabric-batch");
  auto self_of = [&self](const std::string& name) {
    return find_or_empty(self, name);
  };
  const std::size_t n = tracer.request_ms("fabric-batch").count();
  report.metric("eval.inproc_ms", inproc_ms.median(), "ms", inproc_ms.count());
  report.metric("eval.server_latency_p50_us", eval_p50.median(), "us",
                eval_p50.count());
  report.metric("svc.server_batch_p50_ms", server_batch_p50.median(), "ms",
                server_batch_p50.count());
  report.metric("svc.transport_ms", self_of("svc.roundtrip").median(), "ms", n);
  report.metric("svc.queue_wait_p99_us", queue_wait_p99.median(), "us",
                queue_wait_p99.count());
  report.metric("svc.request_bytes", traced.request_bytes.median(), "bytes",
                traced.request_bytes.count());
  report.metric("svc.reply_bytes", traced.reply_bytes.median(), "bytes",
                traced.reply_bytes.count());
  report.metric("svc.fabric_over_inprocess", ratio(fabric_rate, inproc_rate),
                "ratio", 2);
  finish_trace(report, options, tracer, {"fabric-batch", replay_kind},
               "fabric-batch", traced.times.latency_ms.median());
  return report;
}

// ---------------------------------------------------------------- stream

namespace {

constexpr std::size_t kStreamPool = 4;

std::vector<wp::stream::StreamGraphConfig> stream_pool(const Options& options) {
  wp::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 4);
  std::vector<wp::stream::StreamGraphConfig> pool;
  for (std::size_t i = 0; i < kStreamPool; ++i) {
    // The two-branch AGC graph of bench_stream_load: 3 FIR stages per
    // branch, K = 16, feedback RS 2, forward RS 1. The sample source's
    // seed and the token count (within +-4%, which moves the pipeline-fill
    // share of the cycle count) vary with the run seed.
    wp::stream::StreamGraphConfig config;
    config.tokens = (options.smoke ? 500 : 9600) + 50 * rng.below(17);
    config.fir_stages = 3;
    config.branches = 2;
    config.agc_period = 16;
    config.feedback_rs = 2;
    config.forward_rs = 1;
    config.seed = rng();
    config.sink.keep_samples = false;  // stats-only sinks
    config.sink.tail_window = 0;
    pool.push_back(config);
  }
  return pool;
}

std::uint64_t stream_digest(std::uint64_t state,
                            const wp::stream::HarnessResult& r) {
  state = wp::hash_combine(state, r.digest);
  state = wp::hash_combine(state, r.cycles);
  state = wp::hash_combine(state, r.tokens);
  state = wp::hash_combine(state, r.input_stalls);
  state = wp::hash_combine(state, r.output_stalls);
  return wp::hash_combine(state, r.discarded_tokens);
}

}  // namespace

Report run_stream(const Options& options) {
  Report report;
  wp::stream::HarnessOptions wp2;
  wp2.mode = wp::stream::RunMode::kWp2;
  wp2.fifo_capacity = 16;

  // Set-up: build the config pool, build the first graph, warm up with
  // one full-size WP2 run.
  std::vector<wp::stream::StreamGraphConfig> pool;
  SetupSampler setup([&] {
    std::vector<wp::stream::StreamGraphConfig> fresh = stream_pool(options);
    (void)wp::stream::make_stream_graph(fresh.front());
    (void)wp::stream::run_stream_graph(fresh.front(), wp2);
    if (pool.empty()) pool = std::move(fresh);
  });

  // Golden digests, outside every timed region.
  std::vector<std::uint64_t> golden;
  {
    wp::stream::HarnessOptions golden_options;
    golden_options.mode = wp::stream::RunMode::kGolden;
    golden_options.record_metrics = false;
    for (const auto& config : pool)
      golden.push_back(
          wp::stream::run_stream_graph(config, golden_options).digest);
  }

  std::vector<std::optional<wp::stream::HarnessResult>> first(pool.size());
  auto run_one = [&](std::size_t i, const wp::stream::HarnessOptions& opts) {
    wp::stream::HarnessResult result = wp::stream::run_stream_graph(pool[i], opts);
    ++report.attempted;
    bool ok = result.digest == golden[i];
    if (!first[i].has_value()) {
      first[i] = result;
    } else {
      ok = ok && result.cycles == first[i]->cycles &&
           result.input_stalls == first[i]->input_stalls &&
           result.output_stalls == first[i]->output_stalls;
    }
    if (!ok) ++report.failed;
    return result;
  };

  // Traced runs follow each untraced run with the same run inside spans
  // (same options, so the split describes the program itself): the
  // harness's own simulation time is the LID network's share of the call,
  // the rest is graph build and bookkeeping. The stage timers slow a run
  // down several-fold, so a third run with them on, outside every span and
  // every other figure, gives only the stage fire latency.
  wp::stream::HarnessOptions timed = wp2;
  timed.time_stages = true;
  Tracer tracer;
  const std::string kind = options.workload;
  Samples cycles, ns_per_cycle, in_stalls, out_stalls, fire_p99;
  LoopTimes times;
  std::uint64_t tokens = 0;
  for (std::size_t k = 0;; ++k) {
    const double elapsed = seconds_since(times.start_ns);
    if ((k >= pool.size() && elapsed >= options.seconds) ||
        elapsed >= kMaxLoopSeconds)
      break;
    setup.tick();
    const std::size_t i = k % pool.size();
    const std::uint64_t t0 = now_ns();
    const wp::stream::HarnessResult plain = run_one(i, wp2);
    times.record(t0, 1);
    tokens += plain.tokens;
    if (!options.trace) continue;

    cycles.add(static_cast<double>(plain.cycles));
    ns_per_cycle.add(plain.wall_ms * 1e6 / static_cast<double>(plain.cycles));
    in_stalls.add(static_cast<double>(plain.input_stalls));
    out_stalls.add(static_cast<double>(plain.output_stalls));
    const std::size_t root = tracer.begin_request(kind);
    {
      const SpanScope span(&tracer, "stream.run_graph", root);
      const wp::stream::HarnessResult result = run_one(i, wp2);
      tracer.add_synthetic("core.network_run", span.index(),
                           static_cast<std::uint64_t>(result.wall_ms * 1e6));
    }
    tracer.close(root);
    double worst = 0.0;
    for (const auto& stage : run_one(i, timed).stages)
      worst = std::max(worst, stage.fire_p99_ns);
    fire_p99.add(worst);
  }
  times.elapsed_s = seconds_since(times.start_ns);
  report.check("every WP2 digest equals its golden digest", report.failed == 0,
               std::to_string(report.attempted) + " runs");

  std::uint64_t digest = wp::hash_string("stream");
  double throughput_sum = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    digest = stream_digest(digest, *first[i]);
    throughput_sum += static_cast<double>(pool[i].tokens) /
                      static_cast<double>(first[i]->cycles);
  }
  const double n_pool = static_cast<double>(pool.size());
  report.results_digest = digest;
  report.simulate("cycles_per_token", n_pool / throughput_sum, "cycles",
                  pool.size());

  if (!options.trace) {
    report.info("tokens_per_s", static_cast<double>(tokens) / times.elapsed_s,
                "tokens/s", times.requests);
    report_setup(report, setup.samples());
    report_timing(report, times, 99);
    report.metric("peak_rss_mb", peak_rss_self_mb(), "MB", 1);
    return report;
  }

  const std::map<std::string, Samples> self = tracer.self_ms(kind);
  const std::size_t n = cycles.count();
  report.metric("stream.build_ms", self.at("stream.run_graph").median(), "ms",
                n);
  report.metric("stream.cycles", cycles.median(), "count", n);
  report.metric("stream.ns_per_cycle", ns_per_cycle.median(), "ns", n);
  report.metric("stream.input_stalls", in_stalls.median(), "count", n);
  report.metric("stream.output_stalls", out_stalls.median(), "count", n);
  report.metric("stream.stage_fire_p99_ns", fire_p99.median(), "ns", n);
  finish_trace(report, options, tracer, {kind}, kind,
               times.latency_ms.median());
  return report;
}

}  // namespace wpbench
