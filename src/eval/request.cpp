#include "eval/request.hpp"

#include <utility>

#include "proc/programs.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::eval {

namespace {

using wire::Reader;
using wire::WireError;
using wire::Writer;

// --------------------------------------------------------- small helpers

void encode_rs_map(Writer& w, const std::map<std::string, int>& rs) {
  w.u32(static_cast<std::uint32_t>(rs.size()));
  for (const auto& [name, count] : rs) {  // std::map: deterministic order
    w.str(name);
    w.i64(count);
  }
}

std::map<std::string, int> decode_rs_map(Reader& r) {
  std::map<std::string, int> rs;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    const std::int64_t value = r.i64();
    rs[std::move(name)] = static_cast<int>(value);
  }
  return rs;
}

// ----------------------------------------------------------- ProgramRef

void encode_program(Writer& w, const ProgramRef& program, bool for_hash) {
  w.u8(static_cast<std::uint8_t>(program.generator));
  if (program.generator == ProgramRef::Generator::kInline) {
    if (!for_hash)
      throw WireError(
          "inline ProgramSpec is not wire-serializable (its verify closure "
          "cannot cross a process); use a generator ProgramRef");
    // Hash mode: digest the program content. The verify closure is
    // excluded — it is assumed to be a pure function of (source, ram),
    // the same assumption sim::SimOracle's golden key already makes.
    w.str(program.inline_spec.name);
    w.str(program.inline_spec.source);
    w.u64(program.inline_spec.ram.size());
    for (const std::uint32_t word : program.inline_spec.ram) w.u32(word);
    return;
  }
  w.u64(program.size);
  w.u64(program.seed);
}

ProgramRef decode_program(Reader& r) {
  ProgramRef program;
  const std::uint8_t generator = r.u8();
  if (generator == 0)
    throw WireError("inline ProgramSpec cannot arrive over the wire");
  if (generator > static_cast<std::uint8_t>(ProgramRef::Generator::kPointerChase))
    throw WireError("unknown program generator tag");
  program.generator = static_cast<ProgramRef::Generator>(generator);
  program.size = r.u64();
  program.seed = r.u64();
  return program;
}

// --------------------------------------------------------- proc configs

void encode_cpu(Writer& w, const proc::CpuConfig& cpu) {
  w.b(cpu.multicycle);
  w.i32(cpu.fetch_window);
  w.i32(cpu.drain_firings);
  w.b(cpu.relax_squashed_fetches);
}

proc::CpuConfig decode_cpu(Reader& r) {
  proc::CpuConfig cpu;
  cpu.multicycle = r.b();
  cpu.fetch_window = r.i32();
  cpu.drain_firings = r.i32();
  cpu.relax_squashed_fetches = r.b();
  return cpu;
}

void encode_experiment_options(Writer& w,
                               const proc::ExperimentOptions& options) {
  w.b(options.check_equivalence);
  w.b(options.verify_result);
  w.u64(options.max_cycles);
  w.u64(options.fifo_capacity);
}

proc::ExperimentOptions decode_experiment_options(Reader& r) {
  proc::ExperimentOptions options;
  options.check_equivalence = r.b();
  options.verify_result = r.b();
  options.max_cycles = r.u64();
  options.fifo_capacity = static_cast<std::size_t>(r.u64());
  return options;
}

// ----------------------------------------------------------- gen configs

void encode_topology(Writer& w, const gen::TopologyConfig& t) {
  w.u8(static_cast<std::uint8_t>(t.family));
  w.i32(t.num_nodes);
  w.i32(t.max_relay_stations);
  w.f64(t.bidirectional_probability);
  w.b(t.ensure_strongly_connected);
  w.i32(t.ba_attach);
  w.i32(t.ws_neighbors);
  w.f64(t.ws_rewire_probability);
  w.i32(t.mesh_rows);
  w.i32(t.mesh_cols);
  w.b(t.mesh_torus);
  w.i32(t.er_clusters);
  w.f64(t.er_intra_probability);
  w.f64(t.er_inter_probability);
}

gen::TopologyConfig decode_topology(Reader& r) {
  gen::TopologyConfig t;
  const std::uint8_t family = r.u8();
  if (family >
      static_cast<std::uint8_t>(gen::TopologyFamily::kClusteredErdosRenyi))
    throw WireError("unknown topology family tag");
  t.family = static_cast<gen::TopologyFamily>(family);
  t.num_nodes = r.i32();
  t.max_relay_stations = r.i32();
  t.bidirectional_probability = r.f64();
  t.ensure_strongly_connected = r.b();
  t.ba_attach = r.i32();
  t.ws_neighbors = r.i32();
  t.ws_rewire_probability = r.f64();
  t.mesh_rows = r.i32();
  t.mesh_cols = r.i32();
  t.mesh_torus = r.b();
  t.er_clusters = r.i32();
  t.er_intra_probability = r.f64();
  t.er_inter_probability = r.f64();
  return t;
}

void encode_system(Writer& w, const gen::SystemConfig& s) {
  w.str(s.name);
  w.f64(s.blocks.min_area_mm2);
  w.f64(s.blocks.max_area_mm2);
  w.f64(s.blocks.min_aspect);
  w.f64(s.blocks.max_aspect);
  w.i32(s.moore_states);
  // v2: netlist-free dressing for families whose hubs exceed the
  // randommoore port model (scale-free topologies at 256+ nodes).
  w.b(s.build_netlist);
}

gen::SystemConfig decode_system(Reader& r) {
  gen::SystemConfig s;
  s.name = r.str();
  s.blocks.min_area_mm2 = r.f64();
  s.blocks.max_area_mm2 = r.f64();
  s.blocks.min_aspect = r.f64();
  s.blocks.max_aspect = r.f64();
  s.moore_states = r.i32();
  s.build_netlist = r.b();
  return s;
}

void encode_family(Writer& w, const gen::FamilySpec& f) {
  w.str(f.name);
  encode_topology(w, f.topology);
  encode_system(w, f.system);
  w.i32(f.anneal_iterations);
  // v2: per-family diameter-scaled simulation horizons (0 = inherit the
  // ensemble-wide EnsembleSimOptions).
  w.u64(f.golden_cycles);
  w.u64(f.wp_cycles);
}

gen::FamilySpec decode_family(Reader& r) {
  gen::FamilySpec f;
  f.name = r.str();
  f.topology = decode_topology(r);
  f.system = decode_system(r);
  f.anneal_iterations = r.i32();
  f.golden_cycles = r.u64();
  f.wp_cycles = r.u64();
  return f;
}

void encode_sim_options(Writer& w, const gen::EnsembleSimOptions& s) {
  w.b(s.enabled);
  w.u64(s.golden_cycles);
  w.u64(s.wp_cycles);
  w.u64(s.fifo_capacity);
  w.b(s.check_equivalence);
}

gen::EnsembleSimOptions decode_sim_options(Reader& r) {
  gen::EnsembleSimOptions s;
  s.enabled = r.b();
  s.golden_cycles = r.u64();
  s.wp_cycles = r.u64();
  s.fifo_capacity = static_cast<std::size_t>(r.u64());
  s.check_equivalence = r.b();
  return s;
}

// ----------------------------------------------------------- AnnealKnobs

void encode_knobs(Writer& w, const AnnealKnobs& k) {
  w.f64(k.weight_area);
  w.f64(k.weight_wirelength);
  w.f64(k.weight_throughput);
  w.f64(k.ps_per_mm);
  w.f64(k.clock_ps);
  w.i32(k.iterations);
  w.f64(k.initial_temperature);
  w.f64(k.cooling);
  w.u64(k.seed);
  w.u8(static_cast<std::uint8_t>(k.pack_engine));
}

AnnealKnobs decode_knobs(Reader& r) {
  AnnealKnobs k;
  k.weight_area = r.f64();
  k.weight_wirelength = r.f64();
  k.weight_throughput = r.f64();
  k.ps_per_mm = r.f64();
  k.clock_ps = r.f64();
  k.iterations = r.i32();
  k.initial_temperature = r.f64();
  k.cooling = r.f64();
  k.seed = r.u64();
  const std::uint8_t engine = r.u8();
  if (engine > static_cast<std::uint8_t>(fplan::PackEngine::kMovePacker))
    throw WireError("unknown pack-engine tag");
  k.pack_engine = static_cast<fplan::PackEngine>(engine);
  return k;
}

// --------------------------------------------------------- job payloads

void encode_experiment_job(Writer& w, const ExperimentJob& job,
                           bool for_hash) {
  encode_program(w, job.program, for_hash);
  encode_cpu(w, job.cpu);
  w.str(job.rs.label);
  encode_rs_map(w, job.rs.rs);
  encode_experiment_options(w, job.options);
}

ExperimentJob decode_experiment_job(Reader& r) {
  ExperimentJob job;
  job.program = decode_program(r);
  job.cpu = decode_cpu(r);
  job.rs.label = r.str();
  job.rs.rs = decode_rs_map(r);
  job.options = decode_experiment_options(r);
  return job;
}

void encode_throughput_job(Writer& w, const ThroughputJob& job,
                           bool for_hash) {
  encode_program(w, job.program, for_hash);
  encode_cpu(w, job.cpu);
  encode_rs_map(w, job.rs);
  w.u64(job.fifo_capacity);
}

ThroughputJob decode_throughput_job(Reader& r) {
  ThroughputJob job;
  job.program = decode_program(r);
  job.cpu = decode_cpu(r);
  job.rs = decode_rs_map(r);
  job.fifo_capacity = r.u64();
  return job;
}

void encode_floorplan_job(Writer& w, const FloorplanJob& job) {
  encode_topology(w, job.topology);
  encode_system(w, job.system);
  w.u64(job.seed);
  encode_knobs(w, job.anneal);
}

FloorplanJob decode_floorplan_job(Reader& r) {
  FloorplanJob job;
  job.topology = decode_topology(r);
  job.system = decode_system(r);
  job.seed = r.u64();
  job.anneal = decode_knobs(r);
  return job;
}

void encode_sample_job(Writer& w, const gen::SampleJob& job) {
  encode_family(w, job.family);
  w.i32(job.sample);
  w.u64(job.ensemble_seed);
  encode_sim_options(w, job.simulate);
  encode_knobs(w, AnnealKnobs::from_options(job.anneal));
  w.u64(job.max_cycle_enumeration);
}

gen::SampleJob decode_sample_job(Reader& r) {
  gen::SampleJob job;
  job.family = decode_family(r);
  job.sample = r.i32();
  job.ensemble_seed = r.u64();
  job.simulate = decode_sim_options(r);
  job.anneal = decode_knobs(r).to_options();
  job.max_cycle_enumeration = static_cast<std::size_t>(r.u64());
  return job;
}

void encode_stream_job(Writer& w, const StreamJob& job) {
  const stream::StreamGraphConfig& g = job.graph;
  w.u64(g.tokens);
  w.u64(g.fir_stages);
  w.u64(g.branches);
  w.u64(g.agc_period);
  w.u64(g.gain_period);
  w.f64(g.agc_target);
  w.u64(g.seed);
  w.u32(static_cast<std::uint32_t>(g.fir.size()));
  for (const double tap : g.fir) w.f64(tap);
  w.i64(g.feedback_rs);
  w.i64(g.forward_rs);
  // g.sink is intentionally not encoded: the evaluator always runs
  // stats-only sinks (see StreamJob doc).
  w.u8(static_cast<std::uint8_t>(job.mode));
  w.u64(job.fifo_capacity);
}

StreamJob decode_stream_job(Reader& r) {
  StreamJob job;
  stream::StreamGraphConfig& g = job.graph;
  g.tokens = r.u64();
  g.fir_stages = static_cast<std::size_t>(r.u64());
  g.branches = static_cast<std::size_t>(r.u64());
  g.agc_period = r.u64();
  g.gain_period = r.u64();
  g.agc_target = r.f64();
  g.seed = r.u64();
  g.fir.clear();
  const std::uint32_t taps = r.u32();
  for (std::uint32_t i = 0; i < taps; ++i) g.fir.push_back(r.f64());
  g.feedback_rs = static_cast<int>(r.i64());
  g.forward_rs = static_cast<int>(r.i64());
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(stream::RunMode::kWp2))
    throw WireError("unknown stream run-mode tag " + std::to_string(mode));
  job.mode = static_cast<stream::RunMode>(mode);
  job.fifo_capacity = r.u64();
  return job;
}

void encode_request_body(Writer& w, const EvalRequest& request,
                         bool for_hash) {
  w.u8(kEvalVersion);
  w.u8(static_cast<std::uint8_t>(request.kind));
  switch (request.kind) {
    case RequestKind::kExperiment:
      encode_experiment_job(w, request.experiment, for_hash);
      return;
    case RequestKind::kWp2Throughput:
      encode_throughput_job(w, request.throughput, for_hash);
      return;
    case RequestKind::kFloorplanAnneal:
      encode_floorplan_job(w, request.floorplan);
      return;
    case RequestKind::kEnsembleSample:
      encode_sample_job(w, request.sample);
      return;
    case RequestKind::kStreamRun:
      encode_stream_job(w, request.stream);
      return;
  }
  throw WireError("unknown request kind");
}

// --------------------------------------------------------- reply pieces

void encode_row(Writer& w, const proc::ExperimentRow& row) {
  w.str(row.label);
  w.u64(row.golden_cycles);
  w.u64(row.wp1_cycles);
  w.u64(row.wp2_cycles);
  w.f64(row.th_wp1);
  w.f64(row.th_wp2);
  w.f64(row.improvement);
  w.f64(row.static_wp1);
  w.b(row.wp1_equivalent);
  w.b(row.wp2_equivalent);
  w.b(row.result_ok);
  w.str(row.detail);
}

proc::ExperimentRow decode_row(Reader& r) {
  proc::ExperimentRow row;
  row.label = r.str();
  row.golden_cycles = r.u64();
  row.wp1_cycles = r.u64();
  row.wp2_cycles = r.u64();
  row.th_wp1 = r.f64();
  row.th_wp2 = r.f64();
  row.improvement = r.f64();
  row.static_wp1 = r.f64();
  row.wp1_equivalent = r.b();
  row.wp2_equivalent = r.b();
  row.result_ok = r.b();
  row.detail = r.str();
  return row;
}

void encode_floorplan_result(Writer& w, const FloorplanResult& fp) {
  w.f64(fp.area);
  w.f64(fp.wirelength);
  w.f64(fp.cost);
  w.f64(fp.throughput);
  w.i32(fp.total_rs);
  w.i32(fp.accepted_moves);
  w.i32(fp.evaluations);
  w.u64(fp.engine_incremental);
  w.u64(fp.engine_fallbacks);
}

FloorplanResult decode_floorplan_result(Reader& r) {
  FloorplanResult fp;
  fp.area = r.f64();
  fp.wirelength = r.f64();
  fp.cost = r.f64();
  fp.throughput = r.f64();
  fp.total_rs = r.i32();
  fp.accepted_moves = r.i32();
  fp.evaluations = r.i32();
  fp.engine_incremental = r.u64();
  fp.engine_fallbacks = r.u64();
  return fp;
}

void encode_sample_result(Writer& w, const gen::SampleResult& s) {
  w.str(s.family);
  w.i32(s.sample);
  w.u64(s.seed);
  w.i32(s.nodes);
  w.i32(s.edges);
  w.i64(s.cycles);
  w.i32(s.total_rs);
  w.f64(s.area);
  w.f64(s.wirelength);
  w.f64(s.throughput);
  w.b(s.simulated);
  w.f64(s.th_wp1_sim);
  w.f64(s.th_wp2_sim);
  w.b(s.sim_ok);
  w.u64(s.engine_incremental);
  w.u64(s.engine_fallbacks);
  // Wall-clock fields ride along so a sharded CSV can still report
  // worker-side timings; they stay excluded from SampleResult::operator==.
  w.f64(s.anneal_ms);
  w.f64(s.throughput_ms);
}

gen::SampleResult decode_sample_result(Reader& r) {
  gen::SampleResult s;
  s.family = r.str();
  s.sample = r.i32();
  s.seed = r.u64();
  s.nodes = r.i32();
  s.edges = r.i32();
  s.cycles = r.i64();
  s.total_rs = r.i32();
  s.area = r.f64();
  s.wirelength = r.f64();
  s.throughput = r.f64();
  s.simulated = r.b();
  s.th_wp1_sim = r.f64();
  s.th_wp2_sim = r.f64();
  s.sim_ok = r.b();
  s.engine_incremental = r.u64();
  s.engine_fallbacks = r.u64();
  s.anneal_ms = r.f64();
  s.throughput_ms = r.f64();
  return s;
}

void encode_stream_result(Writer& w, const StreamResult& s) {
  w.u64(s.tokens);
  w.u64(s.cycles);
  w.u64(s.digest);
  w.u32(static_cast<std::uint32_t>(s.sink_digests.size()));
  for (const std::uint64_t digest : s.sink_digests) w.u64(digest);
  w.u32(static_cast<std::uint32_t>(s.sink_counts.size()));
  for (const std::uint64_t count : s.sink_counts) w.u64(count);
  w.u64(s.input_stalls);
  w.u64(s.output_stalls);
  w.u64(s.discarded_tokens);
  // Wall-clock throughput rides along for worker-side reporting; it stays
  // excluded from StreamResult::operator==.
  w.f64(s.tokens_per_sec);
}

StreamResult decode_stream_result(Reader& r) {
  StreamResult s;
  s.tokens = r.u64();
  s.cycles = r.u64();
  s.digest = r.u64();
  const std::uint32_t digests = r.u32();
  for (std::uint32_t i = 0; i < digests; ++i)
    s.sink_digests.push_back(r.u64());
  const std::uint32_t counts = r.u32();
  for (std::uint32_t i = 0; i < counts; ++i) s.sink_counts.push_back(r.u64());
  s.input_stalls = r.u64();
  s.output_stalls = r.u64();
  s.discarded_tokens = r.u64();
  s.tokens_per_sec = r.f64();
  return s;
}

}  // namespace

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kExperiment: return "experiment";
    case RequestKind::kWp2Throughput: return "wp2-throughput";
    case RequestKind::kFloorplanAnneal: return "floorplan-anneal";
    case RequestKind::kEnsembleSample: return "ensemble-sample";
    case RequestKind::kStreamRun: return "stream-run";
  }
  return "unknown";
}

// ----------------------------------------------------------- ProgramRef

ProgramRef ProgramRef::extraction_sort(std::uint64_t n, std::uint64_t seed) {
  ProgramRef ref;
  ref.generator = Generator::kExtractionSort;
  ref.size = n;
  ref.seed = seed;
  return ref;
}

ProgramRef ProgramRef::matmul(std::uint64_t dim, std::uint64_t seed) {
  ProgramRef ref;
  ref.generator = Generator::kMatmul;
  ref.size = dim;
  ref.seed = seed;
  return ref;
}

ProgramRef ProgramRef::pointer_chase(std::uint64_t n, std::uint64_t seed) {
  ProgramRef ref;
  ref.generator = Generator::kPointerChase;
  ref.size = n;
  ref.seed = seed;
  return ref;
}

ProgramRef ProgramRef::inlined(proc::ProgramSpec spec) {
  ProgramRef ref;
  ref.generator = Generator::kInline;
  ref.inline_spec = std::move(spec);
  return ref;
}

proc::ProgramSpec ProgramRef::materialize() const {
  switch (generator) {
    case Generator::kInline:
      return inline_spec;
    case Generator::kExtractionSort:
      return proc::extraction_sort_program(static_cast<std::size_t>(size),
                                           seed);
    case Generator::kMatmul:
      return proc::matmul_program(static_cast<std::size_t>(size), seed);
    case Generator::kPointerChase:
      return proc::pointer_chase_program(static_cast<std::size_t>(size),
                                         seed);
  }
  WP_CHECK(false, "unknown program generator");
  return {};
}

// ----------------------------------------------------------- AnnealKnobs

AnnealKnobs AnnealKnobs::from_options(const fplan::AnnealOptions& options) {
  AnnealKnobs k;
  k.weight_area = options.weight_area;
  k.weight_wirelength = options.weight_wirelength;
  k.weight_throughput = options.weight_throughput;
  k.ps_per_mm = options.delay_model.ps_per_mm;
  k.clock_ps = options.delay_model.clock_ps;
  k.iterations = options.iterations;
  k.initial_temperature = options.initial_temperature;
  k.cooling = options.cooling;
  k.seed = options.seed;
  k.pack_engine = options.pack_engine;
  return k;
}

fplan::AnnealOptions AnnealKnobs::to_options() const {
  fplan::AnnealOptions options;
  options.weight_area = weight_area;
  options.weight_wirelength = weight_wirelength;
  options.weight_throughput = weight_throughput;
  options.delay_model.ps_per_mm = ps_per_mm;
  options.delay_model.clock_ps = clock_ps;
  options.iterations = iterations;
  options.initial_temperature = initial_temperature;
  options.cooling = cooling;
  options.seed = seed;
  options.pack_engine = pack_engine;
  return options;
}

// -------------------------------------------------------------- requests

EvalRequest::EvalRequest(ExperimentJob job)
    : kind(RequestKind::kExperiment), experiment(std::move(job)) {}

EvalRequest::EvalRequest(ThroughputJob job)
    : kind(RequestKind::kWp2Throughput), throughput(std::move(job)) {}

EvalRequest::EvalRequest(FloorplanJob job)
    : kind(RequestKind::kFloorplanAnneal), floorplan(std::move(job)) {}

EvalRequest::EvalRequest(gen::SampleJob job)
    : kind(RequestKind::kEnsembleSample), sample(std::move(job)) {}

EvalRequest::EvalRequest(StreamJob job)
    : kind(RequestKind::kStreamRun), stream(std::move(job)) {}

std::uint64_t EvalRequest::content_hash() const {
  Writer w;
  encode_request_body(w, *this, /*for_hash=*/true);
  return hash_bytes(w.bytes().data(), w.size());
}

void EvalRequest::encode(Writer& w) const {
  encode_request_body(w, *this, /*for_hash=*/false);
}

EvalRequest EvalRequest::decode(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != kEvalVersion)
    throw WireError("unsupported EvalRequest version " +
                    std::to_string(version));
  EvalRequest request;
  const std::uint8_t kind = r.u8();
  switch (static_cast<RequestKind>(kind)) {
    case RequestKind::kExperiment:
      request.kind = RequestKind::kExperiment;
      request.experiment = decode_experiment_job(r);
      return request;
    case RequestKind::kWp2Throughput:
      request.kind = RequestKind::kWp2Throughput;
      request.throughput = decode_throughput_job(r);
      return request;
    case RequestKind::kFloorplanAnneal:
      request.kind = RequestKind::kFloorplanAnneal;
      request.floorplan = decode_floorplan_job(r);
      return request;
    case RequestKind::kEnsembleSample:
      request.kind = RequestKind::kEnsembleSample;
      request.sample = decode_sample_job(r);
      return request;
    case RequestKind::kStreamRun:
      request.kind = RequestKind::kStreamRun;
      request.stream = decode_stream_job(r);
      return request;
  }
  throw WireError("unknown request kind tag " + std::to_string(kind));
}

// --------------------------------------------------------------- replies

bool FloorplanResult::operator==(const FloorplanResult& other) const {
  return area == other.area && wirelength == other.wirelength &&
         cost == other.cost && throughput == other.throughput &&
         total_rs == other.total_rs &&
         accepted_moves == other.accepted_moves &&
         evaluations == other.evaluations &&
         engine_incremental == other.engine_incremental &&
         engine_fallbacks == other.engine_fallbacks;
}

bool StreamResult::operator==(const StreamResult& other) const {
  return tokens == other.tokens && cycles == other.cycles &&
         digest == other.digest && sink_digests == other.sink_digests &&
         sink_counts == other.sink_counts &&
         input_stalls == other.input_stalls &&
         output_stalls == other.output_stalls &&
         discarded_tokens == other.discarded_tokens;
}

EvalReply EvalReply::make_error(ErrorCode code, std::string message) {
  EvalReply reply;
  reply.kind = ReplyKind::kError;
  reply.error.code = code;
  reply.error.message = std::move(message);
  return reply;
}

void EvalReply::encode(Writer& w) const {
  w.u8(kEvalVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  switch (kind) {
    case ReplyKind::kError:
      w.u32(static_cast<std::uint32_t>(error.code));
      w.str(error.message);
      return;
    case ReplyKind::kExperiment:
      encode_row(w, row);
      return;
    case ReplyKind::kThroughput:
      w.f64(throughput);
      return;
    case ReplyKind::kFloorplan:
      encode_floorplan_result(w, floorplan);
      return;
    case ReplyKind::kSample:
      encode_sample_result(w, sample);
      return;
    case ReplyKind::kStream:
      encode_stream_result(w, stream);
      return;
  }
  throw WireError("unknown reply kind");
}

EvalReply EvalReply::decode(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != kEvalVersion)
    throw WireError("unsupported EvalReply version " +
                    std::to_string(version));
  EvalReply reply;
  const std::uint8_t kind = r.u8();
  switch (static_cast<ReplyKind>(kind)) {
    case ReplyKind::kError: {
      reply.kind = ReplyKind::kError;
      const std::uint32_t code = r.u32();
      if (code > static_cast<std::uint32_t>(ErrorCode::kInternal))
        throw WireError("unknown error code tag");
      reply.error.code = static_cast<ErrorCode>(code);
      reply.error.message = r.str();
      return reply;
    }
    case ReplyKind::kExperiment:
      reply.kind = ReplyKind::kExperiment;
      reply.row = decode_row(r);
      return reply;
    case ReplyKind::kThroughput:
      reply.kind = ReplyKind::kThroughput;
      reply.throughput = r.f64();
      return reply;
    case ReplyKind::kFloorplan:
      reply.kind = ReplyKind::kFloorplan;
      reply.floorplan = decode_floorplan_result(r);
      return reply;
    case ReplyKind::kSample:
      reply.kind = ReplyKind::kSample;
      reply.sample = decode_sample_result(r);
      return reply;
    case ReplyKind::kStream:
      reply.kind = ReplyKind::kStream;
      reply.stream = decode_stream_result(r);
      return reply;
  }
  throw WireError("unknown reply kind tag " + std::to_string(kind));
}

}  // namespace wp::eval
