#include "eval/request.hpp"

#include <string>
#include <type_traits>
#include <utility>

#include "proc/programs.hpp"
#include "util/assert.hpp"

namespace wp::eval {

namespace {

using wire::Reader;
using wire::WireError;
using wire::Writer;

// ------------------------------------------------------------- adapters
//
// Every wire type's layout is stated once, as a field list
// `fields(io, value)` that runs over one of two adapters: Enc appends each
// field to a Writer, Dec reads each field back from a Reader and assigns
// it. A verb names the wire encoding of one field; containers carry a u32
// count.

/// `const T` under Enc, `T` under Dec: the value type a field list sees.
template <class Io, class T>
using Field = std::conditional_t<Io::kDecoding, T, const T>;

/// ErrorCode is the one u32 tag (it leads a protocol error frame's
/// payload); every other enum crosses as a u8.
template <class E>
using TagWire = std::conditional_t<std::is_same_v<E, ErrorCode>,
                                   std::uint32_t, std::uint8_t>;

struct Enc {
  static constexpr bool kDecoding = false;
  Writer& w;

  void b(const bool& v) { w.b(v); }
  void i32(const std::int32_t& v) { w.i32(v); }
  template <class F>
  void i64(const F& v) { w.i64(v); }
  template <class F>
  void u64(const F& v) { w.u64(v); }
  void f64(const double& v) { w.f64(v); }
  void str(const std::string& v) { w.str(v); }

  template <class E>
  void tag(const E& v, E /*max*/, const char* /*what*/) {
    if constexpr (sizeof(TagWire<E>) == 1)
      w.u8(static_cast<std::uint8_t>(v));
    else
      w.u32(static_cast<std::uint32_t>(v));
  }

  template <class F>
  void seq(const std::vector<F>& v) {
    count(v.size());
    for (const F& x : v) {
      if constexpr (std::is_same_v<F, double>)
        f64(x);
      else
        u64(x);
    }
  }

  void rs_map(const std::map<std::string, int>& rs) {
    count(rs.size());
    for (const auto& [name, n] : rs) {  // std::map: strictly increasing
      str(name);
      i64(n);
    }
  }

  void version(const char* /*type*/) { w.u8(kEvalVersion); }

 private:
  void count(std::size_t n) {
    if (n > 0xffffffffULL) throw WireError("container too long for wire");
    w.u32(static_cast<std::uint32_t>(n));
  }
};

/// The wire integer `x` as field type F. Decoding is canonical: a value F
/// cannot hold exactly (an int field carried as i64, say) is a WireError,
/// never a silent truncation the encoder would not reproduce.
template <class F, class W>
F narrow(W x) {
  static_assert(std::is_signed_v<F> == std::is_signed_v<W>);
  const F v = static_cast<F>(x);
  if (static_cast<W>(v) != x)
    throw WireError("integer field out of range: " + std::to_string(x));
  return v;
}

struct Dec {
  static constexpr bool kDecoding = true;
  Reader& r;

  void b(bool& v) { v = r.b(); }
  void i32(std::int32_t& v) { v = r.i32(); }
  template <class F>
  void i64(F& v) { v = narrow<F>(r.i64()); }
  template <class F>
  void u64(F& v) { v = narrow<F>(r.u64()); }
  void f64(double& v) { v = r.f64(); }
  void str(std::string& v) { v = r.str(); }

  template <class E>
  void tag(E& v, E max, const char* what) {
    using Wire = TagWire<E>;
    const Wire raw = sizeof(Wire) == 1 ? r.u8() : r.u32();
    if (raw > static_cast<Wire>(max))
      throw WireError(std::string("unknown ") + what + " tag " +
                      std::to_string(raw));
    v = static_cast<E>(raw);
  }

  template <class F>
  void seq(std::vector<F>& v) {
    v.clear();
    for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
      F x{};
      if constexpr (std::is_same_v<F, double>)
        f64(x);
      else
        u64(x);
      v.push_back(x);
    }
  }

  void rs_map(std::map<std::string, int>& rs) {
    rs.clear();
    for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
      std::string name;
      int count = 0;
      str(name);
      i64(count);
      // Canonical order: a repeated or out-of-order name would collapse or
      // reorder in the map and re-encode to other bytes.
      if (!rs.empty() && !(rs.rbegin()->first < name))
        throw WireError("rs map names not strictly increasing at '" + name +
                        "'");
      rs.emplace_hint(rs.end(), std::move(name), count);
    }
  }

  void version(const char* type) {
    const std::uint8_t version = r.u8();
    if (version != kEvalVersion)
      throw WireError(std::string("unsupported ") + type + " version " +
                      std::to_string(version));
  }
};

// ---------------------------------------------------------- field lists

template <class Io>
void fields(Io& io, Field<Io, ProgramRef>& p) {
  io.tag(p.generator, ProgramRef::Generator::kPointerChase,
         "program generator");
  if (p.generator == ProgramRef::Generator{})
    throw WireError("unknown program generator tag 0");
  io.u64(p.size);
  io.u64(p.seed);
}

template <class Io>
void fields(Io& io, Field<Io, proc::CpuConfig>& cpu) {
  io.b(cpu.multicycle);
  io.i32(cpu.fetch_window);
  io.i32(cpu.drain_firings);
  io.b(cpu.relax_squashed_fetches);
}

template <class Io>
void fields(Io& io, Field<Io, proc::RsConfig>& rs) {
  io.str(rs.label);
  io.rs_map(rs.rs);
}

template <class Io>
void fields(Io& io, Field<Io, proc::ExperimentOptions>& options) {
  io.b(options.check_equivalence);
  io.b(options.verify_result);
  io.u64(options.max_cycles);
  io.u64(options.fifo_capacity);
}

template <class Io>
void fields(Io& io, Field<Io, gen::TopologyConfig>& t) {
  io.tag(t.family, gen::TopologyFamily::kClusteredErdosRenyi,
         "topology family");
  io.i32(t.num_nodes);
  io.i32(t.max_relay_stations);
  io.f64(t.bidirectional_probability);
  io.b(t.ensure_strongly_connected);
  io.i32(t.ba_attach);
  io.i32(t.ws_neighbors);
  io.f64(t.ws_rewire_probability);
  io.i32(t.mesh_rows);
  io.i32(t.mesh_cols);
  io.b(t.mesh_torus);
  io.i32(t.er_clusters);
  io.f64(t.er_intra_probability);
  io.f64(t.er_inter_probability);
}

template <class Io>
void fields(Io& io, Field<Io, gen::SystemConfig>& s) {
  io.str(s.name);
  io.f64(s.blocks.min_area_mm2);
  io.f64(s.blocks.max_area_mm2);
  io.f64(s.blocks.min_aspect);
  io.f64(s.blocks.max_aspect);
  io.i32(s.moore_states);
  // v2: netlist-free dressing for families whose hubs exceed the
  // randommoore port model (scale-free topologies at 256+ nodes).
  io.b(s.build_netlist);
}

template <class Io>
void fields(Io& io, Field<Io, gen::FamilySpec>& f) {
  io.str(f.name);
  fields(io, f.topology);
  fields(io, f.system);
  io.i32(f.anneal_iterations);
  // v2: per-family diameter-scaled simulation horizons (0 = inherit the
  // ensemble-wide EnsembleSimOptions).
  io.u64(f.golden_cycles);
  io.u64(f.wp_cycles);
}

template <class Io>
void fields(Io& io, Field<Io, gen::EnsembleSimOptions>& s) {
  io.b(s.enabled);
  io.u64(s.golden_cycles);
  io.u64(s.wp_cycles);
  io.u64(s.fifo_capacity);
  io.b(s.check_equivalence);
}

template <class Io>
void fields(Io& io, Field<Io, AnnealKnobs>& k) {
  io.f64(k.weight_area);
  io.f64(k.weight_wirelength);
  io.f64(k.weight_throughput);
  io.f64(k.ps_per_mm);
  io.f64(k.clock_ps);
  io.i32(k.iterations);
  io.f64(k.initial_temperature);
  io.f64(k.cooling);
  io.u64(k.seed);
  io.tag(k.pack_engine, fplan::PackEngine::kMovePacker, "pack-engine");
}

template <class Io>
void fields(Io& io, Field<Io, stream::StreamGraphConfig>& g) {
  io.u64(g.tokens);
  io.u64(g.fir_stages);
  io.u64(g.branches);
  io.u64(g.agc_period);
  io.f64(g.agc_target);
  io.u64(g.seed);
  io.seq(g.fir);
  io.i64(g.feedback_rs);
  io.i64(g.forward_rs);
  // g.sink is intentionally not on the wire: the evaluator always runs
  // stats-only sinks (see StreamJob doc).
}

// --------------------------------------------------------- job payloads

template <class Io>
void fields(Io& io, Field<Io, ExperimentJob>& job) {
  fields(io, job.program);
  fields(io, job.cpu);
  fields(io, job.rs);
  fields(io, job.options);
}

template <class Io>
void fields(Io& io, Field<Io, ThroughputJob>& job) {
  fields(io, job.program);
  fields(io, job.cpu);
  io.rs_map(job.rs);
  io.u64(job.fifo_capacity);
}

template <class Io>
void fields(Io& io, Field<Io, FloorplanJob>& job) {
  fields(io, job.topology);
  fields(io, job.system);
  io.u64(job.seed);
  fields(io, job.anneal);
}

template <class Io>
void fields(Io& io, Field<Io, gen::SampleJob>& job) {
  fields(io, job.family);
  io.i32(job.sample);
  io.u64(job.ensemble_seed);
  fields(io, job.simulate);
  // AnnealOptions crosses as its serializable subset, AnnealKnobs.
  AnnealKnobs knobs = AnnealKnobs::from_options(job.anneal);
  fields(io, knobs);
  if constexpr (Io::kDecoding) job.anneal = knobs.to_options();
}

template <class Io>
void fields(Io& io, Field<Io, StreamJob>& job) {
  fields(io, job.graph);
  io.tag(job.mode, stream::RunMode::kWp2, "stream run-mode");
  io.u64(job.fifo_capacity);
}

template <class Io>
void fields(Io& io, Field<Io, EvalRequest>& request) {
  io.version("EvalRequest");
  io.tag(request.kind, RequestKind::kStreamRun, "request kind");
  switch (request.kind) {
    case RequestKind::kExperiment:
      return fields(io, request.experiment);
    case RequestKind::kWp2Throughput:
      return fields(io, request.throughput);
    case RequestKind::kFloorplanAnneal:
      return fields(io, request.floorplan);
    case RequestKind::kEnsembleSample:
      return fields(io, request.sample);
    case RequestKind::kStreamRun:
      return fields(io, request.stream);
  }
  throw WireError("unknown request kind tag " +
                  std::to_string(static_cast<int>(request.kind)));
}

// -------------------------------------------------------- reply payloads

template <class Io>
void fields(Io& io, Field<Io, EvalError>& error) {
  io.tag(error.code, ErrorCode::kInternal, "error code");
  io.str(error.message);
}

template <class Io>
void fields(Io& io, Field<Io, proc::ExperimentRow>& row) {
  io.str(row.label);
  io.u64(row.golden_cycles);
  io.u64(row.wp1_cycles);
  io.u64(row.wp2_cycles);
  io.f64(row.th_wp1);
  io.f64(row.th_wp2);
  io.f64(row.improvement);
  io.f64(row.static_wp1);
  io.b(row.wp1_equivalent);
  io.b(row.wp2_equivalent);
  io.b(row.result_ok);
  io.str(row.detail);
}

template <class Io>
void fields(Io& io, Field<Io, FloorplanResult>& fp) {
  io.f64(fp.area);
  io.f64(fp.wirelength);
  io.f64(fp.cost);
  io.f64(fp.throughput);
  io.i32(fp.total_rs);
  io.i32(fp.accepted_moves);
  io.i32(fp.evaluations);
  io.u64(fp.engine_incremental);
  io.u64(fp.engine_fallbacks);
}

template <class Io>
void fields(Io& io, Field<Io, gen::SampleResult>& s) {
  io.str(s.family);
  io.i32(s.sample);
  io.u64(s.seed);
  io.i32(s.nodes);
  io.i32(s.edges);
  io.i32(s.total_rs);
  io.f64(s.area);
  io.f64(s.wirelength);
  io.f64(s.throughput);
  io.b(s.simulated);
  io.f64(s.th_wp1_sim);
  io.f64(s.th_wp2_sim);
  io.b(s.sim_ok);
  io.u64(s.engine_incremental);
  io.u64(s.engine_fallbacks);
  // Wall-clock fields ride along so a sharded CSV can still report
  // worker-side timings; they stay excluded from SampleResult::operator==.
  io.f64(s.anneal_ms);
  io.f64(s.throughput_ms);
}

template <class Io>
void fields(Io& io, Field<Io, StreamResult>& s) {
  io.u64(s.tokens);
  io.u64(s.cycles);
  io.u64(s.digest);
  io.seq(s.sink_digests);
  io.seq(s.sink_counts);
  io.u64(s.input_stalls);
  io.u64(s.output_stalls);
  io.u64(s.discarded_tokens);
  // Wall-clock throughput rides along for worker-side reporting; it stays
  // excluded from StreamResult::operator==.
  io.f64(s.tokens_per_sec);
}

template <class Io>
void fields(Io& io, Field<Io, EvalReply>& reply) {
  io.version("EvalReply");
  io.tag(reply.kind, ReplyKind::kStream, "reply kind");
  switch (reply.kind) {
    case ReplyKind::kError:
      return fields(io, reply.error);
    case ReplyKind::kExperiment:
      return fields(io, reply.row);
    case ReplyKind::kThroughput:
      return io.f64(reply.throughput);
    case ReplyKind::kFloorplan:
      return fields(io, reply.floorplan);
    case ReplyKind::kSample:
      return fields(io, reply.sample);
    case ReplyKind::kStream:
      return fields(io, reply.stream);
  }
  throw WireError("unknown reply kind tag " +
                  std::to_string(static_cast<int>(reply.kind)));
}

template <class T>
void encode_value(Writer& w, const T& value) {
  Enc enc{w};
  fields(enc, value);
}

template <class T>
T decode_value(Reader& r) {
  T value;
  Dec dec{r};
  fields(dec, value);
  return value;
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
  return ProgramRef{Generator::kExtractionSort, n, seed};
}

ProgramRef ProgramRef::matmul(std::uint64_t dim, std::uint64_t seed) {
  return ProgramRef{Generator::kMatmul, dim, seed};
}

proc::ProgramSpec ProgramRef::materialize() const {
  switch (generator) {
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

void EvalRequest::encode(Writer& w) const { encode_value(w, *this); }

EvalRequest EvalRequest::decode(Reader& r) {
  return decode_value<EvalRequest>(r);
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

void EvalError::encode(Writer& w) const { encode_value(w, *this); }

EvalError EvalError::decode(Reader& r) { return decode_value<EvalError>(r); }

EvalReply EvalReply::make_error(ErrorCode code, std::string message) {
  EvalReply reply;
  reply.kind = ReplyKind::kError;
  reply.error.code = code;
  reply.error.message = std::move(message);
  return reply;
}

void EvalReply::encode(Writer& w) const { encode_value(w, *this); }

EvalReply EvalReply::decode(Reader& r) { return decode_value<EvalReply>(r); }

}  // namespace wp::eval
