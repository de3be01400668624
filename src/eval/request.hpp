// EvalRequest / EvalReply — the ONE public evaluation surface.
//
// Every evaluation the repo performs — a Table-1 experiment row, the
// optimizer's WP2-throughput objective, a floorplan anneal, an ensemble
// sample — is described by an EvalRequest and answered by an EvalReply.
// The five historical entry points (proc::run_experiment,
// proc::simulate_wp2_throughput, proc::optimal_config, proc::ParallelSweep,
// gen::run_ensemble) are thin adapters that build a request and call
// eval::evaluate, and the service daemon (src/svc) decodes the identical
// request type off the wire and calls the identical eval::evaluate — the
// in-process path and the daemon path execute literally the same code.
//
// Value-type contract:
//   * tagged union over the four request kinds (RequestKind selects the
//     engaged payload member);
//   * versioned serialization (kEvalVersion byte leads every encoded
//     request/reply; decoders reject other versions loudly) shared with
//     the wire protocol;
//   * content-hash keyed: content_hash() is a stable FNV digest of the
//     canonical encoding, usable as a cache/shard key across processes.
//
// Programs are carried as ProgramRef: either a *generator reference*
// (extraction-sort / matmul / pointer-chase plus parameters — the wire
// representation) or an inline proc::ProgramSpec (in-process only: the
// spec's verify closure cannot cross a process boundary, and silently
// dropping it would change result_ok verdicts; serializing an inline
// program throws wire::WireError instead).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "gen/ensemble.hpp"
#include "proc/experiment.hpp"
#include "stream/harness.hpp"
#include "util/wire.hpp"

namespace wp::eval {

/// Version byte leading every encoded EvalRequest/EvalReply. Bump on any
/// layout change; decoders reject foreign versions with WireError.
/// v2: FamilySpec carries per-family simulation horizons.
/// v3: the pack-engine tag names only kNaive (0) and kMovePacker (1); the
/// retired incremental, batched and parallel engine tags are rejected.
constexpr std::uint8_t kEvalVersion = 3;

enum class RequestKind : std::uint8_t {
  kExperiment = 1,      ///< golden/WP1/WP2 triple → ExperimentRow
  kWp2Throughput = 2,   ///< optimizer objective → double
  kFloorplanAnneal = 3, ///< generate+dress+anneal → FloorplanResult
  kEnsembleSample = 4,  ///< full pipeline sample → gen::SampleResult
  kStreamRun = 5,       ///< stream-graph harness run → StreamResult
};

const char* request_kind_name(RequestKind kind);

// ------------------------------------------------------------ ProgramRef

struct ProgramRef {
  enum class Generator : std::uint8_t {
    kInline = 0,          ///< carries a full ProgramSpec; NOT wireable
    kExtractionSort = 1,  ///< proc::extraction_sort_program(size, seed)
    kMatmul = 2,          ///< proc::matmul_program(size, seed)
    kPointerChase = 3,    ///< proc::pointer_chase_program(size, seed)
  };

  Generator generator = Generator::kExtractionSort;
  std::uint64_t size = 16;  ///< n / dim, generator-dependent
  std::uint64_t seed = 1;
  /// Engaged only for kInline (generator invocations materialize lazily).
  proc::ProgramSpec inline_spec;

  static ProgramRef extraction_sort(std::uint64_t n = 16,
                                    std::uint64_t seed = 1);
  static ProgramRef matmul(std::uint64_t dim = 4, std::uint64_t seed = 2);
  static ProgramRef pointer_chase(std::uint64_t n = 32,
                                  std::uint64_t seed = 3);
  static ProgramRef inlined(proc::ProgramSpec spec);

  bool wireable() const { return generator != Generator::kInline; }
  /// Builds the ProgramSpec this ref names (inline: returns the copy).
  proc::ProgramSpec materialize() const;
};

// ------------------------------------------------------------ AnnealKnobs

/// The serializable subset of fplan::AnnealOptions: every knob that shapes
/// an annealing trajectory, minus the in-process-only oracle hooks
/// (throughput_fn / throughput_engine — the evaluator always wires a
/// private incremental engine per job).
struct AnnealKnobs {
  double weight_area = 1.0;
  double weight_wirelength = 0.1;
  double weight_throughput = 0.0;
  double ps_per_mm = 150.0;   ///< WireDelayModel
  double clock_ps = 500.0;
  std::int32_t iterations = 20000;
  double initial_temperature = 1.0;
  double cooling = 0.9995;
  std::uint64_t seed = 42;
  /// Engine tag crosses the wire so a client can ask for the naive
  /// reference; both engines give bit-identical replies.
  fplan::PackEngine pack_engine = fplan::PackEngine::kMovePacker;

  static AnnealKnobs from_options(const fplan::AnnealOptions& options);
  fplan::AnnealOptions to_options() const;
};

// ------------------------------------------------------ request payloads

struct ExperimentJob {
  ProgramRef program;
  proc::CpuConfig cpu;
  proc::RsConfig rs;
  proc::ExperimentOptions options;
};

struct ThroughputJob {
  ProgramRef program;
  proc::CpuConfig cpu;
  std::map<std::string, int> rs;
  std::uint64_t fifo_capacity = 16;
};

struct FloorplanJob {
  gen::TopologyConfig topology;
  gen::SystemConfig system;
  std::uint64_t seed = 1;
  AnnealKnobs anneal;
};

// The ensemble-sample payload is gen::SampleJob itself — the unit of work
// run_ensemble executes in process.

/// A stream-graph harness run served remotely: the daemon builds the graph
/// from `graph` and executes stream::run_stream_graph in `mode`. The
/// evaluator always forces stats-only sinks (the graph's SinkOptions never
/// cross the wire — a remote keep-all sink would buffer millions of words
/// in the daemon to no observable effect, since the reply carries digests
/// and counts, not samples). Determinism of the harness makes the remote
/// digest byte-for-byte comparable with an in-process run.
struct StreamJob {
  stream::StreamGraphConfig graph;
  stream::RunMode mode = stream::RunMode::kWp2;
  std::uint64_t fifo_capacity = 16;
};

// -------------------------------------------------------------- requests

struct EvalRequest {
  RequestKind kind = RequestKind::kExperiment;
  // Engaged member selected by `kind` (plain members rather than a
  // std::variant keep the serializers flat and the accessors cheap).
  ExperimentJob experiment;
  ThroughputJob throughput;
  FloorplanJob floorplan;
  gen::SampleJob sample;
  StreamJob stream;

  EvalRequest() = default;
  explicit EvalRequest(ExperimentJob job);
  explicit EvalRequest(ThroughputJob job);
  explicit EvalRequest(FloorplanJob job);
  explicit EvalRequest(gen::SampleJob job);
  explicit EvalRequest(StreamJob job);

  /// Stable content digest of the canonical encoding — the cache/shard
  /// key. Inline programs hash their name/source/ram (the verify closure
  /// is assumed to be a pure function of those, the same assumption the
  /// golden cache already makes).
  std::uint64_t content_hash() const;

  /// Versioned wire encoding. Throws wire::WireError for requests that
  /// cannot cross a process boundary (inline programs).
  void encode(wire::Writer& w) const;
  static EvalRequest decode(wire::Reader& r);
};

// --------------------------------------------------------------- replies

enum class ReplyKind : std::uint8_t {
  kError = 0,
  kExperiment = 1,
  kThroughput = 2,
  kFloorplan = 3,
  kSample = 4,
  kStream = 5,
};

/// Typed error codes carried by kError replies (and by protocol-level
/// error frames, which reuse the same vocabulary).
enum class ErrorCode : std::uint32_t {
  kNone = 0,
  kMalformedRequest = 1,  ///< payload failed to decode
  kBadVersion = 2,        ///< version byte mismatch
  kNotWireable = 3,       ///< inline program asked to cross a process
  kEvalFailed = 4,        ///< the evaluation itself threw
  kMalformedFrame = 5,    ///< framing violation (svc layer)
  kOversizedFrame = 6,    ///< declared length over the frame cap
  kInternal = 7,
};

struct EvalError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

/// Reply of a kFloorplanAnneal request.
struct FloorplanResult {
  double area = 0.0;
  double wirelength = 0.0;
  double cost = 0.0;
  double throughput = 1.0;
  std::int32_t total_rs = 0;
  std::int32_t accepted_moves = 0;
  std::int32_t evaluations = 0;
  std::uint64_t engine_incremental = 0;
  std::uint64_t engine_fallbacks = 0;

  bool operator==(const FloorplanResult& other) const;
};

/// Reply of a kStreamRun request: the deterministic core of a
/// HarnessResult. tokens_per_sec rides along for worker-side reporting but
/// is excluded from operator== (wall clock is not part of the contract).
struct StreamResult {
  std::uint64_t tokens = 0;
  std::uint64_t cycles = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> sink_digests;
  std::vector<std::uint64_t> sink_counts;
  std::uint64_t input_stalls = 0;
  std::uint64_t output_stalls = 0;
  std::uint64_t discarded_tokens = 0;
  double tokens_per_sec = 0.0;

  bool operator==(const StreamResult& other) const;
};

struct EvalReply {
  ReplyKind kind = ReplyKind::kError;
  EvalError error;               ///< kError
  proc::ExperimentRow row;       ///< kExperiment
  double throughput = 0.0;       ///< kThroughput
  FloorplanResult floorplan;     ///< kFloorplan
  gen::SampleResult sample;      ///< kSample
  StreamResult stream;           ///< kStream

  bool ok() const { return kind != ReplyKind::kError; }

  static EvalReply make_error(ErrorCode code, std::string message);

  void encode(wire::Writer& w) const;
  static EvalReply decode(wire::Reader& r);
};

}  // namespace wp::eval
