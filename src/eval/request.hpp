// EvalRequest / EvalReply — the evaluation requests a wire can carry.
//
// Each request names one evaluation by value — a Table-1 experiment row,
// the optimizer's WP2-throughput objective, a floorplan anneal, an
// ensemble sample or a stream run — and is answered by an EvalReply.
// eval::evaluate (evaluate.hpp) runs a request on the same engine an
// in-process driver calls directly (sim::SimOracle, gen::run_sample_job,
// stream::run_stream_graph), and the service daemon (src/svc) decodes the
// identical request type off the wire and calls the identical evaluate.
// src/eval is the top of the library: only src/svc, the examples, the
// tests and wpbench include it.
//
// Value-type contract:
//   * tagged unions: an EvalRequest holds the one job its RequestKind
//     names and an EvalReply the one result its ReplyKind names (see the
//     layout notes at each type). `kind` reads, compares and switches like
//     the enum, but only the message itself sets it: a message is built
//     per kind, from its payload, so a tag cannot name a payload the
//     message does not hold;
//   * versioned serialization (kEvalVersion byte leads every encoded
//     request/reply; decoders reject other versions loudly) shared with
//     the wire protocol;
//   * one field list per wire type: request.cpp states each layout once,
//     as a template `fields(io, value)` that runs over an encoding adapter
//     (appends each field to a wire::Writer) and a decoding adapter (reads
//     each field back and assigns it), so the two directions cannot drift
//     apart;
//   * canonical decode: every byte image decode() accepts re-encodes to
//     exactly those bytes. Enum tags are bounds-checked, an int field
//     carried as i64 (rs-map counts, feedback_rs, forward_rs) must fit in
//     an int, and rs-map names must strictly increase; anything else is a
//     wire::WireError.
//
// Programs are carried as a ProgramRef: a generator (extraction-sort /
// matmul / pointer-chase) plus its parameters, which the evaluating side
// materializes into a proc::ProgramSpec.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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
/// v4: StreamGraphConfig drops gain_period.
/// v5: ensemble samples no longer count elementary cycles: the job drops
/// its enumeration cap and the result its cycle count.
constexpr std::uint8_t kEvalVersion = 5;

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
  /// Tag 0 names no generator: decoding it is a wire::WireError.
  enum class Generator : std::uint8_t {
    kExtractionSort = 1,  ///< proc::extraction_sort_program(size, seed)
    kMatmul = 2,          ///< proc::matmul_program(size, seed)
    kPointerChase = 3,    ///< proc::pointer_chase_program(size, seed)
  };

  Generator generator = Generator::kExtractionSort;
  std::uint64_t size = 16;  ///< n / dim, generator-dependent
  std::uint64_t seed = 1;

  static ProgramRef extraction_sort(std::uint64_t n = 16,
                                    std::uint64_t seed = 1);
  static ProgramRef matmul(std::uint64_t dim = 4, std::uint64_t seed = 2);

  /// Builds the ProgramSpec this ref names.
  proc::ProgramSpec materialize() const;
};

// ------------------------------------------------------------ AnnealKnobs

/// The serializable subset of fplan::AnnealOptions: every knob that shapes
/// an annealing trajectory, minus the in-process-only oracle hooks
/// (throughput_engine, and throughput_fn — the fresh-solve reference seam
/// of the differential tests; the evaluator always wires a private
/// incremental engine per job).
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
  /// The dressing's block distribution and name. The reply reads no
  /// netlist, so system.build_netlist does not change it: the topology
  /// is always dressed netlist-free.
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

// ------------------------------------------------------------- KindTag

/// A message's kind: it converts to E, so it compares and switches like the
/// enum, but only `Message` can set it. A caller cannot re-tag a message
/// whose payload it did not build.
template <class E, class Message>
class KindTag {
 public:
  constexpr KindTag(const KindTag&) = default;
  constexpr operator E() const { return value_; }

 private:
  friend Message;
  constexpr explicit KindTag(E value) : value_(value) {}
  constexpr KindTag& operator=(const KindTag&) = default;

  E value_;
};

// -------------------------------------------------------------- requests

/// Layout: `kind` plus an anonymous union of the five jobs, of which only
/// the one `kind` names is alive; the others are never constructed and
/// must not be read. The members keep their names (`request.floorplan`),
/// which a std::variant would not. Copy, move, assignment and destruction
/// switch on `kind` in one place (request.cpp), and decode() constructs
/// only the job its tag names.
struct EvalRequest {
  KindTag<RequestKind, EvalRequest> kind;
  union {
    ExperimentJob experiment;
    ThroughputJob throughput;
    FloorplanJob floorplan;
    gen::SampleJob sample;
    StreamJob stream;
  };

  explicit EvalRequest(ExperimentJob job);
  explicit EvalRequest(ThroughputJob job);
  explicit EvalRequest(FloorplanJob job);
  explicit EvalRequest(gen::SampleJob job);
  explicit EvalRequest(StreamJob job);

  EvalRequest(const EvalRequest& other);
  EvalRequest(EvalRequest&& other) noexcept;
  /// Copy and move assignment both: `other` is already a copy or a move.
  EvalRequest& operator=(EvalRequest other) noexcept;
  ~EvalRequest();

  /// Versioned wire encoding.
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
  kNotWireable = 3,       ///< retired with in-process programs; kept so
                          ///< the later codes keep their numbers
  kEvalFailed = 4,        ///< the evaluation itself threw
  kMalformedFrame = 5,    ///< framing violation (svc layer)
  kOversizedFrame = 6,    ///< declared length over the frame cap
  kInternal = 7,
};

/// Also the whole payload of a protocol error frame (svc/protocol.hpp).
struct EvalError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  void encode(wire::Writer& w) const;
  static EvalError decode(wire::Reader& r);
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

/// Layout: `kind`, the kFloorplan result as a plain member, and an
/// anonymous union of the other five results, of which only the one `kind`
/// names is alive. `floorplan` stays outside the union because a floorplan
/// client reads it off every reply, an error reply included (it then holds
/// the default FloorplanResult); that costs a reply 64 bytes. A reply is
/// built per kind, from its result; the lifetime operations switch on
/// `kind` in one place (request.cpp) and decode() constructs only the
/// result its tag names.
struct EvalReply {
  KindTag<ReplyKind, EvalReply> kind;
  FloorplanResult floorplan;     ///< kFloorplan; default on other kinds
  union {
    EvalError error;             ///< kError
    proc::ExperimentRow row;     ///< kExperiment
    double throughput;           ///< kThroughput
    gen::SampleResult sample;    ///< kSample
    StreamResult stream;         ///< kStream
  };

  EvalReply();  ///< a kError reply carrying ErrorCode::kNone
  explicit EvalReply(EvalError error);
  explicit EvalReply(proc::ExperimentRow row);
  explicit EvalReply(double throughput);
  explicit EvalReply(FloorplanResult floorplan);
  explicit EvalReply(gen::SampleResult sample);
  explicit EvalReply(StreamResult stream);

  EvalReply(const EvalReply& other);
  EvalReply(EvalReply&& other) noexcept;
  /// Copy and move assignment both: `other` is already a copy or a move.
  EvalReply& operator=(EvalReply other) noexcept;
  ~EvalReply();

  bool ok() const { return kind != ReplyKind::kError; }

  static EvalReply make_error(ErrorCode code, std::string message);

  void encode(wire::Writer& w) const;
  static EvalReply decode(wire::Reader& r);
};

}  // namespace wp::eval
