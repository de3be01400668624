// Second case study: a DSP stream pipeline with an automatic-gain-control
// (AGC) feedback loop.
//
//   SRC ──► FIR ──► GAIN ──► QNT ──► SNK
//                    ▲                │
//                    └──── AGC ◄──────┘   (gain update every K samples)
//
// The forward path is fully pipelined (every stage fires every cycle); the
// feedback connection QNT→AGC→GAIN is *excited* only once every K samples —
// exactly the communication profile where the paper's WP2 wrapper recovers
// the throughput a strict WP1 wrapper loses when the feedback wire needs
// relay stations. Samples are 16.16 fixed-point in the low 32 bits.
//
// This header holds the stage processes. The one builder,
// make_stream_graph in stream/harness.hpp, wires them up: the pipeline
// above is its fir_stages = 1, branches = 1 graph.
#pragma once

#include <cstdint>
#include <vector>

#include "core/process.hpp"

namespace wp::stream {

/// 16.16 fixed point helpers.
inline constexpr std::int64_t kFixOne = 1 << 16;

/// Converts to 16.16 fixed point. The input must be finite and inside the
/// representable range [-32768, 32768) — NaN or out-of-range doubles used
/// to reach std::lround, which is undefined behaviour there; now they fail
/// a WP_REQUIRE at the conversion site instead.
Word fix_from_double(double x);
double fix_to_double(Word w);
Word fix_mul(Word a, Word b);

/// Deterministic sample source: a sum of two integer-period square waves
/// plus a PRNG dither, so the stream has slowly varying envelope for the
/// AGC to chase. Halts after `limit` samples when limit > 0.
class SampleSource final : public Process {
 public:
  SampleSource(std::string name, std::uint64_t seed, std::uint64_t limit);
  void fire(const Word* in, Word* out) override;
  bool halted() const override;

 private:
  std::uint64_t seed_;
  std::uint64_t limit_;
  std::uint64_t t_ = 0;
};

/// Transposed-form FIR filter with fixed coefficients.
class FirFilter final : public Process {
 public:
  FirFilter(std::string name, std::vector<Word> coefficients);
  void fire(const Word* in, Word* out) override;

 private:
  std::vector<Word> coefficients_;
  std::vector<Word> delay_line_;  // a ring; see fire()
  std::size_t newest_ = 0;        // slot of the newest sample
};

/// Multiplies the sample stream by the most recent gain. The AGC updates
/// the gain once every `period` samples (a cadence both sides know, as the
/// paper's "processing signal derived from the process operation"), so the
/// oracle requires the gain input only on those firings; the AGC marks
/// fresh tokens with bit 63 and the stage cross-checks the cadence.
///
/// The period must equal the period of the AgcControl feeding the "gain"
/// input. make_stream_graph passes one agc_period to both; a hand-built
/// SystemSpec that pairs different periods dies on a WP_CHECK mid-run.
class GainStage final : public Process {
 public:
  GainStage(std::string name, std::uint64_t period);
  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

  std::uint64_t period() const { return period_; }

 private:
  bool reads_gain() const { return firing_ > 0 && firing_ % period_ == 0; }

  std::uint64_t period_;
  std::uint64_t firing_ = 0;
  Word gain_ = static_cast<Word>(kFixOne);
};

/// Quantizer: clamps to a signed 12-bit range and re-expands; also forwards
/// the pre-clamp magnitude to the AGC.
class Quantizer final : public Process {
 public:
  explicit Quantizer(std::string name);
  void fire(const Word* in, Word* out) override;
};

/// AGC: accumulates magnitudes and, every `period` samples, emits a fresh
/// gain (bit 63 set) steering the average magnitude toward `target`; in
/// between it emits stale gain tokens the GainStage is blind to.
class AgcControl final : public Process {
 public:
  AgcControl(std::string name, std::uint64_t period, double target);
  void fire(const Word* in, Word* out) override;

  /// Tag of the token that carries a fresh gain: every period-th firing.
  static bool fresh(Word token) { return (token >> 63) & 1; }
  std::uint64_t period() const { return period_; }

 private:
  std::uint64_t period_;
  Word target_;
  std::uint64_t phase_ = 0;
  Word accumulator_ = 0;
  Word gain_ = static_cast<Word>(kFixOne);
};

/// How a StreamSink retains what it receives.
struct SinkOptions {
  /// false — stats-only (the default): count + order-sensitive digest +
  ///         an optional tail window, O(1) memory no matter how many
  ///         million tokens flow through;
  /// true  — retain every sample (tests that compare streams bit for bit;
  ///         memory grows with the run, reserve()d up front when the halt
  ///         limit is known).
  bool keep_samples = false;
  /// Stats-only mode: retain the most recent `tail_window` samples (0 =
  /// none) so long runs still expose a comparable suffix.
  std::size_t tail_window = 0;
};

/// Collects the output stream; halts after `limit` samples when limit > 0.
/// Every retention mode maintains count() and an order-sensitive FNV
/// digest() of the full word stream, so two sinks can be compared
/// byte-for-byte without either retaining the stream.
class StreamSink final : public Process {
 public:
  StreamSink(std::string name, std::uint64_t limit, SinkOptions options = {});
  void fire(const Word* in, Word* out) override;
  bool halted() const override;

  std::uint64_t count() const { return count_; }
  /// Digest of all received words in order (FNV-1a + avalanche combine).
  std::uint64_t digest() const { return digest_; }

  /// Full sample retention; requires keep_samples mode.
  const std::vector<Word>& samples() const;
  /// The last min(count, tail_window) samples, oldest first (stats-only
  /// mode; empty when tail_window is 0).
  std::vector<Word> tail() const;

 private:
  SinkOptions options_;
  std::uint64_t limit_;
  std::uint64_t count_ = 0;
  std::uint64_t digest_;
  std::vector<Word> samples_;  // keep_samples mode only
  std::vector<Word> tail_;     // stats-only ring, tail_pos_ = next slot
  std::size_t tail_pos_ = 0;
};

}  // namespace wp::stream
