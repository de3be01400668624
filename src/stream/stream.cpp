#include "stream/stream.hpp"

#include <algorithm>
#include <cmath>

#include "core/procs.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::stream {

namespace {

constexpr std::size_t kGainInSample = 0;
constexpr std::size_t kGainInGain = 1;
constexpr Word kFreshBit = Word{1} << 63;
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;  // FNV offset

std::int32_t as_signed(Word w) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
}

Word as_word(std::int64_t v) {
  return static_cast<Word>(static_cast<std::uint32_t>(
      static_cast<std::int32_t>(std::clamp<std::int64_t>(
          v, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()))));
}

}  // namespace

Word fix_from_double(double x) {
  // std::lround on NaN or a value outside long's range is undefined
  // behaviour; reject both before the conversion. The representable 16.16
  // range is [-32768, 32768) — anything outside it is a configuration bug
  // (a FIR tap or AGC target that cannot mean what it says), not a value
  // to clamp silently.
  WP_REQUIRE(std::isfinite(x), "fix_from_double: input must be finite");
  WP_REQUIRE(x >= -32768.0 && x < 32768.0,
             "fix_from_double: input outside the 16.16 range [-32768, 32768)");
  return as_word(static_cast<std::int64_t>(
      std::lround(x * static_cast<double>(kFixOne))));
}

double fix_to_double(Word w) {
  return static_cast<double>(as_signed(w)) /
         static_cast<double>(kFixOne);
}

Word fix_mul(Word a, Word b) {
  const std::int64_t product =
      static_cast<std::int64_t>(as_signed(a)) *
      static_cast<std::int64_t>(as_signed(b));
  return as_word(product >> 16);
}

// ---------------------------------------------------------------------------

SampleSource::SampleSource(std::string name, std::uint64_t seed,
                           std::uint64_t limit)
    : Process(std::move(name)), seed_(seed), limit_(limit) {
  add_output("out", 0);
}

void SampleSource::fire(const Word* /*in*/, Word* out) {
  // Two square waves under a slow envelope, plus bounded PRNG dither: a
  // deterministic signal with varying magnitude for the AGC to track.
  const std::int64_t envelope =
      ((t_ / 256) % 2 == 0) ? (kFixOne * 4 / 5) : (kFixOne * 3 / 10);
  std::int64_t s = 0;
  s += ((t_ / 7) % 2 == 0 ? 1 : -1) * (kFixOne * 3 / 10);
  s += ((t_ / 31) % 2 == 0 ? 1 : -1) * (kFixOne / 5);
  const std::int64_t dither =
      static_cast<std::int64_t>(hash_mix(t_ ^ seed_) % 2048) - 1024;
  s = ((s + dither) * envelope) >> 16;
  out[0] = as_word(s);
  ++t_;
}

bool SampleSource::halted() const { return limit_ != 0 && t_ >= limit_; }

// ---------------------------------------------------------------------------

FirFilter::FirFilter(std::string name, std::vector<Word> coefficients)
    : Process(std::move(name)), coefficients_(std::move(coefficients)) {
  WP_REQUIRE(!coefficients_.empty(), "FIR needs at least one tap");
  add_input("in", 0);
  add_output("out", 0);
  delay_line_.assign(coefficients_.size(), 0);
}

void FirFilter::fire(const Word* in, Word* out) {
  // The delay line is a ring, so a firing writes one slot and moves no
  // sample: the newest goes one slot before the previous newest, and the
  // sample k firings old sits k slots after it. Summing in tap order keeps
  // the result bit for bit.
  const std::size_t taps = coefficients_.size();
  newest_ = newest_ == 0 ? taps - 1 : newest_ - 1;
  delay_line_[newest_] = in[0];
  std::int64_t acc = 0;
  std::size_t slot = newest_;
  for (std::size_t k = 0; k < taps; ++k) {
    acc += static_cast<std::int64_t>(
        as_signed(fix_mul(delay_line_[slot], coefficients_[k])));
    slot = slot + 1 == taps ? 0 : slot + 1;
  }
  out[0] = as_word(acc);
}

// ---------------------------------------------------------------------------

GainStage::GainStage(std::string name, std::uint64_t period)
    : Process(std::move(name)), period_(period) {
  WP_REQUIRE(period_ >= 1, "gain period must be >= 1");
  declare_oracle();
  add_input("sample", 0);
  add_input("gain", static_cast<Word>(kFixOne));
  add_output("out", 0);
}

InputMask GainStage::required(const PeekView& /*peek*/) const {
  return reads_gain() ? 0b11u : 0b01u;
}

void GainStage::fire(const Word* in, Word* out) {
  if (reads_gain()) {
    const Word token = in[kGainInGain];
    WP_CHECK(AgcControl::fresh(token),
             "gain cadence mismatch between AGC and gain stage (GainStage "
             "and AgcControl periods differ)");
    gain_ = token & ~kFreshBit;
  }
  out[0] = fix_mul(in[kGainInSample], gain_);
  ++firing_;
}

// ---------------------------------------------------------------------------

Quantizer::Quantizer(std::string name) : Process(std::move(name)) {
  add_input("in", 0);
  add_output("out", 0);
  add_output("mag", 0);
}

void Quantizer::fire(const Word* in, Word* out) {
  const std::int32_t sample = as_signed(in[0]);
  // Clamp to a signed 12.16 range (the "ADC" headroom).
  constexpr std::int32_t kLimit = 2048 * kFixOne;
  const std::int32_t clamped = std::clamp(sample, -kLimit, kLimit);
  out[0] = as_word(clamped);
  out[1] = as_word(clamped < 0 ? -static_cast<std::int64_t>(clamped)
                               : clamped);
}

// ---------------------------------------------------------------------------

AgcControl::AgcControl(std::string name, std::uint64_t period, double target)
    : Process(std::move(name)),
      period_(period),
      target_(fix_from_double(target)) {
  WP_REQUIRE(period_ >= 1, "AGC period must be >= 1");
  WP_REQUIRE(target > 0, "AGC target must be positive");
  add_input("mag", 0);
  add_output("gain", static_cast<Word>(kFixOne));
}

void AgcControl::fire(const Word* in, Word* out) {
  accumulator_ += in[0] & 0xFFFFFFFFULL;
  ++phase_;
  if (phase_ == period_) {
    const std::uint64_t average = accumulator_ / period_;
    std::int64_t updated;
    if (average == 0) {
      updated = as_signed(gain_) * 2;
    } else {
      updated = static_cast<std::int64_t>(as_signed(gain_)) *
                static_cast<std::int64_t>(as_signed(target_)) /
                static_cast<std::int64_t>(average);
    }
    updated = std::clamp<std::int64_t>(updated, kFixOne / 16, kFixOne * 16);
    gain_ = static_cast<Word>(static_cast<std::uint32_t>(updated));
    accumulator_ = 0;
    phase_ = 0;
    out[0] = gain_ | kFreshBit;
  } else {
    out[0] = gain_;  // stale token: the gain stage is blind to it
  }
}

// ---------------------------------------------------------------------------

StreamSink::StreamSink(std::string name, std::uint64_t limit,
                       SinkOptions options)
    : Process(std::move(name)),
      options_(options),
      limit_(limit),
      digest_(kDigestSeed) {
  add_input("in", 0);
  if (options_.keep_samples) {
    // The halt limit bounds the retention exactly; reserving up front
    // keeps vector growth off the token path.
    if (limit_ > 0) samples_.reserve(static_cast<std::size_t>(limit_));
  } else if (options_.tail_window > 0) {
    tail_.assign(options_.tail_window, 0);
  }
}

void StreamSink::fire(const Word* in, Word* /*out*/) {
  const Word sample = in[0];
  ++count_;
  digest_ = hash_combine(digest_, sample);
  if (options_.keep_samples) {
    samples_.push_back(sample);
  } else if (options_.tail_window > 0) {
    tail_[tail_pos_] = sample;
    tail_pos_ = tail_pos_ + 1 == tail_.size() ? 0 : tail_pos_ + 1;
  }
}

bool StreamSink::halted() const {
  return limit_ != 0 && count_ >= limit_;
}

const std::vector<Word>& StreamSink::samples() const {
  WP_REQUIRE(options_.keep_samples,
             "StreamSink::samples() requires keep_samples mode; stats-only "
             "sinks expose count()/digest()/tail()");
  return samples_;
}

std::vector<Word> StreamSink::tail() const {
  if (options_.keep_samples) {
    const std::size_t n =
        std::min<std::size_t>(options_.tail_window, samples_.size());
    return {samples_.end() - static_cast<std::ptrdiff_t>(n), samples_.end()};
  }
  const std::size_t n = std::min<std::uint64_t>(tail_.size(), count_);
  std::vector<Word> out;
  out.reserve(n);
  // tail_pos_ is the oldest retained slot once the ring has wrapped.
  const std::size_t start = count_ >= tail_.size() ? tail_pos_ : 0;
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(tail_[(start + k) % tail_.size()]);
  return out;
}

}  // namespace wp::stream
