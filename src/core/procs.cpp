#include "core/procs.hpp"

#include "util/assert.hpp"

namespace wp {

Word hash_mix(Word x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------

CounterSource::CounterSource(std::string name, Word start, Word stride,
                             std::uint64_t limit)
    : Process(std::move(name)), start_(start), stride_(stride),
      limit_(limit), next_(start) {
  add_output("out", start);
}

void CounterSource::fire(const Word* /*in*/, Word* out) {
  out[0] = next_;
  next_ += stride_;
  ++fired_;
}

void CounterSource::reset() {
  next_ = start_;
  fired_ = 0;
}

bool CounterSource::halted() const { return limit_ != 0 && fired_ >= limit_; }

// ---------------------------------------------------------------------------

IdentityProcess::IdentityProcess(std::string name, Word reset_out)
    : Process(std::move(name)) {
  add_input("in");
  add_output("out", reset_out);
}

void IdentityProcess::fire(const Word* in, Word* out) { out[0] = in[0]; }

// ---------------------------------------------------------------------------

AdderProcess::AdderProcess(std::string name) : Process(std::move(name)) {
  add_input("a");
  add_input("b");
  add_output("sum", 0);
}

void AdderProcess::fire(const Word* in, Word* out) { out[0] = in[0] + in[1]; }

// ---------------------------------------------------------------------------

AccumulatorProcess::AccumulatorProcess(std::string name)
    : Process(std::move(name)) {
  add_input("in");
  add_output("out", 0);
}

void AccumulatorProcess::fire(const Word* in, Word* out) {
  out[0] = acc_;
  acc_ += in[0];
}

// ---------------------------------------------------------------------------

SinkProcess::SinkProcess(std::string name, std::uint64_t limit)
    : Process(std::move(name)), limit_(limit) {
  add_input("in");
}

void SinkProcess::fire(const Word* in, Word* /*out*/) {
  received_.push_back(in[0]);
}

void SinkProcess::reset() { received_.clear(); }

bool SinkProcess::halted() const {
  return limit_ != 0 && received_.size() >= limit_;
}

// ---------------------------------------------------------------------------

DutyCycleProcess::DutyCycleProcess(std::string name, std::uint64_t period)
    : Process(std::move(name)), period_(period) {
  WP_REQUIRE(period_ >= 1, "duty-cycle period must be >= 1");
  declare_oracle();
  add_input("a");
  add_input("b");
  add_output("out", 0);
}

InputMask DutyCycleProcess::required(const PeekView& /*peek*/) const {
  // Input b's token is read only on the firings where phase hits 0.
  return phase_ == 0 ? 0b11u : 0b01u;
}

void DutyCycleProcess::fire(const Word* in, Word* out) {
  out[0] = phase_ == 0 ? in[0] + in[1] : in[0];
  phase_ = (phase_ + 1) % period_;
}

// ---------------------------------------------------------------------------

RandomMooreProcess::RandomMooreProcess(std::string name,
                                       std::size_t num_inputs,
                                       std::size_t num_outputs,
                                       std::size_t num_states, Rng& rng,
                                       bool use_peek_gate)
    : Process(std::move(name)), use_peek_gate_(use_peek_gate) {
  // 32 is the InputMask width; scale-free topology hubs (gen/) get here
  // with fan-ins well past the old cap of 8.
  WP_REQUIRE(num_inputs >= 1 && num_inputs <= 32, "1..32 inputs supported");
  WP_REQUIRE(num_outputs >= 1, "need at least one output");
  WP_REQUIRE(num_states >= 1, "need at least one state");
  declare_oracle();
  for (std::size_t i = 0; i < num_inputs; ++i)
    add_input("in" + std::to_string(i));
  for (std::size_t o = 0; o < num_outputs; ++o)
    add_output("out" + std::to_string(o),
               hash_mix(0xABCD0000 + o));  // distinctive reset values

  gate_input_ = static_cast<std::size_t>(rng.below(num_inputs));
  const InputMask all = all_inputs_mask(num_inputs);
  // Widen before the +1: at 32 inputs `all` is 0xFFFFFFFF and the uint32
  // sum would wrap to a zero bound.
  const std::uint64_t mask_bound = static_cast<std::uint64_t>(all) + 1;
  table_.resize(num_states);
  for (auto& entry : table_) {
    entry.base_mask = static_cast<InputMask>(rng.below(mask_bound));
    if (use_peek_gate_) entry.base_mask |= InputMask{1} << gate_input_;
    entry.extra_mask = static_cast<InputMask>(rng.below(mask_bound)) & all;
  }
}

InputMask RandomMooreProcess::final_mask(InputMask base,
                                         Word gate_value) const {
  InputMask mask = base;
  if (use_peek_gate_ && (gate_value & 1))
    mask |= table_[state_].extra_mask;
  return mask;
}

InputMask RandomMooreProcess::required(const PeekView& peek) const {
  const InputMask base = table_[state_].base_mask;
  if (!use_peek_gate_) return base;
  // Monotone growth: until the gate token is here, ask only for the base
  // set; once it is peekable, its low bit may add the extra mask.
  if (!peek.available(gate_input_)) return base;
  return final_mask(base, peek.value(gate_input_));
}

void RandomMooreProcess::fire(const Word* in, Word* out) {
  const InputMask base = table_[state_].base_mask;
  const Word gate_value = use_peek_gate_ ? in[gate_input_] : 0;
  const InputMask mask = final_mask(base, gate_value);

  // Digest exactly the inputs named by the final mask (oracle soundness).
  Word digest = hash_mix(static_cast<Word>(state_) * 0x51ED2701u + 17);
  for (std::size_t i = 0; i < inputs().size(); ++i)
    if ((mask >> i) & 1u) digest = hash_mix(digest ^ in[i] ^ (Word{i} << 56));

  for (std::size_t o = 0; o < outputs().size(); ++o)
    out[o] = hash_mix(digest + o);
  state_ = static_cast<std::size_t>(digest % table_.size());
}

}  // namespace wp
