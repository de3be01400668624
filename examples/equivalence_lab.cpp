// Equivalence lab: the paper's formal side, hands-on. Builds a random
// system of Moore machines with communication oracles, runs golden / WP1 /
// WP2, shows the τ-filtered streams side by side, and demonstrates how an
// UNSOUND oracle is caught by the poisoning instrumentation.
#include <iostream>

#include "core/procs.hpp"
#include "core/system.hpp"
#include "util/rng.hpp"

namespace {

// A deliberately broken block: claims it never needs input "b" but reads it.
class LyingProcess final : public wp::Process {
 public:
  LyingProcess() : Process("liar") {
    declare_oracle();
    add_input("a");
    add_input("b");
    add_output("out", 0);
  }
  wp::InputMask required(const wp::PeekView&) const override { return 0b01; }
  void fire(const wp::Word* in, wp::Word* out) override {
    out[0] = in[0] ^ in[1];  // reads b despite not asking for it
  }
};

}  // namespace

int main() {
  using namespace wp;

  // --- Part 1: a sound random system is N-equivalent for every N --------
  SystemSpec spec;
  Rng rng(2025);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed = rng();
    spec.add_process("m" + std::to_string(i), [seed]() {
      Rng r(seed);
      return std::make_unique<RandomMooreProcess>("m", 2, 2, 4, r);
    });
  }
  for (int i = 0; i < 3; ++i) {
    spec.add_channel("m" + std::to_string(i), "out0",
                     "m" + std::to_string((i + 1) % 3), "in0");
    spec.add_channel("m" + std::to_string(i), "out1",
                     "m" + std::to_string((i + 2) % 3), "in1");
  }
  spec.set_all_rs(2);

  GoldenSim golden(spec, true);
  for (int i = 0; i < 300; ++i) golden.step();

  for (const bool oracle : {false, true}) {
    ShellOptions options;
    options.use_oracle = oracle;
    LidSystem lid = build_lid(spec, options, true);
    for (int i = 0; i < 1200; ++i) lid.network->step();
    const auto eq = check_equivalence(golden.trace(), lid.trace);
    std::cout << (oracle ? "WP2" : "WP1") << ": checked "
              << eq.events_checked << " events, equivalent: "
              << (eq.equivalent ? "yes" : "NO (" + eq.detail + ")") << "\n";
  }

  // Show the first few τ-filtered values of one stream.
  std::cout << "\nFirst 6 values of stream m0.out0 (tag order): ";
  const auto& stream = golden.trace().at("m0.out0");
  for (std::size_t k = 0; k < 6 && k < stream.size(); ++k)
    std::cout << stream[k] << (k + 1 < 6 ? ", " : "\n");

  // --- Part 2: an unsound oracle is caught ------------------------------
  SystemSpec bad;
  bad.add_process("liar", []() { return std::make_unique<LyingProcess>(); });
  bad.add_process("echo1", []() {
    return std::make_unique<IdentityProcess>("echo1", 1);
  });
  bad.add_process("echo2", []() {
    return std::make_unique<IdentityProcess>("echo2", 2);
  });
  bad.add_channel("liar", "out", "echo1", "in");
  bad.add_channel("echo1", "out", "liar", "a");
  bad.add_channel("liar", "out", "echo2", "in");
  bad.add_channel("echo2", "out", "liar", "b", "slow");
  bad.set_connection_rs("slow", 2);

  GoldenSim bad_golden(bad, true);
  for (int i = 0; i < 100; ++i) bad_golden.step();
  ShellOptions wp2;
  wp2.use_oracle = true;  // poison_unrequired defaults to true
  LidSystem lid = build_lid(bad, wp2, true);
  for (int i = 0; i < 400; ++i) lid.network->step();
  const auto eq = check_equivalence(bad_golden.trace(), lid.trace);
  std::cout << "\nUnsound oracle demo: equivalent? "
            << (eq.equivalent ? "yes (BUG NOT CAUGHT)" : "no — caught")
            << "\n  " << eq.detail << "\n"
            << "The wrapper poisons available-but-unrequested inputs, so a "
               "process\nthat lies about its communication profile diverges "
               "loudly instead of\nsilently depending on arrival timing.\n";
  return 0;
}
