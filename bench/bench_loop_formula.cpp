// E6 — the theory section's claim Th = m/(m+n), "the worst loop dominates":
// simulated throughput of synthetic ring and multi-loop systems versus the
// analytic bound, for WP1 and WP2 shells, including a duty-cycled consumer
// that only WP2 can exploit. Exits 1 when a ring's WP1 and WP2 differ or
// miss m/(m+n) by more than one loop round's transient, or when a duty
// row's WP2 falls below its WP1.
#include <cmath>
#include <iostream>

#include "core/procs.hpp"
#include "core/system.hpp"
#include "graph/cycle_ratio.hpp"
#include "util/table.hpp"

namespace {

constexpr std::uint64_t kCycles = 4000;

wp::SystemSpec ring_system(int m) {
  wp::SystemSpec spec;
  for (int i = 0; i < m; ++i)
    spec.add_process("p" + std::to_string(i), [i]() {
      return std::make_unique<wp::IdentityProcess>("p" + std::to_string(i),
                                                   static_cast<wp::Word>(i));
    });
  for (int i = 0; i < m; ++i)
    spec.add_channel("p" + std::to_string(i), "out",
                     "p" + std::to_string((i + 1) % m), "in",
                     "ring" + std::to_string(i));
  return spec;
}

double simulated_throughput(const wp::SystemSpec& spec, bool oracle) {
  wp::ShellOptions opts;
  opts.use_oracle = oracle;
  wp::LidSystem lid = build_lid(spec, opts, false);
  for (std::uint64_t i = 0; i < kCycles; ++i) lid.network->step();
  std::uint64_t max_firings = 0;
  for (const auto& [name, shell] : lid.shells) {
    (void)name;
    max_firings = std::max(max_firings, lid.network->stats(shell).firings);
  }
  return static_cast<double>(max_firings) / static_cast<double>(kCycles);
}

}  // namespace

int main() {
  using namespace wp;
  bool ok = true;

  TextTable table({"system", "m", "n", "analytic m/(m+n)", "sim WP1",
                   "sim WP2"});
  table.add_section("Rings of strict identity stages");
  table.add_separator();
  for (const int m : {2, 3, 5}) {
    for (const int n : {0, 1, 2, 4}) {
      SystemSpec spec = ring_system(m);
      spec.set_connection_rs("ring0", n);
      const double analytic = static_cast<double>(m) / (m + n);
      const double wp1 = simulated_throughput(spec, false);
      const double wp2 = simulated_throughput(spec, true);
      table.add_row({"ring", std::to_string(m), std::to_string(n),
                     fmt_fixed(analytic, 3), fmt_fixed(wp1, 3),
                     fmt_fixed(wp2, 3)});
      // The first loop round fills the ring's m + n slots, so the firing
      // count may be off the bound by up to that many firings.
      const double transient = static_cast<double>(m + n) / kCycles;
      if (wp1 != wp2 || std::abs(wp1 - analytic) > transient) {
        std::cerr << "bench_loop_formula: ring m=" << m << " n=" << n
                  << ": WP1 " << wp1 << ", WP2 " << wp2
                  << ", analytic m/(m+n) " << analytic << "\n";
        ok = false;
      }
    }
  }
  table.print(std::cout);
  std::cout << "Strict stages read every input every firing, so WP1 = WP2 "
               "= m/(m+n)\nexactly — the paper's loop formula.\n\n";

  // A loop whose consumer reads the looped-back input only every k-th
  // firing: WP1 stays at the static bound, WP2 recovers toward 1.
  TextTable duty({"duty period k", "n", "WP1", "WP2",
                  "WP2 gain"});
  duty.add_section(
      "2-block loop, consumer reads the feedback input 1-in-k firings");
  duty.add_separator();
  for (const int k : {1, 2, 4, 8}) {
    for (const int n : {1, 2}) {
      SystemSpec spec;
      spec.add_process("duty", [k]() {
        return std::make_unique<DutyCycleProcess>(
            "duty", static_cast<std::uint64_t>(k));
      });
      spec.add_process("echo", []() {
        return std::make_unique<IdentityProcess>("echo", 1);
      });
      // duty.out -> echo.in -> echo.out -> duty.b closes the relaxable
      // loop; duty.a is fed by a free-running source.
      spec.add_process("src", []() {
        return std::make_unique<CounterSource>("src");
      });
      spec.add_channel("src", "out", "duty", "a");
      spec.add_channel("duty", "out", "echo", "in");
      spec.add_channel("echo", "out", "duty", "b", "loopback");
      spec.set_connection_rs("loopback", n);
      const double wp1 = simulated_throughput(spec, false);
      const double wp2 = simulated_throughput(spec, true);
      duty.add_row({std::to_string(k), std::to_string(n), fmt_fixed(wp1, 3),
                    fmt_fixed(wp2, 3), fmt_percent(wp2 / wp1 - 1.0)});
      if (wp2 < wp1) {
        std::cerr << "bench_loop_formula: duty k=" << k << " n=" << n
                  << ": WP2 " << wp2 << " below WP1 " << wp1 << "\n";
        ok = false;
      }
    }
  }
  duty.print(std::cout);
  std::cout << "The oracle's relaxation of synchronicity converts unused "
               "loop slack\ninto throughput — the WP2 mechanism of the "
               "paper, isolated.\n";
  return ok ? 0 : 1;
}
