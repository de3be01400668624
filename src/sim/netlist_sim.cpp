#include "sim/netlist_sim.hpp"

#include <limits>

#include "core/netlist_text.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::sim {

NetlistSimResult simulate_netlist(const std::string& netlist,
                                  const std::map<std::string, int>& rs,
                                  const NetlistSimOptions& options,
                                  GoldenCache* cache) {
  WP_REQUIRE(options.golden_cycles > 0 && options.wp_cycles > 0,
             "simulation horizons must be positive");
  NetlistSimResult result;
  auto note = [&result](const std::string& msg) {
    if (result.detail.empty()) result.detail = msg;
  };

  const auto compute = [&]() {
    const ParsedSystem parsed = parse_system(netlist, default_registry());
    GoldenSim golden(parsed.spec, /*record_trace=*/true);
    for (std::uint64_t c = 0; c < options.golden_cycles; ++c) golden.step();
    GoldenRecord record;
    record.cycles = options.golden_cycles;
    record.halted = golden.halted();
    record.trace = golden.trace();
    record.fingerprint = trace_fingerprint(record.trace);
    return record;
  };

  const std::string key =
      "netlist:" + hash_hex(hash_string(netlist)) + ":g" +
      std::to_string(options.golden_cycles);
  const std::shared_ptr<const GoldenRecord> golden_record =
      cache != nullptr
          ? cache->get_or_run(key, compute)
          : std::make_shared<const GoldenRecord>(compute());
  result.golden_fingerprint = golden_record->fingerprint;

  ParsedSystem parsed = parse_system(netlist, default_registry());
  parsed.spec.set_rs_map(rs);

  for (const bool oracle : {false, true}) {
    ShellOptions shell;
    shell.use_oracle = oracle;
    shell.fifo_capacity = options.fifo_capacity;
    LidSystem lid =
        build_lid(parsed.spec, shell, options.check_equivalence);
    for (std::uint64_t c = 0; c < options.wp_cycles; ++c)
      lid.network->step();

    std::uint64_t slowest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [name, sh] : lid.shells) {
      (void)name;
      slowest = std::min(slowest, lid.network->stats(sh).firings);
    }
    const double th = static_cast<double>(slowest) /
                      static_cast<double>(options.wp_cycles);
    if (slowest == 0)
      note(std::string(oracle ? "WP2" : "WP1") + " made no progress");

    bool equivalent = true;
    if (options.check_equivalence) {
      const auto eq = check_equivalence(golden_record->trace, lid.trace);
      equivalent = eq.equivalent;
      if (!eq.equivalent)
        note(std::string(oracle ? "WP2" : "WP1") +
             " not equivalent to golden: " + eq.detail);
    }

    if (oracle) {
      result.th_wp2 = th;
      result.wp2_firings = slowest;
      result.wp2_equivalent = equivalent;
    } else {
      result.th_wp1 = th;
      result.wp1_firings = slowest;
      result.wp1_equivalent = equivalent;
    }
  }
  return result;
}

}  // namespace wp::sim
