// wirepipe_cli — drive the library from a netlist file, no C++ required.
//
//   wirepipe_cli analyze  <netlist>            loop inventory + system Th
//   wirepipe_cli simulate <netlist> [options]  golden/WP1/WP2 run
//       --cycles N      simulate N cycles (default 10000, or until halt)
//       --mode M        golden | wp1 | wp2 (default wp2)
//       --noise P       per-channel stall probability
//   wirepipe_cli profile  <netlist> [--cycles N]   communication profile
//   wirepipe_cli dot      <netlist>            Graphviz of the topology
//   wirepipe_cli types                          list registered blocks
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/netlist_text.hpp"
#include "util/assert.hpp"
#include "core/profile.hpp"
#include "core/system.hpp"
#include "graph/dot.hpp"
#include "graph/throughput.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace wp;

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  WP_REQUIRE(file.good(), "cannot open netlist file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

graph::Digraph to_graph(const SystemSpec& spec) {
  graph::Digraph g;
  for (const auto& name : spec.process_names()) g.add_node(name);
  for (const auto& ch : spec.channels())
    g.add_edge(g.find_node(ch.from), g.find_node(ch.to), ch.connection,
               ch.relay_stations);
  return g;
}

int cmd_analyze(const ParsedSystem& parsed) {
  const auto report = graph::analyze_throughput(to_graph(parsed.spec));
  TextTable table({"Netlist loop", "m", "n", "Th = m/(m+n)"});
  for (const auto& loop : report.loops)
    table.add_row({loop.description, std::to_string(loop.m),
                   std::to_string(loop.n), fmt_fixed(loop.throughput, 3)});
  table.print(std::cout);
  std::cout << "system throughput (WP1 bound): "
            << fmt_fixed(report.system_throughput, 3);
  if (!report.critical_loop.empty())
    std::cout << "  [" << report.critical_loop << "]";
  std::cout << "\n";
  return 0;
}

int cmd_simulate(const ParsedSystem& parsed, std::uint64_t cycles,
                 const std::string& mode, double noise_p) {
  if (mode == "golden") {
    GoldenSim golden(parsed.spec, false);
    const std::uint64_t ran = golden.run_until_halt(cycles);
    std::cout << "golden: ran " << ran << " cycles, halted: "
              << (golden.halted() ? "yes" : "no") << "\n";
    return 0;
  }
  ShellOptions shell;
  shell.use_oracle = mode == "wp2";
  NoiseOptions noise;
  noise.stall_probability = noise_p;
  LidSystem lid = build_lid(parsed.spec, shell, false, noise);
  const std::uint64_t ran = lid.run_until_halt(cycles, 0);
  TextTable table({"shell", "firings", "throughput", "input stalls",
                   "output stalls", "discarded"});
  for (const auto& [name, s] : lid.shells) {
    const auto& st = lid.network->stats(s);
    table.add_row({name, std::to_string(st.firings),
                   fmt_fixed(static_cast<double>(st.firings) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     ran, 1)),
                             3),
                   std::to_string(st.stalls_input),
                   std::to_string(st.stalls_output),
                   std::to_string(st.discarded_tokens)});
  }
  std::cout << mode << ": ran " << ran << " cycles\n";
  table.print(std::cout);
  return 0;
}

int cmd_profile(const ParsedSystem& parsed, std::uint64_t cycles) {
  const CommunicationProfile profile =
      profile_communication(parsed.spec, cycles);
  TextTable table({"consumer input", "firings", "required",
                   "excitation rate"});
  for (const auto& input : profile.inputs)
    table.add_row({input.process + "." + input.port,
                   std::to_string(input.firings),
                   std::to_string(input.required),
                   fmt_fixed(input.excitation_rate(), 3)});
  table.print(std::cout);
  std::cout << "Rates near 1.0: the WP2 wrapper cannot relax that channel; "
               "low rates\npredict large WP2 recovery when the channel is "
               "pipelined.\n";
  return 0;
}

int usage() {
  std::cout <<
      "usage: wirepipe_cli <analyze|simulate|profile|dot|types> "
      "[netlist] [options]\n"
      "  simulate options: --cycles N  --mode golden|wp1|wp2  --noise P\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const ProcessRegistry registry = default_registry();

    if (command == "types") {
      for (const auto& type : registry.types()) std::cout << type << "\n";
      return 0;
    }
    if (argc < 3) return usage();
    const ParsedSystem parsed =
        parse_system(read_file(argv[2]), registry);

    std::uint64_t cycles = 10000;
    std::string mode = "wp2";
    double noise = 0.0;
    for (int i = 3; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--cycles")
        cycles = static_cast<std::uint64_t>(wp::parse_int(value));
      else if (flag == "--mode")
        mode = value;
      else if (flag == "--noise")
        noise = wp::parse_double(value);
      else
        return usage();
    }

    if (command == "analyze") return cmd_analyze(parsed);
    if (command == "simulate") {
      if (mode != "golden" && mode != "wp1" && mode != "wp2") return usage();
      return cmd_simulate(parsed, cycles, mode, noise);
    }
    if (command == "profile") return cmd_profile(parsed, cycles);
    if (command == "dot") {
      wp::graph::DotOptions options;
      options.title = parsed.name.empty() ? "wirepipe system" : parsed.name;
      std::cout << to_dot(to_graph(parsed.spec), options);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
