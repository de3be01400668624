// Processor tour: assemble a custom program, run it on the golden machine
// and on a wire-pipelined WP2 machine, verify the results and equivalence,
// and dump a VCD waveform of the CU-IC bundle for a waveform viewer.
#include <fstream>
#include <iostream>

#include "core/vcd.hpp"
#include "proc/assembler.hpp"
#include "proc/blocks.hpp"
#include "proc/cpu.hpp"
#include "proc/experiment.hpp"

int main() {
  using namespace wp;
  using namespace wp::proc;

  // A program of your own: mem[i] = fib(i) for i in 0..9.
  ProgramSpec program;
  program.name = "fibonacci";
  program.source = R"(
        li   r1, 0         ; fib(i-2)
        li   r2, 1         ; fib(i-1)
        li   r3, 0         ; i
        li   r4, 10        ; bound
        st   r1, 0(r3)
        addi r3, r3, 1
        st   r2, 0(r3)
loop:   addi r3, r3, 1
        cmp  r3, r4
        bge  done
        add  r5, r1, r2    ; fib(i)
        st   r5, 0(r3)
        add  r1, r2, r0    ; shift window
        add  r2, r5, r0
        jmp  loop
done:   halt
  )";
  program.ram.assign(16, 0);
  program.verify = [](const std::vector<std::uint32_t>& ram,
                      std::string* error) {
    const std::uint32_t expected[10] = {0, 1, 1, 2, 3, 5, 8, 13, 21, 34};
    for (int i = 0; i < 10; ++i)
      if (ram[static_cast<std::size_t>(i)] != expected[i]) {
        if (error) *error = "fib mismatch at " + std::to_string(i);
        return false;
      }
    return true;
  };

  // Show the assembler's listing.
  const AssemblyResult assembly = assemble(program.source);
  std::cout << "Assembled " << assembly.rom.size() << " instructions:\n";
  for (std::size_t pc = 0; pc < assembly.listing.size(); ++pc)
    std::cout << "  " << pc << ": " << to_string(assembly.listing[pc])
              << "\n";

  // One experiment row: golden + WP1 + WP2 under a mixed RS configuration.
  RsConfig config{"demo", {{"CU-IC", 1}, {"RF-DC", 2}, {"ALU-RF", 1}}};
  const ExperimentRow row = run_experiment(program, {}, config);
  std::cout << "\ngolden " << row.golden_cycles << " cycles, WP1 "
            << row.wp1_cycles << " (Th " << row.th_wp1 << "), WP2 "
            << row.wp2_cycles << " (Th " << row.th_wp2 << ")\n"
            << "results correct: " << (row.result_ok ? "yes" : "NO")
            << ", equivalent: "
            << (row.wp1_equivalent && row.wp2_equivalent ? "yes" : "NO")
            << "\n";

  // Waveform of the fetch bundle in the WP2 machine.
  SystemSpec spec = make_cpu_system(program, {});
  spec.set_rs_map(config.rs);
  ShellOptions shell;
  shell.use_oracle = true;
  LidSystem lid = build_lid(spec, shell, false);
  std::ofstream file("processor_tour.vcd");
  VcdWriter vcd(file, *lid.network, "wp2_cpu");
  // Channel wires are named "CU.iaddr->IC.addr#k"; record the CU-IC bundle.
  for (WireId w = 0; w < lid.network->wire_count(); ++w) {
    const std::string& name = lid.network->wire_name(w);
    if (name.find("CU.iaddr") != std::string::npos ||
        name.find("IC.instr") != std::string::npos)
      vcd.add_wire(w);
  }
  vcd.finalize_header();
  for (Cycle c = 0; c < 200 && !lid.network->halted(lid.shells.at("CU")); ++c) {
    lid.network->step();
    vcd.sample(c);
  }
  std::cout << "\nWrote processor_tour.vcd (open with GTKWave).\n";
  return 0;
}
