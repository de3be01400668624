// Directed tests of the five processor blocks: port-level unit tests of
// IC/DC/RF/ALU (fired by hand) and golden-simulation tests of the control
// unit's dispatch, hazard and branch machinery via small programs.
#include <gtest/gtest.h>

#include "util/assert.hpp"

#include "proc/blocks.hpp"
#include "proc/cpu.hpp"
#include "proc/experiment.hpp"

namespace wp::proc {
namespace {

// ------------------------------------------------------------------ IC

TEST(Icache, FetchAndBubble) {
  IcacheBlock ic({encode({Opcode::kLi, 1, 0, 0, 7}),
                  encode({Opcode::kHalt, 0, 0, 0, 0})});
  Word in[1], out[1];
  in[0] = FetchReq{true, 0}.pack();
  ic.fire(in, out);
  EXPECT_TRUE(FetchResp::unpack(out[0]).valid);
  EXPECT_EQ(decode(FetchResp::unpack(out[0]).instr_word).op, Opcode::kLi);

  in[0] = FetchReq{false, 0}.pack();
  ic.fire(in, out);
  EXPECT_FALSE(FetchResp::unpack(out[0]).valid);
}

TEST(Icache, OutOfRangeReadsAsHalt) {
  IcacheBlock ic({encode({Opcode::kNop, 0, 0, 0, 0})});
  Word in[1], out[1];
  in[0] = FetchReq{true, 100}.pack();
  ic.fire(in, out);
  EXPECT_EQ(decode(FetchResp::unpack(out[0]).instr_word).op, Opcode::kHalt);
}

// ------------------------------------------------------------------ DC

TEST(Dcache, LoadStoreAndStickyOutput) {
  DcacheBlock dc({10, 20, 30});
  Word in[3], out[1];
  // Store 99 at address 1.
  in[0] = DcCtl{false, MemKind::kStore}.pack();
  in[1] = 1;
  in[2] = 99;
  dc.fire(in, out);
  EXPECT_EQ(dc.memory()[1], 99u);
  // Load address 1.
  in[0] = DcCtl{false, MemKind::kLoad}.pack();
  dc.fire(in, out);
  EXPECT_EQ(out[0], 99u);
  // Bubble: output must stick (Moore determinism), memory untouched.
  in[0] = DcCtl{}.pack();
  in[1] = kPoisonWord;
  in[2] = kPoisonWord;
  dc.fire(in, out);
  EXPECT_EQ(out[0], 99u);
  EXPECT_EQ(dc.memory()[1], 99u);
}

TEST(Dcache, OutOfBoundsAccessThrows) {
  DcacheBlock dc({1, 2});
  Word in[3], out[1];
  in[0] = DcCtl{false, MemKind::kLoad}.pack();
  in[1] = 50;
  in[2] = 0;
  EXPECT_THROW(dc.fire(in, out), wp::ContractViolation);
}

TEST(Dcache, OracleAsksForExactlyWhatTheOpNeeds) {
  DcacheBlock dc({0});
  const Word load_ctl = DcCtl{false, MemKind::kLoad}.pack();
  const Word store_ctl = DcCtl{false, MemKind::kStore}.pack();
  const Word bubble_ctl = DcCtl{}.pack();
  InputMask avail = 0b001;
  Word values[3] = {bubble_ctl, 0, 0};
  EXPECT_EQ(dc.required(PeekView(avail, values, 3)), 0b001u);
  values[0] = load_ctl;
  EXPECT_EQ(dc.required(PeekView(avail, values, 3)), 0b011u);
  values[0] = store_ctl;
  EXPECT_EQ(dc.required(PeekView(avail, values, 3)), 0b111u);
  // Control not yet available: only the control is required so far.
  avail = 0;
  EXPECT_EQ(dc.required(PeekView(avail, values, 3)), 0b001u);
}

// ------------------------------------------------------------------ RF

TEST(RegFile, ReadsAndSchedulesWriteback) {
  RegFileBlock rf;
  Word in[3], out[2];

  // Firing 0: dispatch "add r3 <- rs1=0, rs2=0" style control.
  RfCtl ctl;
  ctl.bubble = false;
  ctl.rs1 = 0;
  ctl.rs2 = 0;
  ctl.wb_kind = WbKind::kAlu;
  ctl.wb_reg = 3;
  in[0] = ctl.pack();
  in[1] = kPoisonWord;  // no writeback scheduled yet
  in[2] = kPoisonWord;
  rf.fire(in, out);
  EXPECT_EQ(Operands::unpack(out[0]).a, 0u);

  // Firing 1: bubble.
  in[0] = RfCtl{}.pack();
  rf.fire(in, out);

  // Firing 2: the ALU writeback arrives (scheduled for firing 0+2); a read
  // of r3 in the same firing must see the new value.
  RfCtl read_ctl;
  read_ctl.bubble = false;
  read_ctl.rs1 = 3;
  read_ctl.rs2 = 3;
  in[0] = read_ctl.pack();
  in[1] = 777;  // the writeback value
  rf.fire(in, out);
  EXPECT_EQ(rf.registers()[3], 777u);
  EXPECT_EQ(Operands::unpack(out[0]).a, 777u);
}

TEST(RegFile, OracleRequiresWbOnlyWhenScheduled) {
  RegFileBlock rf;
  const InputMask avail = 0b111;
  Word values[3] = {RfCtl{}.pack(), 0, 0};
  EXPECT_EQ(rf.required(PeekView(avail, values, 3)), 0b001u);

  Word in[3], out[2];
  RfCtl ctl;
  ctl.bubble = false;
  ctl.wb_kind = WbKind::kLoad;
  ctl.wb_reg = 2;
  in[0] = ctl.pack();
  in[1] = kPoisonWord;
  in[2] = kPoisonWord;
  rf.fire(in, out);                   // firing 0 schedules load at firing 3
  in[0] = RfCtl{}.pack();
  rf.fire(in, out);                   // firing 1
  rf.fire(in, out);                   // firing 2
  EXPECT_EQ(rf.required(PeekView(avail, values, 3)), 0b101u);  // load needed
}

TEST(RegFile, StoreValueStagedOneFiring) {
  RegFileBlock rf;
  Word in[3], out[2];
  // Preload r1 via a load writeback path: schedule, then deliver 55.
  RfCtl ctl;
  ctl.bubble = false;
  ctl.wb_kind = WbKind::kAlu;
  ctl.wb_reg = 1;
  in[0] = ctl.pack();
  in[1] = kPoisonWord;
  in[2] = kPoisonWord;
  rf.fire(in, out);  // firing 0, wb at firing 2
  in[0] = RfCtl{}.pack();
  rf.fire(in, out);  // firing 1
  in[1] = 55;
  rf.fire(in, out);  // firing 2 commits r1 = 55

  // Firing 3: store reads rs2 = r1; value must appear on the store output
  // at firing 4, not 3.
  RfCtl store_ctl;
  store_ctl.bubble = false;
  store_ctl.rs2 = 1;
  store_ctl.store = true;
  in[0] = store_ctl.pack();
  in[1] = kPoisonWord;
  rf.fire(in, out);
  EXPECT_NE(out[1], 55u);
  in[0] = RfCtl{}.pack();
  rf.fire(in, out);
  EXPECT_EQ(out[1], 55u);
}

// ------------------------------------------------------------------ ALU

TEST(Alu, ComputesAllOps) {
  AluBlock alu;
  Word in[2], out[3];
  auto run = [&](Opcode op, std::uint32_t a, std::uint32_t b, bool use_imm,
                 std::int32_t imm) {
    AluCtl ctl;
    ctl.bubble = false;
    ctl.op = op;
    ctl.use_imm = use_imm;
    ctl.imm = imm;
    in[0] = ctl.pack();
    in[1] = Operands{a, b}.pack();
    alu.fire(in, out);
    return static_cast<std::uint32_t>(out[1]);
  };
  EXPECT_EQ(run(Opcode::kAdd, 3, 4, false, 0), 7u);
  EXPECT_EQ(run(Opcode::kSub, 10, 4, false, 0), 6u);
  EXPECT_EQ(run(Opcode::kMul, 6, 7, false, 0), 42u);
  EXPECT_EQ(run(Opcode::kAnd, 0b1100, 0b1010, false, 0), 0b1000u);
  EXPECT_EQ(run(Opcode::kOr, 0b1100, 0b1010, false, 0), 0b1110u);
  EXPECT_EQ(run(Opcode::kXor, 0b1100, 0b1010, false, 0), 0b0110u);
  EXPECT_EQ(run(Opcode::kAddi, 5, 99, true, -2), 3u);
  EXPECT_EQ(run(Opcode::kLi, 123, 456, true, 9), 9u);
  EXPECT_EQ(run(Opcode::kLd, 100, 0, true, 8), 108u);  // address arithmetic
}

TEST(Alu, FlagsAreStickyAndOnlyCmpWrites) {
  AluBlock alu;
  Word in[2], out[3];
  AluCtl cmp;
  cmp.bubble = false;
  cmp.op = Opcode::kCmp;
  in[0] = cmp.pack();
  in[1] = Operands{3, 5}.pack();
  alu.fire(in, out);
  Flags f = Flags::unpack(out[0]);
  EXPECT_FALSE(f.eq);
  EXPECT_TRUE(f.lt);

  // An ADD afterwards must not disturb the flags.
  AluCtl add;
  add.bubble = false;
  add.op = Opcode::kAdd;
  in[0] = add.pack();
  in[1] = Operands{9, 9}.pack();
  alu.fire(in, out);
  f = Flags::unpack(out[0]);
  EXPECT_FALSE(f.eq);
  EXPECT_TRUE(f.lt);

  // Bubbles hold flags and result.
  in[0] = AluCtl{}.pack();
  in[1] = kPoisonWord;
  alu.fire(in, out);
  EXPECT_EQ(out[1], 18u);
  EXPECT_TRUE(Flags::unpack(out[0]).lt);
}

TEST(Alu, SignedComparison) {
  AluBlock alu;
  Word in[2], out[3];
  AluCtl cmp;
  cmp.bubble = false;
  cmp.op = Opcode::kCmp;
  in[0] = cmp.pack();
  in[1] = Operands{static_cast<std::uint32_t>(-5), 3}.pack();
  alu.fire(in, out);
  EXPECT_TRUE(Flags::unpack(out[0]).lt);  // -5 < 3 signed
}

TEST(Alu, OracleSkipsOperandsForLi) {
  AluBlock alu;
  AluCtl li;
  li.bubble = false;
  li.op = Opcode::kLi;
  li.use_imm = true;
  const Word ctl_word = li.pack();
  const InputMask avail = 0b01;
  Word values[2] = {ctl_word, 0};
  EXPECT_EQ(alu.required(PeekView(avail, values, 2)), 0b01u);
  AluCtl add;
  add.bubble = false;
  add.op = Opcode::kAdd;
  values[0] = add.pack();
  EXPECT_EQ(alu.required(PeekView(avail, values, 2)), 0b11u);
}

// ------------------------------------------------------- CU via GoldenSim

/// Runs a program on the golden pipelined machine and returns the final DC.
std::vector<std::uint32_t> run_golden(const std::string& source,
                                      std::vector<std::uint32_t> ram,
                                      std::uint64_t* cycles = nullptr,
                                      bool multicycle = false) {
  ProgramSpec prog;
  prog.name = "test";
  prog.source = source;
  prog.ram = std::move(ram);
  prog.verify = [](const std::vector<std::uint32_t>&, std::string*) {
    return true;
  };
  CpuConfig config;
  config.multicycle = multicycle;
  GoldenSim golden(make_cpu_system(prog, config), false);
  const std::uint64_t n = golden.run_until_halt(100000);
  EXPECT_TRUE(golden.halted());
  if (cycles) *cycles = n;
  const auto& dc = dynamic_cast<const DcacheBlock&>(golden.process("DC"));
  return dc.memory();
}

TEST(ControlUnit, StraightLineStores) {
  const auto mem = run_golden(R"(
      li r1, 11
      li r2, 22
      st r1, 0(r0)
      st r2, 1(r0)
      halt
  )",
                              {0, 0, 0, 0});
  EXPECT_EQ(mem[0], 11u);
  EXPECT_EQ(mem[1], 22u);
}

TEST(ControlUnit, RawHazardInterlock) {
  // r2 depends on r1 back-to-back; the scoreboard must stall, not read
  // stale data.
  const auto mem = run_golden(R"(
      li r1, 5
      addi r2, r1, 1
      addi r3, r2, 1
      st r3, 0(r0)
      halt
  )",
                              {0});
  EXPECT_EQ(mem[0], 7u);
}

TEST(ControlUnit, LoadUseHazard) {
  const auto mem = run_golden(R"(
      ld r1, 0(r0)
      addi r2, r1, 100
      st r2, 1(r0)
      halt
  )",
                              {42, 0});
  EXPECT_EQ(mem[1], 142u);
}

TEST(ControlUnit, TakenAndNotTakenBranches) {
  const auto mem = run_golden(R"(
      li r1, 3
      li r2, 3
      cmp r1, r2
      beq equal
      st r0, 0(r0)       ; skipped
      halt
equal:
      li r3, 1
      st r3, 0(r0)
      cmp r1, r3
      beq never          ; 3 != 1: not taken
      li r4, 2
      st r4, 1(r0)
never:
      halt
  )",
                              {99, 99});
  EXPECT_EQ(mem[0], 1u);
  EXPECT_EQ(mem[1], 2u);
}

TEST(ControlUnit, LoopSumsCorrectly) {
  // sum 1..10 into mem[0].
  const auto mem = run_golden(R"(
      li r1, 0          ; acc
      li r2, 1          ; i
      li r3, 11         ; bound
loop: add r1, r1, r2
      addi r2, r2, 1
      cmp r2, r3
      blt loop
      st r1, 0(r0)
      halt
  )",
                              {0});
  EXPECT_EQ(mem[0], 55u);
}

TEST(ControlUnit, JumpRedirects) {
  const auto mem = run_golden(R"(
      jmp over
      st r0, 0(r0)      ; never executed
over: li r1, 9
      st r1, 0(r0)
      halt
  )",
                              {5});
  EXPECT_EQ(mem[0], 9u);
}

TEST(ControlUnit, MulticycleMatchesPipelinedResults) {
  // Mostly independent instructions, so the pipelined machine approaches
  // one instruction per cycle while the multicycle one takes ~5.
  const std::string src = R"(
      li r1, 6
      li r2, 7
      li r4, 1
      li r5, 2
      li r6, 3
      li r7, 4
      li r8, 5
      li r9, 6
      li r10, 7
      li r11, 8
      mul r3, r1, r2
      st r3, 0(r0)
      halt
  )";
  std::uint64_t pipe_cycles = 0, multi_cycles = 0;
  const auto pipe = run_golden(src, {0}, &pipe_cycles, false);
  const auto multi = run_golden(src, {0}, &multi_cycles, true);
  EXPECT_EQ(pipe[0], 42u);
  EXPECT_EQ(multi[0], 42u);
  // The multicycle machine is several times slower (~5 firings per instr).
  EXPECT_GT(multi_cycles, pipe_cycles * 2);
}

TEST(ControlUnit, RetiredInstructionCount) {
  ProgramSpec prog;
  prog.name = "t";
  prog.source = "li r1, 1\nli r2, 2\nhalt";
  prog.ram = {0};
  prog.verify = [](const std::vector<std::uint32_t>&, std::string*) {
    return true;
  };
  GoldenSim golden(make_cpu_system(prog, {}), false);
  golden.run_until_halt(10000);
  const auto& cu = dynamic_cast<const ControlUnit&>(golden.process("CU"));
  EXPECT_EQ(cu.instructions_retired(), 3u);
}

}  // namespace
}  // namespace wp::proc
