// ISA encode/decode, classification helpers, bundle packing round-trips,
// and the assembler (including its error paths).
#include <gtest/gtest.h>

#include "testkit/rng.hpp"
#include "util/assert.hpp"

#include "proc/assembler.hpp"
#include "proc/bundles.hpp"
#include "proc/isa.hpp"
#include "util/rng.hpp"

namespace wp::proc {
namespace {

using testkit::range;

class EncodeRoundTrip : public ::testing::TestWithParam<Opcode> {};

TEST_P(EncodeRoundTrip, AllFieldsSurvive) {
  wp::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  for (int i = 0; i < 50; ++i) {
    Instr instr;
    instr.op = GetParam();
    instr.rd = static_cast<std::uint8_t>(rng.below(16));
    instr.rs1 = static_cast<std::uint8_t>(rng.below(16));
    instr.rs2 = static_cast<std::uint8_t>(rng.below(16));
    instr.imm = static_cast<std::int32_t>(range(rng, -(1 << 29), (1 << 29)));
    const Instr back = decode(encode(instr));
    EXPECT_EQ(back.op, instr.op);
    EXPECT_EQ(back.rd, instr.rd);
    EXPECT_EQ(back.rs1, instr.rs1);
    EXPECT_EQ(back.rs2, instr.rs2);
    EXPECT_EQ(back.imm, instr.imm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, EncodeRoundTrip,
    ::testing::Values(Opcode::kNop, Opcode::kHalt, Opcode::kLi, Opcode::kAdd,
                      Opcode::kSub, Opcode::kMul, Opcode::kAnd, Opcode::kOr,
                      Opcode::kXor, Opcode::kAddi, Opcode::kCmp, Opcode::kLd,
                      Opcode::kSt, Opcode::kBeq, Opcode::kBne, Opcode::kBlt,
                      Opcode::kBge, Opcode::kJmp),
    [](const auto& param_info) { return opcode_name(param_info.param); });

TEST(Isa, EncodeRejectsBadFields) {
  Instr instr;
  instr.rd = 16;
  EXPECT_THROW(encode(instr), wp::ContractViolation);
  instr.rd = 0;
  instr.imm = 1 << 30;
  EXPECT_THROW(encode(instr), wp::ContractViolation);
}

TEST(Isa, DecodeRejectsBadOpcode) {
  EXPECT_THROW(decode(Word{63}), wp::ContractViolation);
}

TEST(Isa, Classification) {
  EXPECT_TRUE(is_alu_writeback(Opcode::kAdd));
  EXPECT_TRUE(is_alu_writeback(Opcode::kLi));
  EXPECT_FALSE(is_alu_writeback(Opcode::kCmp));
  EXPECT_FALSE(is_alu_writeback(Opcode::kLd));
  EXPECT_TRUE(is_load(Opcode::kLd));
  EXPECT_TRUE(is_store(Opcode::kSt));
  EXPECT_TRUE(is_mem(Opcode::kLd));
  EXPECT_TRUE(is_branch(Opcode::kBge));
  EXPECT_FALSE(is_branch(Opcode::kJmp));
  EXPECT_TRUE(is_jump(Opcode::kJmp));
  EXPECT_TRUE(reads_rs1(Opcode::kSt));
  EXPECT_TRUE(reads_rs2(Opcode::kSt));
  EXPECT_FALSE(reads_rs1(Opcode::kLi));
  EXPECT_FALSE(reads_rs2(Opcode::kAddi));
}

TEST(Isa, ToStringFormats) {
  EXPECT_EQ(to_string({Opcode::kAddi, 1, 2, 0, -3}), "addi r1, r2, -3");
  EXPECT_EQ(to_string({Opcode::kLd, 4, 5, 0, 8}), "ld r4, 8(r5)");
  EXPECT_EQ(to_string({Opcode::kSt, 0, 5, 6, 8}), "st r6, 8(r5)");
  EXPECT_EQ(to_string({Opcode::kHalt, 0, 0, 0, 0}), "halt");
  EXPECT_EQ(to_string({Opcode::kBlt, 0, 0, 0, 12}), "blt 12");
}

TEST(Bundles, PackUnpackRoundTrips) {
  const FetchReq req{true, 0x12345};
  EXPECT_EQ(FetchReq::unpack(req.pack()).addr, 0x12345u);
  EXPECT_TRUE(FetchReq::unpack(req.pack()).fetch);

  const FetchResp resp{true, encode({Opcode::kMul, 3, 4, 5, 0})};
  EXPECT_EQ(FetchResp::unpack(resp.pack()).instr_word, resp.instr_word);

  RfCtl rf;
  rf.bubble = false;
  rf.rs1 = 15;
  rf.rs2 = 7;
  rf.wb_kind = WbKind::kLoad;
  rf.wb_reg = 9;
  rf.store = true;
  const RfCtl rf2 = RfCtl::unpack(rf.pack());
  EXPECT_EQ(rf2.rs1, 15);
  EXPECT_EQ(rf2.rs2, 7);
  EXPECT_EQ(rf2.wb_kind, WbKind::kLoad);
  EXPECT_EQ(rf2.wb_reg, 9);
  EXPECT_TRUE(rf2.store);
  EXPECT_FALSE(rf2.bubble);

  AluCtl alu;
  alu.bubble = false;
  alu.op = Opcode::kAddi;
  alu.use_imm = true;
  alu.imm = -1000;
  const AluCtl alu2 = AluCtl::unpack(alu.pack());
  EXPECT_EQ(alu2.op, Opcode::kAddi);
  EXPECT_TRUE(alu2.use_imm);
  EXPECT_EQ(alu2.imm, -1000);
  EXPECT_TRUE(alu2.needs_operands());

  const DcCtl dc{false, MemKind::kStore};
  EXPECT_EQ(DcCtl::unpack(dc.pack()).kind, MemKind::kStore);

  const Operands ops{0xFFFF0001u, 0x7FFFFFFFu};
  EXPECT_EQ(Operands::unpack(ops.pack()).a, ops.a);
  EXPECT_EQ(Operands::unpack(ops.pack()).b, ops.b);

  const Flags flags{true, true};
  EXPECT_TRUE(Flags::unpack(flags.pack()).eq);
  EXPECT_TRUE(Flags::unpack(flags.pack()).lt);
}

TEST(Bundles, LiDoesNotNeedOperands) {
  AluCtl alu;
  alu.bubble = false;
  alu.op = Opcode::kLi;
  alu.use_imm = true;
  EXPECT_FALSE(alu.needs_operands());
}

TEST(Assembler, SimpleProgram) {
  const auto result = assemble(R"(
    ; a comment
    li r1, 5        # another comment
    addi r1, r1, -1
    halt
  )");
  ASSERT_EQ(result.rom.size(), 3u);
  // encode() packs every field losslessly, so equal words are equal
  // instructions.
  EXPECT_EQ(encode(result.listing[0]), encode(Instr{Opcode::kLi, 1, 0, 0, 5}));
  EXPECT_EQ(encode(result.listing[1]),
            encode(Instr{Opcode::kAddi, 1, 1, 0, -1}));
  EXPECT_EQ(result.listing[2].op, Opcode::kHalt);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  const auto result = assemble(R"(
start:  li r1, 0
        jmp skip
        nop
skip:   beq start
        halt
  )");
  EXPECT_EQ(result.listing[1].imm, 3);  // skip
  EXPECT_EQ(result.listing[3].imm, 0);  // start
}

TEST(Assembler, MemoryOperands) {
  const auto result = assemble("ld r2, 8(r3)\nst r4, -2(r5)\nhalt");
  EXPECT_EQ(encode(result.listing[0]), encode(Instr{Opcode::kLd, 2, 3, 0, 8}));
  EXPECT_EQ(encode(result.listing[1]), encode(Instr{Opcode::kSt, 0, 5, 4, -2}));
}

TEST(Assembler, MultipleLabelsOneLine) {
  const auto result = assemble("a: b: nop\njmp b\nhalt");
  EXPECT_EQ(result.listing[1].imm, 0);
}

TEST(Assembler, ErrorsAreLineNumbered) {
  auto expect_error = [](const std::string& src, const std::string& what) {
    try {
      assemble(src);
      FAIL() << "expected failure for: " << src;
    } catch (const wp::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_error("frob r1", "unknown mnemonic");
  expect_error("li r99, 4", "register out of range");
  expect_error("li r1", "expects 2 operand");
  expect_error("ld r1, r2", "expected imm(rN)");
  expect_error("jmp nowhere", "unknown label");
  expect_error("x: nop\nx: nop", "duplicate label");
  expect_error("", "empty program");
}

}  // namespace
}  // namespace wp::proc
