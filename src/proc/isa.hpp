// The case-study processor's minimal instruction set (paper §2: "We built
// the system with a minimal instruction set"), its encoding, and the decode
// helpers shared by the control unit and the assembler.
//
// 16 general registers. Values are 32-bit. Instructions are encoded into a
// single 64-bit word so every channel can carry one in a token.
#pragma once

#include <cstdint>
#include <string>

#include "core/token.hpp"

namespace wp::proc {

enum class Opcode : std::uint8_t {
  kNop = 0,
  kHalt,
  kLi,    ///< rd = imm
  kAdd,   ///< rd = rs1 + rs2
  kSub,   ///< rd = rs1 - rs2
  kMul,   ///< rd = rs1 * rs2
  kAnd,   ///< rd = rs1 & rs2
  kOr,    ///< rd = rs1 | rs2
  kXor,   ///< rd = rs1 ^ rs2
  kAddi,  ///< rd = rs1 + imm
  kCmp,   ///< flags = compare(rs1, rs2); only CMP updates flags
  kLd,    ///< rd = mem[rs1 + imm]
  kSt,    ///< mem[rs1 + imm] = rs2
  kBeq,   ///< if flags.eq        jump to imm
  kBne,   ///< if !flags.eq       jump to imm
  kBlt,   ///< if flags.lt        jump to imm (signed)
  kBge,   ///< if !flags.lt       jump to imm (signed)
  kJmp,   ///< jump to imm
  kCount
};

const char* opcode_name(Opcode op);

/// A decoded instruction.
struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

/// Encoding layout inside a 64-bit word:
/// [5:0] opcode | [9:6] rd | [13:10] rs1 | [17:14] rs2 | [49:18] imm.
Word encode(const Instr& instr);
Instr decode(Word word);

/// Instruction classification used by the control unit and the oracles.
bool is_alu_writeback(Opcode op);  ///< writes rd from the ALU result
bool is_load(Opcode op);
bool is_store(Opcode op);
bool is_mem(Opcode op);
bool is_branch(Opcode op);  ///< conditional branches (flag consumers)
bool is_jump(Opcode op);    ///< unconditional control transfer
bool reads_rs1(Opcode op);
bool reads_rs2(Opcode op);

std::string to_string(const Instr& instr);

/// Comparison flags produced by kCmp (sticky in the ALU).
struct Flags {
  bool eq = false;
  bool lt = false;  // signed rs1 < rs2

  static Flags unpack(Word w) { return {(w & 1) != 0, (w & 2) != 0}; }
  Word pack() const { return (eq ? 1u : 0u) | (lt ? 2u : 0u); }
};

inline constexpr int kNumRegisters = 16;

}  // namespace wp::proc
