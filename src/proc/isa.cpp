#include "proc/isa.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace wp::proc {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kLi: return "li";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kAddi: return "addi";
    case Opcode::kCmp: return "cmp";
    case Opcode::kLd: return "ld";
    case Opcode::kSt: return "st";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kJmp: return "jmp";
    case Opcode::kCount: break;
  }
  return "?";
}

Word encode(const Instr& instr) {
  WP_REQUIRE(instr.rd < kNumRegisters && instr.rs1 < kNumRegisters &&
                 instr.rs2 < kNumRegisters,
             "register index out of range");
  WP_REQUIRE(instr.imm >= -(1 << 30) && instr.imm < (1 << 30),
             "immediate out of encodable range");
  const auto imm_bits =
      static_cast<Word>(static_cast<std::uint32_t>(instr.imm));
  return static_cast<Word>(instr.op) | (Word{instr.rd} << 6) |
         (Word{instr.rs1} << 10) | (Word{instr.rs2} << 14) |
         (imm_bits << 18);
}

Instr decode(Word word) {
  Instr instr;
  const auto op_bits = static_cast<std::uint8_t>(word & 0x3F);
  WP_REQUIRE(op_bits < static_cast<std::uint8_t>(Opcode::kCount),
             "invalid opcode in instruction word");
  instr.op = static_cast<Opcode>(op_bits);
  instr.rd = static_cast<std::uint8_t>((word >> 6) & 0xF);
  instr.rs1 = static_cast<std::uint8_t>((word >> 10) & 0xF);
  instr.rs2 = static_cast<std::uint8_t>((word >> 14) & 0xF);
  instr.imm = static_cast<std::int32_t>(
      static_cast<std::uint32_t>((word >> 18) & 0xFFFFFFFFULL));
  return instr;
}

bool is_alu_writeback(Opcode op) {
  switch (op) {
    case Opcode::kLi:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kAddi:
      return true;
    default:
      return false;
  }
}

bool is_load(Opcode op) { return op == Opcode::kLd; }
bool is_store(Opcode op) { return op == Opcode::kSt; }
bool is_mem(Opcode op) { return is_load(op) || is_store(op); }

bool is_branch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
      return true;
    default:
      return false;
  }
}

bool is_jump(Opcode op) { return op == Opcode::kJmp; }

bool reads_rs1(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kAddi:
    case Opcode::kCmp:
    case Opcode::kLd:
    case Opcode::kSt:
      return true;
    default:
      return false;
  }
}

bool reads_rs2(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kCmp:
    case Opcode::kSt:
      return true;
    default:
      return false;
  }
}

std::string to_string(const Instr& instr) {
  std::ostringstream os;
  os << opcode_name(instr.op);
  switch (instr.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
      break;
    case Opcode::kLi:
      os << " r" << int{instr.rd} << ", " << instr.imm;
      break;
    case Opcode::kAddi:
      os << " r" << int{instr.rd} << ", r" << int{instr.rs1} << ", "
         << instr.imm;
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      os << " r" << int{instr.rd} << ", r" << int{instr.rs1} << ", r"
         << int{instr.rs2};
      break;
    case Opcode::kCmp:
      os << " r" << int{instr.rs1} << ", r" << int{instr.rs2};
      break;
    case Opcode::kLd:
      os << " r" << int{instr.rd} << ", " << instr.imm << "(r"
         << int{instr.rs1} << ")";
      break;
    case Opcode::kSt:
      os << " r" << int{instr.rs2} << ", " << instr.imm << "(r"
         << int{instr.rs1} << ")";
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kJmp:
      os << " " << instr.imm;
      break;
    case Opcode::kCount:
      break;
  }
  return os.str();
}

}  // namespace wp::proc
