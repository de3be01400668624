// The five IP blocks of the case-study processor (paper Fig. 1):
// control unit (CU), instruction cache (IC), data cache (DC), register file
// (RF) and ALU — each a synchronous Moore process with a communication
// oracle describing which inputs its next transition actually reads.
//
// Connection map (ten physical links, exactly Table 1's rows):
//   CU.iaddr   -> IC.addr        ["CU-IC" bundle, together with the return]
//   IC.instr   -> CU.instr       ["CU-IC" bundle]
//   CU.rf_ctl  -> RF.ctl         ["CU-RF"]
//   CU.alu_op  -> ALU.op         ["CU-AL"]
//   CU.dc_ctl  -> DC.ctl         ["CU-DC"]
//   RF.operands-> ALU.operands   ["RF-ALU"]
//   RF.store   -> DC.store_data  ["RF-DC"]
//   ALU.flags  -> CU.flags       ["ALU-CU"]
//   ALU.result -> RF.wb          ["ALU-RF"]
//   ALU.maddr  -> DC.maddr       ["ALU-DC"]
//   DC.load    -> RF.load        ["DC-RF"]
//
// Per-instruction pipeline timing (CU dispatch firing d):
//   d   : CU emits rf_ctl;
//   d+1 : RF reads operands (emits them), CU emits alu_op;
//   d+2 : ALU executes (emits result/flags/maddr), CU emits dc_ctl,
//         RF emits the staged store value;
//   d+3 : DC acts (emits load data), RF commits an ALU writeback,
//         CU may consume flags (branch resolution);
//   d+4 : RF commits a load writeback.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/process.hpp"
#include "proc/bundles.hpp"
#include "proc/isa.hpp"

namespace wp::proc {

/// Instruction cache: a ROM with one-cycle access.
class IcacheBlock final : public Process {
 public:
  explicit IcacheBlock(std::vector<Word> rom);

  void fire(const Word* in, Word* out) override;

 private:
  std::vector<Word> rom_;
};

/// Data cache: word-addressed RAM; loads read, stores write. Both use the
/// address computed by the ALU. The load output is sticky across bubbles so
/// it stays a pure function of registered state.
class DcacheBlock final : public Process {
 public:
  explicit DcacheBlock(std::vector<std::uint32_t> ram);

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

  const std::vector<std::uint32_t>& memory() const { return ram_; }

 private:
  std::vector<std::uint32_t> ram_;
  std::uint32_t last_load_ = 0;
};

/// Register file: reads the two source operands, stages the store value one
/// firing, and commits scheduled writebacks (from the ALU two firings after
/// dispatch, from the DC three firings after dispatch).
class RegFileBlock final : public Process {
 public:
  RegFileBlock();

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

  const std::array<std::uint32_t, kNumRegisters>& registers() const {
    return regs_;
  }

 private:
  std::array<std::uint32_t, kNumRegisters> regs_{};
  std::uint64_t firing_ = 0;
  std::map<std::uint64_t, std::uint8_t> alu_wb_;   // firing -> dest reg
  std::map<std::uint64_t, std::uint8_t> load_wb_;  // firing -> dest reg
  std::uint32_t staged_store_ = 0;  // store value staged toward the DC
  Operands last_operands_{};
};

/// ALU: executes compute ops, address arithmetic for memory ops, and keeps
/// the sticky comparison flags only kCmp updates.
class AluBlock final : public Process {
 public:
  AluBlock();

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

 private:
  Flags flags_{};
  std::uint32_t last_result_ = 0;
};

/// Control unit: fetch, decode, hazard interlocks, branch resolution, and
/// the dispatch pipeline registers that keep the downstream control tokens
/// tag-aligned. `serialize_fetch` turns the pipelined machine into the
/// multicycle one (one instruction in flight, ~5 firings per instruction).
class ControlUnit final : public Process {
 public:
  struct Config {
    bool serialize_fetch = false;  ///< multicycle when true
    int fetch_window = 4;          ///< max buffered + in-flight fetches
    int drain_firings = 8;         ///< bubbles after HALT before halting
    /// When true, the oracle also skips instruction tokens the CU squashed
    /// itself (wrong-path fetches after a taken branch). The paper's
    /// wrapper does not exploit this — it is kept as an ablation of a
    /// slightly richer communication profile.
    bool relax_squashed_fetches = false;
  };

  explicit ControlUnit(Config config);

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;
  bool halted() const override { return halted_; }

  std::uint64_t instructions_retired() const { return retired_; }

 private:
  /// What the instr token arriving at a given firing is.
  struct FetchMeta {
    bool real = false;      ///< a fetch was issued for this slot
    bool squashed = false;  ///< wrong-path, consume without reading
  };

  struct DispatchDecision {
    bool dispatch = false;       ///< head leaves the buffer this firing
    bool reads_flags = false;    ///< branch resolution consumes flags
    Instr instr;                 ///< valid when dispatch or reads_flags
    bool head_known = false;
  };

  /// Pure helper shared by required() and fire() so the oracle and the
  /// transition agree exactly on when the flags token is read.
  DispatchDecision plan_dispatch(bool instr_peek_available,
                                 Word instr_peek_value) const;

  int outstanding_real() const;

  Config config_;

  std::uint32_t pc_ = 0;
  std::uint64_t firing_ = 0;
  std::deque<FetchMeta> fetch_meta_;   // front = token consumed this firing
  std::deque<Instr> ibuf_;             // fetched, not yet dispatched
  std::uint64_t ready_at_[kNumRegisters] = {};
  std::uint64_t flags_ready_at_ = 0;
  std::uint64_t fetch_allowed_at_ = 0;  // multicycle serialization
  AluCtl alu_delay_{};                  // dispatched at d, emitted at d+1
  DcCtl dc_delay_[2] = {};              // dispatched at d, emitted at d+2
  bool draining_ = false;
  int drain_left_ = 0;
  bool halted_ = false;
  std::uint64_t retired_ = 0;

  std::size_t in_instr_, in_flags_;
  std::size_t out_iaddr_, out_rf_, out_alu_, out_dc_;
};

}  // namespace wp::proc
