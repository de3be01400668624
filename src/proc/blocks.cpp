#include "proc/blocks.hpp"

#include "util/assert.hpp"

namespace wp::proc {

namespace {

// Port indices fixed by construction order; kept as named constants so the
// oracles and transitions stay readable.
constexpr std::size_t kIcInAddr = 0;
constexpr std::size_t kIcOutInstr = 0;

constexpr std::size_t kDcInCtl = 0;
constexpr std::size_t kDcInMaddr = 1;
constexpr std::size_t kDcInStore = 2;
constexpr std::size_t kDcOutLoad = 0;

constexpr std::size_t kRfInCtl = 0;
constexpr std::size_t kRfInWb = 1;
constexpr std::size_t kRfInLoad = 2;
constexpr std::size_t kRfOutOperands = 0;
constexpr std::size_t kRfOutStore = 1;

constexpr std::size_t kAluInOp = 0;
constexpr std::size_t kAluInOperands = 1;
constexpr std::size_t kAluOutFlags = 0;
constexpr std::size_t kAluOutResult = 1;
constexpr std::size_t kAluOutMaddr = 2;

constexpr InputMask bit(std::size_t i) { return InputMask{1} << i; }

bool branch_taken(Opcode op, const Flags& flags) {
  switch (op) {
    case Opcode::kBeq: return flags.eq;
    case Opcode::kBne: return !flags.eq;
    case Opcode::kBlt: return flags.lt;
    case Opcode::kBge: return !flags.lt;
    default:
      WP_CHECK(false, "branch_taken on non-branch opcode");
      return false;
  }
}

std::uint32_t alu_compute(Opcode op, std::uint32_t a, std::uint32_t b,
                          Flags& flags) {
  switch (op) {
    case Opcode::kLi: return b;  // b carries the immediate
    case Opcode::kAdd:
    case Opcode::kAddi:
    case Opcode::kLd:   // address arithmetic: rs1 + imm
    case Opcode::kSt:
      return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kCmp:
      flags.eq = a == b;
      flags.lt = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
      return a - b;
    default:
      WP_CHECK(false, "opcode does not execute in the ALU");
      return 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// IcacheBlock
// ---------------------------------------------------------------------------

IcacheBlock::IcacheBlock(std::vector<Word> rom)
    : Process("IC"), rom_(std::move(rom)) {
  add_input("addr", FetchReq{}.pack());
  add_output("instr", FetchResp{}.pack());
}

void IcacheBlock::fire(const Word* in, Word* out) {
  const FetchReq req = FetchReq::unpack(in[kIcInAddr]);
  FetchResp resp;
  if (req.fetch) {
    resp.valid = true;
    // Addresses beyond the program image read as HALT, so speculative
    // fetches past the end of the ROM are harmless and a program that falls
    // off its end stops.
    resp.instr_word = req.addr < rom_.size()
                          ? rom_[req.addr]
                          : encode(Instr{Opcode::kHalt, 0, 0, 0, 0});
  }
  out[kIcOutInstr] = resp.pack();
}

// ---------------------------------------------------------------------------
// DcacheBlock
// ---------------------------------------------------------------------------

DcacheBlock::DcacheBlock(std::vector<std::uint32_t> ram)
    : Process("DC"), ram_(std::move(ram)) {
  declare_oracle();
  add_input("ctl", DcCtl{}.pack());
  add_input("maddr", 0);
  add_input("store_data", 0);
  add_output("load", 0);
}

InputMask DcacheBlock::required(const PeekView& peek) const {
  InputMask mask = bit(kDcInCtl);
  if (!peek.available(kDcInCtl)) return mask;
  const DcCtl ctl = DcCtl::unpack(peek.value(kDcInCtl));
  if (ctl.bubble || ctl.kind == MemKind::kNone) return mask;
  mask |= bit(kDcInMaddr);
  if (ctl.kind == MemKind::kStore) mask |= bit(kDcInStore);
  return mask;
}

void DcacheBlock::fire(const Word* in, Word* out) {
  const DcCtl ctl = DcCtl::unpack(in[kDcInCtl]);
  if (!ctl.bubble && ctl.kind != MemKind::kNone) {
    const auto addr = static_cast<std::uint32_t>(in[kDcInMaddr]);
    WP_CHECK(addr < ram_.size(), "data access out of RAM bounds");
    if (ctl.kind == MemKind::kLoad) {
      last_load_ = ram_[addr];
    } else {
      ram_[addr] = static_cast<std::uint32_t>(in[kDcInStore]);
    }
  }
  out[kDcOutLoad] = last_load_;
}

// ---------------------------------------------------------------------------
// RegFileBlock
// ---------------------------------------------------------------------------

RegFileBlock::RegFileBlock() : Process("RF") {
  declare_oracle();
  add_input("ctl", RfCtl{}.pack());
  add_input("wb", 0);
  add_input("load", 0);
  add_output("operands", Operands{}.pack());
  add_output("store", 0);
}

InputMask RegFileBlock::required(const PeekView& /*peek*/) const {
  InputMask mask = bit(kRfInCtl);
  if (alu_wb_.count(firing_)) mask |= bit(kRfInWb);
  if (load_wb_.count(firing_)) mask |= bit(kRfInLoad);
  return mask;
}

void RegFileBlock::fire(const Word* in, Word* out) {
  const std::uint64_t k = firing_++;

  // Commit scheduled writebacks first, so a read in the same firing sees
  // the new value (the CU's scoreboard assumes write-before-read).
  if (auto it = alu_wb_.find(k); it != alu_wb_.end()) {
    regs_[it->second] = static_cast<std::uint32_t>(in[kRfInWb]);
    alu_wb_.erase(it);
  }
  if (auto it = load_wb_.find(k); it != load_wb_.end()) {
    regs_[it->second] = static_cast<std::uint32_t>(in[kRfInLoad]);
    load_wb_.erase(it);
  }

  // The store value read in the previous firing leaves toward the DC now
  // (one staging register), tag-aligned with the ALU's address computation:
  // read at d+1, emitted at d+2, consumed by the DC at d+3.
  out[kRfOutStore] = staged_store_;

  const RfCtl ctl = RfCtl::unpack(in[kRfInCtl]);
  if (!ctl.bubble) {
    const std::uint32_t a = regs_[ctl.rs1];
    const std::uint32_t b = regs_[ctl.rs2];
    last_operands_ = {a, b};
    if (ctl.store) staged_store_ = b;
    switch (ctl.wb_kind) {
      case WbKind::kAlu:
        alu_wb_[k + 2] = ctl.wb_reg;
        break;
      case WbKind::kLoad:
        load_wb_[k + 3] = ctl.wb_reg;
        break;
      case WbKind::kNone:
        break;
    }
  }
  out[kRfOutOperands] = last_operands_.pack();
}

// ---------------------------------------------------------------------------
// AluBlock
// ---------------------------------------------------------------------------

AluBlock::AluBlock() : Process("ALU") {
  declare_oracle();
  add_input("op", AluCtl{}.pack());
  add_input("operands", Operands{}.pack());
  add_output("flags", Flags{}.pack());
  add_output("result", 0);
  add_output("maddr", 0);
}

InputMask AluBlock::required(const PeekView& peek) const {
  InputMask mask = bit(kAluInOp);
  if (!peek.available(kAluInOp)) return mask;
  const AluCtl ctl = AluCtl::unpack(peek.value(kAluInOp));
  if (ctl.needs_operands()) mask |= bit(kAluInOperands);
  return mask;
}

void AluBlock::fire(const Word* in, Word* out) {
  const AluCtl ctl = AluCtl::unpack(in[kAluInOp]);
  if (!ctl.bubble) {
    Operands ops{};
    if (ctl.needs_operands()) ops = Operands::unpack(in[kAluInOperands]);
    const std::uint32_t b_eff =
        ctl.use_imm ? static_cast<std::uint32_t>(ctl.imm) : ops.b;
    last_result_ = alu_compute(ctl.op, ops.a, b_eff, flags_);
  }
  out[kAluOutFlags] = flags_.pack();
  out[kAluOutResult] = last_result_;
  out[kAluOutMaddr] = last_result_;
}

// ---------------------------------------------------------------------------
// ControlUnit
// ---------------------------------------------------------------------------

ControlUnit::ControlUnit(Config config)
    : Process("CU"), config_(config) {
  WP_REQUIRE(config_.fetch_window >= 1, "fetch window must be >= 1");
  WP_REQUIRE(config_.drain_firings >= 0, "drain count must be >= 0");
  declare_oracle();
  in_instr_ = add_input("instr", FetchResp{}.pack());
  in_flags_ = add_input("flags", Flags{}.pack());
  out_iaddr_ = add_output("iaddr", FetchReq{}.pack());
  out_rf_ = add_output("rf_ctl", RfCtl{}.pack());
  out_alu_ = add_output("alu_op", AluCtl{}.pack());
  out_dc_ = add_output("dc_ctl", DcCtl{}.pack());
  fetch_meta_.assign(2, FetchMeta{});  // the two in-flight reset slots
}

int ControlUnit::outstanding_real() const {
  int count = 0;
  for (const auto& meta : fetch_meta_)
    if (meta.real && !meta.squashed) ++count;
  return count;
}

ControlUnit::DispatchDecision ControlUnit::plan_dispatch(
    bool instr_peek_available, Word instr_peek_value) const {
  DispatchDecision d;
  if (draining_ || halted_) return d;

  if (!ibuf_.empty()) {
    d.instr = ibuf_.front();
    d.head_known = true;
  } else {
    const FetchMeta& meta = fetch_meta_.front();
    if (meta.real && !meta.squashed && instr_peek_available) {
      const FetchResp resp = FetchResp::unpack(instr_peek_value);
      if (resp.valid) {
        d.instr = decode(resp.instr_word);
        d.head_known = true;
      }
    }
  }
  if (!d.head_known) return d;

  const Opcode op = d.instr.op;
  if (is_branch(op)) {
    if (firing_ < flags_ready_at_) return d;  // wait for the flags
    d.dispatch = true;
    d.reads_flags = true;
    return d;
  }
  if (reads_rs1(op) && firing_ < ready_at_[d.instr.rs1]) return d;
  if (reads_rs2(op) && firing_ < ready_at_[d.instr.rs2]) return d;
  d.dispatch = true;
  return d;
}

InputMask ControlUnit::required(const PeekView& peek) const {
  InputMask mask = 0;
  const FetchMeta& meta = fetch_meta_.front();
  // A real fetch slot must be waited for; a squashed one only if the
  // communication profile is the paper's plain one (see Config).
  if (meta.real && (!meta.squashed || !config_.relax_squashed_fetches))
    mask |= bit(in_instr_);
  const DispatchDecision d =
      plan_dispatch(peek.available(in_instr_), peek.value(in_instr_));
  if (d.reads_flags) mask |= bit(in_flags_);
  return mask;
}

void ControlUnit::fire(const Word* in, Word* out) {
  // 1. Consume this firing's instr token slot.
  const FetchMeta meta = fetch_meta_.front();
  const bool arrival = meta.real && !meta.squashed;
  const DispatchDecision decision =
      plan_dispatch(arrival, arrival ? in[in_instr_] : kPoisonWord);
  fetch_meta_.pop_front();
  if (arrival) {
    const FetchResp resp = FetchResp::unpack(in[in_instr_]);
    WP_CHECK(resp.valid, "real fetch slot returned a bubble");
    ibuf_.push_back(decode(resp.instr_word));
  }

  // 2. Dispatch.
  RfCtl rf{};
  AluCtl alu_next{};
  DcCtl dc_next{};
  bool redirect = false;
  std::uint32_t target = 0;

  if (decision.dispatch) {
    WP_CHECK(!ibuf_.empty(), "dispatch with empty instruction buffer");
    const Instr instr = ibuf_.front();
    ibuf_.pop_front();
    ++retired_;
    const Opcode op = instr.op;

    if (op == Opcode::kHalt) {
      draining_ = true;
      drain_left_ = config_.drain_firings;
    } else if (is_jump(op)) {
      redirect = true;
      target = static_cast<std::uint32_t>(instr.imm);
    } else if (is_branch(op)) {
      const Flags flags = Flags::unpack(in[in_flags_]);
      if (branch_taken(op, flags)) {
        redirect = true;
        target = static_cast<std::uint32_t>(instr.imm);
      }
    } else if (op != Opcode::kNop) {
      rf.bubble = false;
      rf.rs1 = instr.rs1;
      rf.rs2 = instr.rs2;
      if (is_alu_writeback(op)) {
        rf.wb_kind = WbKind::kAlu;
        rf.wb_reg = instr.rd;
        ready_at_[instr.rd] = firing_ + 2;
      } else if (is_load(op)) {
        rf.wb_kind = WbKind::kLoad;
        rf.wb_reg = instr.rd;
        ready_at_[instr.rd] = firing_ + 3;
      }
      rf.store = is_store(op);

      alu_next.bubble = false;
      alu_next.op = op;
      alu_next.use_imm = op == Opcode::kLi || op == Opcode::kAddi ||
                         is_mem(op);
      alu_next.imm = instr.imm;

      dc_next.bubble = false;
      dc_next.kind = is_load(op)    ? MemKind::kLoad
                     : is_store(op) ? MemKind::kStore
                                    : MemKind::kNone;

      if (op == Opcode::kCmp) flags_ready_at_ = firing_ + 3;
    }
    if (config_.serialize_fetch) fetch_allowed_at_ = firing_ + 3;
  }

  if (redirect) {
    pc_ = target;
    for (auto& m : fetch_meta_)
      if (m.real) m.squashed = true;
    ibuf_.clear();
  }

  // 3. Issue the next fetch (or a bubble slot).
  FetchReq freq{};
  if (!draining_ && !halted_) {
    const bool room =
        static_cast<int>(ibuf_.size()) + outstanding_real() <
        config_.fetch_window;
    const bool allowed =
        !config_.serialize_fetch ||
        (outstanding_real() == 0 && ibuf_.empty() &&
         firing_ >= fetch_allowed_at_);
    if (room && allowed) {
      freq.fetch = true;
      freq.addr = pc_++;
      fetch_meta_.push_back({true, false});
    } else {
      fetch_meta_.push_back({false, false});
    }
  } else {
    fetch_meta_.push_back({false, false});
  }

  // 4. Drive outputs; the ALU and DC controls leave through delay registers
  //    so their tags align with the operand flow.
  out[out_iaddr_] = freq.pack();
  out[out_rf_] = rf.pack();
  out[out_alu_] = alu_delay_.pack();
  alu_delay_ = alu_next;
  out[out_dc_] = dc_delay_[0].pack();
  dc_delay_[0] = dc_delay_[1];
  dc_delay_[1] = dc_next;

  // 5. Drain accounting.
  if (draining_) {
    if (drain_left_ == 0)
      halted_ = true;
    else
      --drain_left_;
  }
  ++firing_;
}

}  // namespace wp::proc
