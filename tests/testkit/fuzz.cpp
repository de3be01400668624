#include "testkit/fuzz.hpp"

#include <sstream>

#include "testkit/rng.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace wp::testkit {

using proc::ProgramSpec;

namespace {

// Register plan: r1..r12 free for random ops, r13/r14 reserved for loop
// counters and bounds, r15 scratch for addresses, r0 never written (base 0).
constexpr int kFreeRegs = 12;

class Generator {
 public:
  explicit Generator(const RandomProgramConfig& config)
      : config_(config), rng_(config.seed) {}

  std::string run() {
    for (int b = 0; b < config_.blocks; ++b) {
      emit_label("blk" + std::to_string(b));
      if (rng_.chance(config_.loop_probability)) {
        emit_counted_loop(b);
      } else {
        emit_straight_block();
      }
      if (b + 1 < config_.blocks &&
          rng_.chance(config_.branch_probability)) {
        // Forward conditional branch to a strictly later block: always
        // terminates regardless of the flags' value.
        const int target =
            b + 1 +
            static_cast<int>(rng_.below(
                static_cast<std::uint64_t>(config_.blocks - b - 1)) );
        emit(format("cmp r%d, r%d", reg(), reg()));
        emit(format("%s blk%d", branch_mnemonic(), target));
      }
    }
    emit_label("blk" + std::to_string(config_.blocks));
    emit("halt");
    return source_.str();
  }

 private:
  int reg() { return 1 + static_cast<int>(rng_.below(kFreeRegs)); }
  int addr() {
    return static_cast<int>(rng_.below(config_.ram_words));
  }
  const char* branch_mnemonic() {
    switch (rng_.below(4)) {
      case 0: return "beq";
      case 1: return "bne";
      case 2: return "blt";
      default: return "bge";
    }
  }

  void emit(const std::string& line) { source_ << "  " << line << "\n"; }
  void emit_label(const std::string& label) { source_ << label << ":\n"; }

  void emit_random_op() {
    switch (rng_.below(10)) {
      case 0:
        emit(format("li r%d, %d", reg(), static_cast<int>(rng_.below(256))));
        break;
      case 1:
        emit(format("add r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 2:
        emit(format("sub r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 3:
        emit(format("mul r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 4:
        emit(format("and r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 5:
        emit(format("or r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 6:
        emit(format("xor r%d, r%d, r%d", reg(), reg(), reg()));
        break;
      case 7:
        emit(format("addi r%d, r%d, %d", reg(), reg(),
                    static_cast<int>(range(rng_, -16, 16))));
        break;
      case 8:
        emit(format("ld r%d, %d(r0)", reg(), addr()));
        break;
      default:
        emit(format("st r%d, %d(r0)", reg(), addr()));
        break;
    }
  }

  void emit_straight_block() {
    const int ops = static_cast<int>(
        range(rng_, config_.min_block_ops, config_.max_block_ops));
    for (int i = 0; i < ops; ++i) emit_random_op();
  }

  void emit_counted_loop(int block) {
    const int trips = static_cast<int>(
        range(rng_, 1, config_.loop_trip_max));
    const std::string head = "loop" + std::to_string(block);
    emit("li r13, 0");
    emit(format("li r14, %d", trips));
    emit_label(head);
    const int ops = static_cast<int>(
        range(rng_, config_.min_block_ops, config_.max_block_ops));
    for (int i = 0; i < ops; ++i) emit_random_op();
    emit("addi r13, r13, 1");
    emit("cmp r13, r14");
    emit(format("blt %s", head.c_str()));
  }

  const RandomProgramConfig& config_;
  Rng rng_;
  std::ostringstream source_;
};

}  // namespace

ProgramSpec random_program(const RandomProgramConfig& config) {
  WP_REQUIRE(config.blocks >= 1, "need at least one block");
  WP_REQUIRE(config.min_block_ops >= 1 &&
                 config.max_block_ops >= config.min_block_ops,
             "bad block op range");
  WP_REQUIRE(config.ram_words >= 1, "need data memory");

  ProgramSpec spec;
  spec.name = "fuzz[" + std::to_string(config.seed) + "]";
  Generator generator(config);
  spec.source = generator.run();

  Rng data_rng(config.seed ^ 0xD00DFEEDULL);
  spec.ram.resize(config.ram_words);
  for (auto& word : spec.ram)
    word = static_cast<std::uint32_t>(data_rng.below(1 << 16));

  spec.verify = [](const std::vector<std::uint32_t>&, std::string*) {
    return true;  // the fuzz harness compares against golden directly
  };
  return spec;
}

}  // namespace wp::testkit
