#include "floorplan/instances.hpp"

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace wp::fplan {

Instance parse_instance(const std::string& text) {
  Instance inst;
  int line_no = 0;
  for (const auto& raw : split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    auto fail = [&](const std::string& msg) {
      WP_REQUIRE(false, "instance parse error at line " +
                            std::to_string(line_no) + ": " + msg);
    };
    if (tokens[0] == "instance") {
      if (tokens.size() != 2) fail("instance expects a name");
      inst.name = tokens[1];
    } else if (tokens[0] == "block") {
      if (tokens.size() != 4) fail("block expects <name> <w> <h>");
      Block b;
      b.name = tokens[1];
      b.width = parse_double(tokens[2]);
      b.height = parse_double(tokens[3]);
      if (b.width <= 0 || b.height <= 0) fail("non-positive block extent");
      if (inst.block_index(b.name) >= 0) fail("duplicate block " + b.name);
      inst.blocks.push_back(std::move(b));
    } else if (tokens[0] == "net") {
      if (tokens.size() != 4) fail("net expects <connection> <src> <dst>");
      Net n;
      n.connection = tokens[1];
      n.src_block = inst.block_index(tokens[2]);
      n.dst_block = inst.block_index(tokens[3]);
      if (n.src_block < 0) fail("unknown block " + tokens[2]);
      if (n.dst_block < 0) fail("unknown block " + tokens[3]);
      inst.nets.push_back(std::move(n));
    } else {
      fail("unknown directive '" + tokens[0] + "'");
    }
  }
  WP_REQUIRE(!inst.blocks.empty(), "instance has no blocks");
  return inst;
}

Instance cpu_instance() {
  return parse_instance(R"(
instance casu-macchiarulo-cpu
# Five blocks of the DATE'05 case study; extents in mm (130 nm scale).
block CU  1.2 1.0
block IC  2.4 2.0
block DC  2.4 2.0
block RF  1.0 0.8
block ALU 1.4 1.2
net CU-IC  CU  IC
net CU-IC  IC  CU
net CU-RF  CU  RF
net CU-AL  CU  ALU
net CU-DC  CU  DC
net RF-ALU RF  ALU
net RF-DC  RF  DC
net ALU-CU ALU CU
net ALU-RF ALU RF
net ALU-DC ALU DC
net DC-RF  DC  RF
)");
}

Instance synthetic_instance(std::size_t num_blocks, std::uint64_t seed,
                            double min_mm, double max_mm,
                            double extra_net_probability) {
  WP_REQUIRE(num_blocks >= 2, "need at least two blocks");
  WP_REQUIRE(min_mm > 0 && max_mm >= min_mm, "bad extent range");
  wp::Rng rng(seed);
  Instance inst;
  inst.name = "synthetic" + std::to_string(num_blocks) + "-" +
              std::to_string(seed);
  for (std::size_t i = 0; i < num_blocks; ++i) {
    Block b;
    b.name = "b" + std::to_string(i);
    b.width = min_mm + rng.uniform() * (max_mm - min_mm);
    b.height = min_mm + rng.uniform() * (max_mm - min_mm);
    inst.blocks.push_back(std::move(b));
  }
  // A ring keeps the system graph strongly connected (so throughput is
  // loop-limited, the interesting regime), plus random extra nets.
  for (std::size_t i = 0; i < num_blocks; ++i) {
    Net n;
    n.connection = "ring" + std::to_string(i);
    n.src_block = static_cast<int>(i);
    n.dst_block = static_cast<int>((i + 1) % num_blocks);
    inst.nets.push_back(std::move(n));
  }
  int extra = 0;
  for (std::size_t u = 0; u < num_blocks; ++u)
    for (std::size_t v = 0; v < num_blocks; ++v) {
      if (u == v || !rng.chance(extra_net_probability)) continue;
      Net n;
      n.connection = "x" + std::to_string(extra++);
      n.src_block = static_cast<int>(u);
      n.dst_block = static_cast<int>(v);
      inst.nets.push_back(std::move(n));
    }
  return inst;
}

}  // namespace wp::fplan
