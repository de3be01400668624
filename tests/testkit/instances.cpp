#include "testkit/instances.hpp"

#include <sstream>

namespace wp::testkit {

std::string serialize_instance(const fplan::Instance& inst) {
  std::ostringstream os;
  if (!inst.name.empty()) os << "instance " << inst.name << "\n";
  for (const auto& b : inst.blocks)
    os << "block " << b.name << ' ' << b.width << ' ' << b.height << "\n";
  for (const auto& n : inst.nets)
    os << "net " << n.connection << ' '
       << inst.blocks[static_cast<std::size_t>(n.src_block)].name << ' '
       << inst.blocks[static_cast<std::size_t>(n.dst_block)].name << "\n";
  return os.str();
}

}  // namespace wp::testkit
