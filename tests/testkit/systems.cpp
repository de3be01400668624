#include "testkit/systems.hpp"

#include <set>

namespace wp::testkit {

std::vector<std::string> connections(const SystemSpec& spec) {
  std::set<std::string> names;
  for (const auto& channel : spec.channels()) names.insert(channel.connection);
  return {names.begin(), names.end()};
}

}  // namespace wp::testkit
