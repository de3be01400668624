#include "util/assert.hpp"

#include <sstream>

namespace wp {

namespace {
std::string format(const char* kind, const char* expr, const char* file,
                   int line, const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  return os.str();
}
}  // namespace

ContractViolation::ContractViolation(const char* kind, const char* expr,
                                     const char* file, int line,
                                     const std::string& msg)
    : std::logic_error(format(kind, expr, file, line, msg)) {}

namespace detail {
void contract_fail(const char* kind, const char* expr, const char* file,
                   int line, const std::string& msg) {
  throw ContractViolation(kind, expr, file, line, msg);
}
}  // namespace detail

}  // namespace wp
