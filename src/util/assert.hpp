// Contract-checking helpers used across the wirepipe libraries.
//
// Simulation code is full of protocol invariants (no token loss, tag
// monotonicity, FIFO bounds). Violations are programming errors, not
// recoverable conditions, so they throw wp::ContractViolation carrying the
// failing expression and location; tests assert on them, and release builds
// keep them enabled (simulation correctness beats the few % of speed).
#pragma once

#include <stdexcept>
#include <string>

namespace wp {

/// Thrown when a WP_REQUIRE / WP_ENSURE / WP_CHECK contract fails.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* file,
                    int line, const std::string& msg);
};

namespace detail {
[[noreturn]] void contract_fail(const char* kind, const char* expr,
                                const char* file, int line,
                                const std::string& msg);
}  // namespace detail

}  // namespace wp

/// Precondition check (argument / caller errors).
#define WP_REQUIRE(expr, msg)                                               \
  do {                                                                      \
    if (!(expr))                                                            \
      ::wp::detail::contract_fail("precondition", #expr, __FILE__,          \
                                  __LINE__, (msg));                         \
  } while (false)

/// Postcondition check (implementation errors detected on exit).
#define WP_ENSURE(expr, msg)                                                \
  do {                                                                      \
    if (!(expr))                                                            \
      ::wp::detail::contract_fail("postcondition", #expr, __FILE__,         \
                                  __LINE__, (msg));                         \
  } while (false)

/// Internal invariant check.
#define WP_CHECK(expr, msg)                                                 \
  do {                                                                      \
    if (!(expr))                                                            \
      ::wp::detail::contract_fail("invariant", #expr, __FILE__, __LINE__,   \
                                  (msg));                                   \
  } while (false)
