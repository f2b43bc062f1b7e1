// pSTL-Bench — common definitions shared by every module.
//
// Naming note: the public namespace is `pstlb` (parallel-STL bench) to avoid
// clashing with vendor `pstl` implementation namespaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace pstlb {

/// Element type used by the paper's kernels (64-bit float by default;
/// the GPU experiments in Figs. 8-9 use 32-bit float).
using elem_t = double;

/// Index type for all range decomposition. Signed on purpose: chunk
/// arithmetic frequently subtracts and a silent wrap would be a bug factory.
using index_t = std::ptrdiff_t;

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Contract checks in the spirit of the C++ Core Guidelines (I.6/E.12):
/// preconditions abort loudly instead of invoking UB. They stay enabled in
/// release builds — the cost is negligible next to parallel dispatch.
[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "pstlb: %s violated: (%s) at %s:%d\n", kind, expr, file, line);
  std::abort();
}

#define PSTLB_EXPECTS(cond)                                                  \
  ((cond) ? static_cast<void>(0)                                            \
          : ::pstlb::contract_failure("precondition", #cond, __FILE__, __LINE__))

#define PSTLB_ENSURES(cond)                                                  \
  ((cond) ? static_cast<void>(0)                                            \
          : ::pstlb::contract_failure("postcondition", #cond, __FILE__, __LINE__))

/// Destructive-interference padding for per-thread slots.
inline constexpr std::size_t cache_line_size = 64;

/// ceil(a / b) for non-negative integers.
constexpr index_t ceil_div(index_t a, index_t b) {
  return (a + b - 1) / b;
}

}  // namespace pstlb
