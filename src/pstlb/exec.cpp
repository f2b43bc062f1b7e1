#include "pstlb/exec.hpp"

#include "backends/nesting.hpp"

namespace pstlb::exec {

admission::admission(const policy& p, index_t n) {
  if (backends::in_parallel_region()) {
    sched::arena* a = sched::arena::current();
    if (a == nullptr || a->cap() <= 1 || backends::region_depth() > 1) { return; }
    backend_ = backends::backend(a);
  } else if (sched::arena* a = sched::arena::admission_target(); a == nullptr) {
    backend_ = backends::backend(p.backend, p.threads);
  } else {
    ticket_ = a->admit(p.threads);
    if (!ticket_.parallel()) { return; }
    bind_.emplace(a);
    backend_ = backends::backend(p.backend, ticket_.granted());
  }
  grain_ = p.grain > 0 ? p.grain : backends::default_grain(n, backend_.threads());
  parallel_ = true;
}

}  // namespace pstlb::exec
