#include "pstlb/exec.hpp"

#include "sched/cancel.hpp"

namespace pstlb::exec {

admission::admission(const policy& p, index_t n) {
  if (sched::current_cancel() != nullptr) {
    // A call inside a region rides the enclosing call's grant.
    backend_ = backends::backend(p.backend, p.threads);
  } else {
    sched::arena& a = sched::arena::admission_target();
    ticket_ = a.admit(p.threads);
    if (!ticket_.parallel()) { return; }
    bind_.emplace(&a);
    backend_ = backends::backend(p.backend, ticket_.granted());
  }
  grain_ = p.grain > 0 ? p.grain : backends::default_grain(n, backend_.threads());
  parallel_ = true;
}

}  // namespace pstlb::exec
