#include "calls_impl.hpp"

namespace perfbench {

call_result call_omp_dynamic(kernel k, slot& s) {
  return run_kernel(pstlb::exec::omp_dynamic_policy{policy_threads}, k, s);
}

}  // namespace perfbench
