#include "calls_impl.hpp"

namespace perfbench {

call_result call_fork_join(kernel k, slot& s) {
  return run_kernel(pstlb::exec::fork_join_policy{policy_threads}, k, s);
}

}  // namespace perfbench
