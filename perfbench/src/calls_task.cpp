#include "calls_impl.hpp"

namespace perfbench {

call_result call_task(kernel k, slot& s) {
  return run_kernel(pstlb::exec::task_policy{policy_threads}, k, s);
}

}  // namespace perfbench
