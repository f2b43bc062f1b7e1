#include "calls_impl.hpp"

namespace perfbench {

call_result call_par(kernel k, slot& s) {
  return run_kernel(pstlb::execution::par, k, s);
}

call_result call_par_unseq(kernel k, slot& s) {
  return run_kernel(pstlb::execution::par_unseq, k, s);
}

call_result call_steal(kernel k, slot& s, unsigned threads) {
  return run_kernel(pstlb::exec::steal_policy{threads}, k, s);
}

call_result call_pstlb(kernel k, policy p, slot& s) {
  switch (p) {
    case policy::par: return call_par(k, s);
    case policy::par_unseq: return call_par_unseq(k, s);
    case policy::fork_join: return call_fork_join(k, s);
    case policy::task: return call_task(k, s);
    case policy::omp_dynamic: return call_omp_dynamic(k, s);
  }
  return {};
}

}  // namespace perfbench
