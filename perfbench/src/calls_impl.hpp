// The pstlb side of every kernel, written once against the public front-end
// and instantiated per policy type in calls_<policy>.cpp. Each kernel name
// calls the algorithm of the same name.
#pragma once

#include <functional>

#include "harness.hpp"
#include "pstlb/pstlb.hpp"

namespace perfbench {

call_result call_par(kernel k, slot& s);
call_result call_par_unseq(kernel k, slot& s);
call_result call_fork_join(kernel k, slot& s);
call_result call_task(kernel k, slot& s);
call_result call_omp_dynamic(kernel k, slot& s);
/// The steal backend at an explicit width (the strong-scaling probe).
call_result call_steal(kernel k, slot& s, unsigned threads);

template <class Policy>
call_result run_kernel(const Policy& p, kernel k, slot& s) {
  call_result r;
  double* v = s.values.data();
  double* o = s.out.data();
  const index_t n = s.n;
  switch (k) {
    case kernel::reduce: r.scalar = pstlb::reduce(p, v, v + n, 0.0); break;
    case kernel::transform: pstlb::transform(p, v, v + n, v, o, std::plus<double>{}); break;
    case kernel::find: r.index = pstlb::find(p, v, v + n, s.find_target) - v; break;
    case kernel::count: r.index = pstlb::count(p, v, v + n, s.count_target); break;
    case kernel::min_element: r.index = pstlb::min_element(p, v, v + n) - v; break;
    case kernel::for_each:
      pstlb::for_each(p, o, o + n, [](double& x) { x = for_each_toggle - x; });
      break;
    case kernel::inclusive_scan: pstlb::inclusive_scan(p, v, v + n, o); break;
    case kernel::sort: pstlb::sort(p, o, o + s.sort_n); break;
  }
  return r;
}

}  // namespace perfbench
