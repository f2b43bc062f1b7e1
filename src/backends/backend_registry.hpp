// Runtime registry of backends by name.
//
// Benches and tests iterate over backends generically; this maps the paper's
// backend names onto backend ids (exec::make_policy turns an id into the
// matching policy value):
//
//   "seq"       -> backend_id::seq           (GCC-SEQ)
//   "fork_join" -> backend_id::fork_join     (GCC-GNU)
//   "omp"       -> backend_id::omp_static    (NVC-OMP)
//   "omp_dyn"   -> backend_id::omp_dynamic   (extension: dynamic schedule)
//   "steal"     -> backend_id::steal         (GCC-TBB / ICC-TBB)
//   "futures"   -> backend_id::task_futures  (GCC-HPX)
#pragma once

#include <span>
#include <string_view>

#include "backends/backend.hpp"

namespace pstlb::backends {

/// All parallel backend ids (excludes seq).
std::span<const backend_id> parallel_backends();
/// All backend ids including seq.
std::span<const backend_id> all_backends();

std::string_view name_of(backend_id id);

/// Parses a backend name; aborts on unknown names (bench CLI contract).
backend_id parse_backend(std::string_view name);

}  // namespace pstlb::backends
