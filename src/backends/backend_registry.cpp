#include "backends/backend_registry.hpp"

#include <array>

namespace pstlb::backends {

namespace {
constexpr std::array par_ids{backend_id::fork_join, backend_id::omp_dynamic,
                             backend_id::steal, backend_id::task_futures};
constexpr std::array all_ids{backend_id::seq, backend_id::fork_join,
                             backend_id::omp_dynamic, backend_id::steal,
                             backend_id::task_futures};
}  // namespace

std::span<const backend_id> parallel_backends() { return par_ids; }
std::span<const backend_id> all_backends() { return all_ids; }

std::string_view name_of(backend_id id) {
  switch (id) {
    case backend_id::seq: return "seq";
    case backend_id::fork_join: return "fork_join";
    case backend_id::omp_dynamic: return "omp_dyn";
    case backend_id::steal: return "steal";
    case backend_id::task_futures: return "futures";
  }
  return "?";
}

backend_id parse_backend(std::string_view name) {
  for (backend_id id : all_ids) {
    if (name_of(id) == name) { return id; }
  }
  contract_failure("precondition", "known backend name", __FILE__, __LINE__);
}

}  // namespace pstlb::backends
