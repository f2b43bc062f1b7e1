// Table 7: binary sizes per compiler/backend. Two parts:
//   (1) the paper's measured sizes, carried in the backend profiles,
//   (2) the actual sizes of the bench binaries this repository builds
//       (our backends are all compiled into each binary, so one size).
#include <sys/stat.h>

#include <filesystem>

#include "common.hpp"

namespace pstlb::bench {
namespace {

void register_benchmarks() {}

void report(std::ostream& os) {
  table t("Table 7: binary sizes per compiler/backend (paper's toolchains)");
  t.set_header({"compiler/backend", "size (MiB)"});
  for (const sim::backend_profile* prof : sim::profiles::all()) {
    t.add_row({std::string(prof->name), fmt(prof->binary_size_mib, 2)});
  }
  t.add_row({"NVC-CUDA", fmt(7.80, 2)});
  t.print(os);

  table mine("This repository's own benchmark binaries (GCC, all backends "
             "statically linked)");
  mine.set_header({"binary", "size (MiB)"});
  std::error_code ec;
  const std::filesystem::path self_dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
  if (!ec) {
    for (const auto& entry : std::filesystem::directory_iterator(self_dir, ec)) {
      if (ec) { break; }
      if (!entry.is_regular_file()) { continue; }
      const auto& path = entry.path();
      if ((path.filename().string().rfind("fig", 0) == 0 ||
           path.filename().string().rfind("tab", 0) == 0) &&
          path.extension().empty()) {
        mine.add_row({path.filename().string(),
                      fmt(static_cast<double>(entry.file_size()) / (1024.0 * 1024), 2)});
      }
    }
  }
  mine.print(os);
  os << "Paper reference (Tab. 7): SEQ 2.52, GCC-TBB 17.21, GNU 5.31, HPX 61.98,\n"
        "ICC-TBB 16.64, NVC-OMP 1.81, NVC-CUDA 7.80 MiB — backend complexity is\n"
        "visible in the binaries.\n";
}

}  // namespace
}  // namespace pstlb::bench

using namespace pstlb::bench;
PSTLB_BENCH_MAIN(report)
