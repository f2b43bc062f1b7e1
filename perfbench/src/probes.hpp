// Per-layer probes of the traced run. Each probe calls one module's public
// functions directly (arena, pools, backends, simd tables, numa allocator,
// stats registry), so a probe is rewritten or dropped when its layer is.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct layer_metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed next to the value (what was measured, labels)
};

/// Runs every probe and appends its metrics. `failures` counts probe calls
/// whose result did not match the reference.
void run_probes(std::vector<layer_metric>& out, unsigned long long& failures);

/// A serve_mix-shaped load for single-caller workloads: four threads, one
/// per serve_mix policy, each issue checked pstlb::reduce calls at 2^18
/// through the default arena, so its admission queue fills.
void run_arena_contention(unsigned long long& failures);

}  // namespace perfbench
