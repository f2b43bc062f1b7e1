// The three workloads. Each is a closed loop driven from this process: set
// up (inputs, references, warmup) before timing, then time pstlb calls
// interleaved with the libstdc++ sequential reference on the same inputs,
// checking every result outside the timed region.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Timed samples of one (kernel, size, policy) cell, in ns, each with the
/// index of the period it was taken in.
struct cell_samples {
  std::vector<double> pstlb_ns;
  std::vector<double> std_ns;
  std::vector<std::uint32_t> pstlb_period;
  std::vector<std::uint32_t> std_period;
};
using cell_key = std::tuple<kernel, index_t, policy>;
using cell_map = std::map<cell_key, cell_samples>;

/// What one measuring pass produced.
struct measurement {
  cell_map cells;
  std::vector<double> latency_ns;  // every checked pstlb call
  /// The same latencies split by period (a round, or a serve_mix pstlb
  /// phase pooled across callers), in time order.
  std::vector<std::vector<double>> period_latency_ns;
  /// Per period, the share of CPU time the hypervisor gave to other guests.
  std::vector<double> period_steal;
  double ops_per_s = 0;            // summed over callers
  std::uint64_t attempted = 0;
  std::uint64_t threw = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const { return threw + mismatched; }
  /// Geometric mean over cells of median(std) / median(pstlb), each median
  /// over the cell's samples from quiet periods (all its samples when it
  /// has none there); restricted to one kernel when `only` is given.
  double speedup_vs_std(const kernel* only = nullptr) const;
};

class workload {
 public:
  virtual ~workload() = default;
  virtual const char* name() const = 0;
  /// Builds every input from `seed` (folding its bytes into `input_hash`),
  /// computes the reference results and warms every cell once. Called once,
  /// before the first measure().
  virtual void setup(std::uint64_t seed, std::uint64_t& input_hash) = 0;
  /// Runs the timed loop for about `seconds`.
  virtual measurement measure(double seconds) = 0;
  /// Kernels, sizes and policies, one line for the output.
  virtual std::string describe() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name);

}  // namespace perfbench
