// Per-phase traffic accounting for the sort implementations.
//
// The samplesort-vs-mergesort story is about memory traffic: samplesort
// streams the array a constant number of times regardless of thread count,
// the pairwise merge rounds stream it log2(P) times. To make that measurable
// (fig7's native comparison, the acceptance criterion of the samplesort PR)
// rather than asserted, every sort records where its bytes went, phase by
// phase, into a thread-local snapshot the caller can read back after the
// sort returns. Totals are additionally folded into the innermost active
// counters::region via counters::report_work, mirroring the scan family's
// traffic accounting.
//
// Thread-local on purpose: a sort is parallel inside, but the phase
// bookkeeping happens on the orchestrating (calling) thread only, so
// concurrent sorts from different threads never race on the snapshot.
#pragma once

#include <cstddef>

#include "counters/counters.hpp"
#include "pstlb/common.hpp"

namespace pstlb::detail {

/// Bytes moved by one sort phase (DRAM-level software accounting, same
/// modeling discipline as report_scan_traffic).
struct sort_phase_traffic {
  double read = 0;
  double written = 0;
};

struct sort_traffic_stats {
  // Which pipeline filled the snapshot ("sample" or "merge"); empty until a
  // parallel sort ran on this thread.
  const char* algorithm = "";
  double input_bytes = 0;  // n * sizeof(T) — denominator for the pass math

  // Samplesort phases.
  sort_phase_traffic sample;    // splitter sampling + sort
  sort_phase_traffic classify;  // per-chunk bucket counting + bucket ids
  sort_phase_traffic scatter;   // move into the buffer by the recorded ids
  sort_phase_traffic buckets;   // bucket kernel: buffer -> input, sorted

  // Mergesort phases.
  sort_phase_traffic block_sort;    // phase-1 independent run sorts
  sort_phase_traffic merge_rounds;  // all pairwise rounds
  int merge_round_count = 0;        // rounds executed, incl. the final move-back

  double total_read() const {
    return sample.read + classify.read + scatter.read + buckets.read +
           block_sort.read + merge_rounds.read;
  }
  double total_written() const {
    return sample.written + classify.written + scatter.written +
           buckets.written + block_sort.written + merge_rounds.written;
  }
  /// Full streams of the input array the sort's reads amount to — the O(1)
  /// vs O(log P) number the fig7 comparison prints.
  double read_passes() const {
    return input_bytes > 0 ? total_read() / input_bytes : 0;
  }
  double write_passes() const {
    return input_bytes > 0 ? total_written() / input_bytes : 0;
  }
};

/// Snapshot of the last sort completed on the calling thread.
inline sort_traffic_stats& last_sort_traffic() {
  thread_local sort_traffic_stats stats;
  return stats;
}

/// Starts a fresh snapshot for a sort of `n` elements of `elem_bytes` each.
inline sort_traffic_stats& begin_sort_traffic(const char* algorithm, index_t n,
                                              std::size_t elem_bytes) {
  auto& stats = last_sort_traffic();
  stats = sort_traffic_stats{};
  stats.algorithm = algorithm;
  stats.input_bytes = static_cast<double>(n) * static_cast<double>(elem_bytes);
  return stats;
}

/// Folds the finished snapshot's totals into the innermost counters::region
/// (no-op without one), exactly like report_scan_traffic.
inline void commit_sort_traffic(const sort_traffic_stats& stats) {
  counters::counter_set work;
  work.bytes_read = stats.total_read();
  work.bytes_written = stats.total_written();
  counters::report_work(work);
}

}  // namespace pstlb::detail
