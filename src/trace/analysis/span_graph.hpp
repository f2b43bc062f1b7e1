// Causal span graph: reconstructs a completed region's task DAG from the
// trace events and computes its work/span decomposition.
//
// Nodes are the executed work intervals (chunk spans; for the decoupled-
// lookback scan each chunk is split into a reduce segment, a zero-duration
// prefix-publish point and a scan segment, so the lookback *wait* is an
// edge gap rather than work). Edges are the causal dependencies the link
// words (trace::event::link) let us recover:
//
//   segment         intra-task ordering (reduce -> publish -> scan; the
//                   serial spawn chain of the central-queue submitter)
//   spawn           task_queue submit instant -> the chunk it became
//   steal           a victim's range split -> the thief chunk that consumed
//                   the shed range (matched by exact link_range equality)
//   lookback_chain  scan prefix publish of chunk c-1 -> chunk c's resume
//   continuation    same-thread consecutive execution (schedule order, NOT
//                   a logical dependency — excluded from the span)
//
// From the DAG: T1 (work) is the summed duration of all work nodes, T-inf
// (span) is the longest causal path, and Brent's bound T(P) <= T1/P + T-inf
// yields the predicted-speedup curve. The critical path is attributed to
// kernel phases (sort pipeline phase spans overlapping each node; scan
// reduce/scan segments) and its inter-node gaps to lookback waits, steal
// latency and queue waits — the "where did the span come from" answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace pstlb::trace::analysis {

enum class node_kind : std::uint8_t {
  chunk,        // one executed chunk body
  scan_reduce,  // decoupled scan: aggregate pass of a chunk
  scan_scan,    // decoupled scan: output pass after the carry resolved
  publish,      // zero-duration: scan prefix published (unblocks successors)
  spawn_point,  // zero-duration: central-queue task submitted
  split_point,  // zero-duration: steal-range shed into a deque
};

enum class edge_kind : std::uint8_t {
  segment,
  spawn,
  steal,
  lookback_chain,
  continuation,
};

std::string_view node_kind_name(node_kind k) noexcept;
std::string_view edge_kind_name(edge_kind k) noexcept;

struct span_node {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  pool_id pool = pool_id::none;
  node_kind kind = node_kind::chunk;
  /// Chunk/ticket index recovered from the link word; ~0 when unlinked.
  std::uint64_t task = ~std::uint64_t{0};
  /// Kernel-phase label: overlapping sort-pipeline phase span ("classify",
  /// "scatter", ...), "scan"/"scan reduce" for lookback chunks, "loop"
  /// otherwise.
  std::string phase;

  double dur_ns() const {
    return end_ns > begin_ns ? static_cast<double>(end_ns - begin_ns) : 0.0;
  }
  bool is_work() const {
    return kind == node_kind::chunk || kind == node_kind::scan_reduce ||
           kind == node_kind::scan_scan;
  }
};

struct span_edge {
  std::size_t from = 0;
  std::size_t to = 0;
  edge_kind kind = edge_kind::segment;
};

/// One hop of the critical path: the node reached, the wall-clock gap
/// between the predecessor's end and this node's begin, and the edge kind
/// that explains the gap.
struct critical_hop {
  std::size_t node = 0;
  double gap_ns = 0;
  edge_kind via = edge_kind::segment;
};

struct phase_share {
  std::string label;
  double work_ns = 0;      // summed over all work nodes with this label
  double critical_ns = 0;  // summed over critical-path nodes only
};

struct span_graph {
  std::vector<span_node> nodes;
  std::vector<span_edge> edges;

  double work_ns = 0;  // T1
  double span_ns = 0;  // T-inf (longest causal path, work time only)
  std::uint64_t first_ns = 0;  // observed window
  std::uint64_t last_ns = 0;

  std::vector<critical_hop> critical_path;  // execution order
  double critical_exec_ns = 0;           // work on the path
  double critical_lookback_wait_ns = 0;  // gaps across lookback_chain edges
  double critical_steal_wait_ns = 0;     // gaps across steal edges
  double critical_queue_wait_ns = 0;     // gaps across spawn/segment edges

  /// Per-label attribution, critical-share descending.
  std::vector<phase_share> phases;

  unsigned threads_observed = 0;  // distinct tids with work nodes
  std::uint64_t steals = 0;
  std::uint64_t spawns = 0;
  std::uint64_t splits = 0;
  double idle_ns_total = 0;  // summed idle spans (scheduler wait)

  /// Brent's bound: S(P) = T1 / (T1/P + T-inf).
  double predicted_speedup(double p) const;
  /// Asymptote T1 / T-inf (1 when the graph is empty).
  double max_speedup() const;
  /// Label with the largest critical-path share ("" when empty).
  std::string dominant_phase() const;
};

/// Builds the graph from events (live snapshot or parsed export). `tids`
/// runs parallel to `events` and identifies the recording ring/thread.
span_graph build_span_graph(const std::vector<event>& events,
                            const std::vector<std::uint32_t>& tids);

}  // namespace pstlb::trace::analysis
