#include "trace/analysis/span_graph.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace pstlb::trace::analysis {

namespace {

/// Sort-pipeline phase labels by ordinal. The samplesort pipeline (the
/// default parallel sort) uses 0..3; mergesort reuses low ordinals for
/// block_sort/merge rounds — the graph cannot tell the pipelines apart, so
/// ordinals >= 4 get a generic name.
std::string phase_label(std::uint64_t ordinal) {
  switch (ordinal) {
    case 0: return "sample";
    case 1: return "classify";
    case 2: return "scatter";
    case 3: return "leaf";
    default: return "phase" + std::to_string(ordinal);
  }
}

std::uint64_t link_to_task(std::uint64_t link) {
  return link == 0 ? ~std::uint64_t{0} : link - 1;
}

struct instant_ref {
  std::uint64_t ts = 0;
  std::uint32_t tid = 0;
  std::uint64_t link = 0;
  std::uint64_t arg = 0;
};

/// Decodes a link_range word into [begin, end); false when not a range.
bool decode_range(std::uint64_t link, std::uint64_t& begin, std::uint64_t& end) {
  if (link == 0) { return false; }
  begin = (link & 0xFFFFFFFFull) - 1;
  end = link >> 32;
  return end > begin;
}

}  // namespace

std::string_view node_kind_name(node_kind k) noexcept {
  switch (k) {
    case node_kind::chunk: return "chunk";
    case node_kind::scan_reduce: return "scan_reduce";
    case node_kind::scan_scan: return "scan_scan";
    case node_kind::publish: return "publish";
    case node_kind::spawn_point: return "spawn";
    case node_kind::split_point: return "split";
  }
  return "unknown";
}

std::string_view edge_kind_name(edge_kind k) noexcept {
  switch (k) {
    case edge_kind::segment: return "segment";
    case edge_kind::spawn: return "spawn";
    case edge_kind::steal: return "steal";
    case edge_kind::lookback_chain: return "lookback_chain";
    case edge_kind::continuation: return "continuation";
  }
  return "unknown";
}

double span_graph::predicted_speedup(double p) const {
  if (p < 1) { p = 1; }
  if (work_ns <= 0) { return 1; }
  return work_ns / (work_ns / p + span_ns);
}

double span_graph::max_speedup() const {
  return span_ns > 0 ? work_ns / span_ns : 1.0;
}

std::string span_graph::dominant_phase() const {
  return phases.empty() ? std::string() : phases.front().label;
}

span_graph build_span_graph(const std::vector<event>& events,
                            const std::vector<std::uint32_t>& tids) {
  span_graph g;
  if (events.empty()) { return g; }

  // --- pass 1: bucket events -----------------------------------------------
  struct chunk_ref {
    const event* ev = nullptr;
    std::uint32_t tid = 0;
  };
  std::vector<chunk_ref> chunk_events;
  // (tid, link) -> lookback spans, time-ordered (pushed in trace order,
  // which is per-ring chronological).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<const event*>>
      lookbacks;
  std::vector<const event*> phase_spans;
  std::vector<instant_ref> spawn_instants;
  std::vector<instant_ref> split_instants;
  std::vector<instant_ref> steal_instants;

  g.first_ns = ~std::uint64_t{0};
  for (std::size_t i = 0; i < events.size(); ++i) {
    const event& e = events[i];
    const std::uint32_t tid = i < tids.size() ? tids[i] : 0;
    g.first_ns = std::min(g.first_ns, e.begin_ns);
    g.last_ns = std::max(g.last_ns, e.end_ns);
    switch (e.kind) {
      case event_kind::chunk:
        chunk_events.push_back({&e, tid});
        break;
      case event_kind::lookback:
        lookbacks[{tid, e.link}].push_back(&e);
        break;
      case event_kind::phase:
        phase_spans.push_back(&e);
        break;
      case event_kind::spawn:
        ++g.spawns;
        spawn_instants.push_back({e.begin_ns, tid, e.link, e.arg});
        break;
      case event_kind::split:
        ++g.splits;
        split_instants.push_back({e.begin_ns, tid, e.link, e.arg});
        break;
      case event_kind::steal_ok:
        ++g.steals;
        if ((e.arg & steal_remote_bit) != 0) { ++g.remote_steals; }
        steal_instants.push_back({e.begin_ns, tid, e.link, e.arg});
        break;
      case event_kind::idle:
        g.idle_ns_total += e.end_ns > e.begin_ns
                               ? static_cast<double>(e.end_ns - e.begin_ns)
                               : 0.0;
        break;
      default:
        break;  // region spans: not graph material
    }
  }
  if (g.first_ns == ~std::uint64_t{0}) { g.first_ns = 0; }

  auto label_for = [&](std::uint64_t begin, std::uint64_t end,
                       const span_node& n) -> std::string {
    if (n.pool == pool_id::scan) {
      return n.kind == node_kind::scan_reduce ? "scan reduce" : "scan";
    }
    const std::uint64_t mid = begin + (end - begin) / 2;
    for (const event* ph : phase_spans) {
      if (ph->begin_ns <= mid && mid < ph->end_ns) {
        return phase_label(ph->arg);
      }
    }
    return "loop";
  };

  auto add_node = [&](span_node n) -> std::size_t {
    if (n.is_work()) { n.phase = label_for(n.begin_ns, n.end_ns, n); }
    g.nodes.push_back(std::move(n));
    return g.nodes.size() - 1;
  };
  auto add_edge = [&](std::size_t from, std::size_t to, edge_kind kind) {
    // Causal edges must run forward in time; a mismatched link pairing
    // (ring overwrite, repeated indices across regions) must not create a
    // cycle that would poison the longest-path pass.
    if (g.nodes[from].begin_ns > g.nodes[to].end_ns) { return; }
    g.edges.push_back({from, to, kind});
  };

  // --- pass 2: work nodes (splitting scan chunks around their lookback) ----
  // Scan prefix-publish points by task index, for lookback chaining.
  struct publish_ref {
    std::uint64_t task = 0;
    std::size_t node = 0;  // the zero-duration publish node
  };
  std::vector<publish_ref> publishes;
  // Scan consumers: (task c, node that resumes once c-1 published, resume
  // timestamp). For decoupled chunks the resume point is the publish node
  // itself (lookback end); for fast-path chunks it is the chunk start.
  struct consumer_ref {
    std::uint64_t task = 0;
    std::size_t node = 0;
    std::uint64_t resume_ns = 0;
  };
  std::vector<consumer_ref> consumers;
  // task -> chunk nodes (for spawn/steal target lookup), begin-ordered later.
  std::map<std::uint64_t, std::vector<std::size_t>> task_queue_chunks;
  std::map<std::uint64_t, std::vector<std::size_t>> steal_chunks_by_task;

  for (const chunk_ref& c : chunk_events) {
    const event& e = *c.ev;
    const std::uint64_t task = link_to_task(e.link);
    if (e.pool == pool_id::scan && e.link != 0) {
      // Decoupled chunk? Its lookback span shares tid + link and nests
      // inside the chunk interval.
      const event* lb = nullptr;
      auto it = lookbacks.find({c.tid, e.link});
      if (it != lookbacks.end()) {
        for (const event* cand : it->second) {
          if (cand->begin_ns >= e.begin_ns && cand->end_ns <= e.end_ns) {
            lb = cand;
            break;
          }
        }
      }
      if (lb != nullptr) {
        const std::size_t reduce = add_node({e.begin_ns, lb->begin_ns, c.tid,
                                             e.pool, node_kind::scan_reduce,
                                             task, {}});
        const std::size_t publish = add_node(
            {lb->end_ns, lb->end_ns, c.tid, e.pool, node_kind::publish, task, {}});
        const std::size_t scan = add_node({lb->end_ns, e.end_ns, c.tid, e.pool,
                                           node_kind::scan_scan, task, {}});
        add_edge(reduce, publish, edge_kind::segment);
        add_edge(publish, scan, edge_kind::segment);
        publishes.push_back({task, publish});
        consumers.push_back({task, publish, lb->end_ns});
        continue;
      }
      // Fast path (or chunk 0): one fused pass; the prefix was published at
      // the end of the chunk.
      const std::size_t chunk = add_node(
          {e.begin_ns, e.end_ns, c.tid, e.pool, node_kind::chunk, task, {}});
      const std::size_t publish = add_node(
          {e.end_ns, e.end_ns, c.tid, e.pool, node_kind::publish, task, {}});
      add_edge(chunk, publish, edge_kind::segment);
      publishes.push_back({task, publish});
      if (task != 0) { consumers.push_back({task, chunk, e.begin_ns}); }
      continue;
    }
    const std::size_t idx = add_node(
        {e.begin_ns, e.end_ns, c.tid, e.pool, node_kind::chunk, task, {}});
    if (e.link != 0) {
      if (e.pool == pool_id::task_queue) {
        task_queue_chunks[task].push_back(idx);
      } else if (e.pool == pool_id::steal) {
        steal_chunks_by_task[task].push_back(idx);
      }
    }
  }

  // --- pass 3: lookback chain edges ----------------------------------------
  // publish(c-1) -> the point where chunk c resumed. Candidate selection is
  // by time: the latest publish of task c-1 that happened no later than the
  // resume (small tolerance for clock granularity). A lookback that
  // terminated early on aggregates alone has no qualifying publish and gets
  // no edge — correct, it did not wait for the prefix.
  constexpr std::uint64_t tol_ns = 1000;
  std::map<std::uint64_t, std::vector<std::size_t>> publish_by_task;
  for (const publish_ref& p : publishes) {
    publish_by_task[p.task].push_back(p.node);
  }
  for (auto& [task, list] : publish_by_task) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return g.nodes[a].end_ns < g.nodes[b].end_ns;
    });
  }
  for (const consumer_ref& c : consumers) {
    if (c.task == 0) { continue; }
    auto it = publish_by_task.find(c.task - 1);
    if (it == publish_by_task.end()) { continue; }
    const std::uint64_t limit = c.resume_ns + tol_ns;
    std::size_t best = ~std::size_t{0};
    for (const std::size_t cand : it->second) {
      if (g.nodes[cand].end_ns <= limit) {
        best = cand;
      } else {
        break;
      }
    }
    if (best != ~std::size_t{0}) {
      add_edge(best, c.node, edge_kind::lookback_chain);
    }
  }

  // --- pass 4: spawn chains and spawn -> chunk edges -----------------------
  std::sort(spawn_instants.begin(), spawn_instants.end(),
            [](const instant_ref& a, const instant_ref& b) { return a.ts < b.ts; });
  for (auto& [task, list] : task_queue_chunks) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return g.nodes[a].begin_ns < g.nodes[b].begin_ns;
    });
  }
  std::map<std::uint32_t, std::size_t> last_spawn_on_tid;
  for (const instant_ref& sp : spawn_instants) {
    const std::size_t node = add_node({sp.ts, sp.ts, sp.tid, pool_id::task_queue,
                                       node_kind::spawn_point,
                                       link_to_task(sp.link), {}});
    // The submitter enqueues serially: consecutive spawns on one thread are
    // a genuine dependency chain (the central-queue serialization floor).
    auto prev = last_spawn_on_tid.find(sp.tid);
    if (prev != last_spawn_on_tid.end()) {
      add_edge(prev->second, node, edge_kind::segment);
    }
    last_spawn_on_tid[sp.tid] = node;
    if (sp.link == 0) { continue; }
    auto chunks = task_queue_chunks.find(link_to_task(sp.link));
    if (chunks == task_queue_chunks.end()) { continue; }
    for (const std::size_t chunk : chunks->second) {
      if (g.nodes[chunk].begin_ns + tol_ns >= sp.ts) {
        add_edge(node, chunk, edge_kind::spawn);
        break;
      }
    }
  }

  // --- pass 5: split -> stolen-chunk edges ---------------------------------
  // A steal_ok whose link equals a split's link consumed exactly the range
  // that split shed. The thief's first chunk inside the stolen range (after
  // the steal) is the execution the edge reaches.
  std::sort(split_instants.begin(), split_instants.end(),
            [](const instant_ref& a, const instant_ref& b) { return a.ts < b.ts; });
  std::map<std::uint64_t, std::vector<std::size_t>> split_nodes_by_link;
  // Work nodes per tid, begin-ordered, for the victim-side segment edge.
  std::map<std::uint32_t, std::vector<std::size_t>> work_by_tid;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].is_work()) { work_by_tid[g.nodes[i].tid].push_back(i); }
  }
  for (auto& [tid, list] : work_by_tid) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return g.nodes[a].begin_ns < g.nodes[b].begin_ns;
    });
  }
  for (const instant_ref& sp : split_instants) {
    if (sp.link == 0) { continue; }
    const std::size_t node = add_node({sp.ts, sp.ts, sp.tid, pool_id::steal,
                                       node_kind::split_point, ~std::uint64_t{0},
                                       {}});
    split_nodes_by_link[sp.link].push_back(node);
    // Victim-side provenance: the last work the victim finished before
    // shedding this range (absent for the first split after seeding).
    auto it = work_by_tid.find(sp.tid);
    if (it != work_by_tid.end()) {
      std::size_t prev = ~std::size_t{0};
      for (const std::size_t w : it->second) {
        if (g.nodes[w].end_ns <= sp.ts) {
          prev = w;
        } else {
          break;
        }
      }
      if (prev != ~std::size_t{0}) { add_edge(prev, node, edge_kind::segment); }
    }
  }
  for (const instant_ref& st : steal_instants) {
    std::uint64_t range_b = 0;
    std::uint64_t range_e = 0;
    if (!decode_range(st.link, range_b, range_e)) { continue; }
    auto splits = split_nodes_by_link.find(st.link);
    if (splits == split_nodes_by_link.end()) { continue; }
    // Latest split of this exact range at or before the steal.
    std::size_t split = ~std::size_t{0};
    for (const std::size_t cand : splits->second) {
      if (g.nodes[cand].begin_ns <= st.ts + tol_ns) {
        split = cand;
      } else {
        break;
      }
    }
    if (split == ~std::size_t{0}) { continue; }
    // Thief side: first steal-pool chunk on the stealing thread, inside the
    // stolen range, at or after the steal instant.
    std::size_t target = ~std::size_t{0};
    std::uint64_t target_begin = ~std::uint64_t{0};
    for (std::uint64_t task = range_b; task < range_e; ++task) {
      auto chunks = steal_chunks_by_task.find(task);
      if (chunks == steal_chunks_by_task.end()) { continue; }
      for (const std::size_t c : chunks->second) {
        const span_node& n = g.nodes[c];
        if (n.tid == st.tid && n.begin_ns + tol_ns >= st.ts &&
            n.begin_ns < target_begin) {
          target = c;
          target_begin = n.begin_ns;
        }
      }
    }
    if (target != ~std::size_t{0}) { add_edge(split, target, edge_kind::steal); }
  }

  // --- pass 6: continuation edges (schedule order, span-excluded) ----------
  for (const auto& [tid, list] : work_by_tid) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      add_edge(list[i - 1], list[i], edge_kind::continuation);
    }
  }

  // --- pass 7: work, span, critical path -----------------------------------
  const std::size_t n = g.nodes.size();
  std::set<std::uint32_t> tids_with_work;
  for (const span_node& node : g.nodes) {
    if (node.is_work()) {
      g.work_ns += node.dur_ns();
      tids_with_work.insert(node.tid);
    }
  }
  g.threads_observed = static_cast<unsigned>(tids_with_work.size());

  // Longest path over causal edges only, via Kahn's topological order —
  // robust to equal timestamps, and nodes on a (defensively impossible)
  // cycle simply never finalize.
  std::vector<std::vector<std::size_t>> out_edges(n);
  std::vector<unsigned> in_degree(n, 0);
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    if (g.edges[ei].kind == edge_kind::continuation) { continue; }
    out_edges[g.edges[ei].from].push_back(ei);
    ++in_degree[g.edges[ei].to];
  }
  std::vector<double> dist(n, 0);
  std::vector<std::size_t> best_pred_edge(n, ~std::size_t{0});
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = g.nodes[i].dur_ns();
    if (in_degree[i] == 0) { ready.push_back(i); }
  }
  while (!ready.empty()) {
    const std::size_t u = ready.back();
    ready.pop_back();
    for (const std::size_t ei : out_edges[u]) {
      const std::size_t v = g.edges[ei].to;
      const double via = dist[u] + g.nodes[v].dur_ns();
      if (via > dist[v]) {
        dist[v] = via;
        best_pred_edge[v] = ei;
      }
      if (--in_degree[v] == 0) { ready.push_back(v); }
    }
  }
  std::size_t tail = ~std::size_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    if (tail == ~std::size_t{0} || dist[i] > dist[tail]) { tail = i; }
  }
  if (tail != ~std::size_t{0}) {
    g.span_ns = dist[tail];
    std::vector<critical_hop> reversed;
    std::size_t cur = tail;
    for (;;) {
      const std::size_t ei = best_pred_edge[cur];
      if (ei == ~std::size_t{0}) {
        reversed.push_back({cur, 0, edge_kind::segment});
        break;
      }
      const span_edge& e = g.edges[ei];
      const span_node& from = g.nodes[e.from];
      const span_node& to = g.nodes[cur];
      const double gap = to.begin_ns > from.end_ns
                             ? static_cast<double>(to.begin_ns - from.end_ns)
                             : 0.0;
      reversed.push_back({cur, gap, e.kind});
      cur = e.from;
    }
    g.critical_path.assign(reversed.rbegin(), reversed.rend());
  }

  // --- pass 8: attribution -------------------------------------------------
  std::map<std::string, phase_share> shares;
  for (const span_node& node : g.nodes) {
    if (node.is_work()) {
      auto& s = shares[node.phase];
      s.label = node.phase;
      s.work_ns += node.dur_ns();
    }
  }
  for (const critical_hop& hop : g.critical_path) {
    const span_node& node = g.nodes[hop.node];
    g.critical_exec_ns += node.dur_ns();
    if (node.is_work()) { shares[node.phase].critical_ns += node.dur_ns(); }
    if (hop.gap_ns <= 0) { continue; }
    switch (hop.via) {
      case edge_kind::lookback_chain:
        g.critical_lookback_wait_ns += hop.gap_ns;
        break;
      case edge_kind::steal:
        g.critical_steal_wait_ns += hop.gap_ns;
        break;
      case edge_kind::segment:
        // A segment gap into a scan publish IS the lookback wait (reduce
        // ended, the prefix appeared only after the lookback resolved).
        if (node.pool == pool_id::scan && node.kind == node_kind::publish) {
          g.critical_lookback_wait_ns += hop.gap_ns;
        } else {
          g.critical_queue_wait_ns += hop.gap_ns;
        }
        break;
      case edge_kind::spawn:
      default:
        g.critical_queue_wait_ns += hop.gap_ns;
        break;
    }
  }
  g.phases.reserve(shares.size());
  for (auto& [label, share] : shares) { g.phases.push_back(share); }
  std::sort(g.phases.begin(), g.phases.end(),
            [](const phase_share& a, const phase_share& b) {
              if (a.critical_ns != b.critical_ns) {
                return a.critical_ns > b.critical_ns;
              }
              return a.work_ns > b.work_ns;
            });
  return g;
}

}  // namespace pstlb::trace::analysis
