#include "trace/analysis/advisor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

#include "sim/run.hpp"

namespace pstlb::trace::analysis {

namespace {

// Locale-independent number formatting for the JSON emitter.
std::string json_num(double v) {
  if (!std::isfinite(v)) { return "0"; }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20 || u >= 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string fmt_ms(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

// ---------------------------------------------------------------------------
// Model side: closed-form mirror of sim::simulate_cpu.
//
// The DES schedules `nchunks` IDENTICAL tasks over `exec_threads` cores with
// node-local pages, so it degenerates to a wave analysis: every core runs
// ceil(nchunks / exec_threads) chunks back to back, each chunk takes
// max(compute, memory) time at the full-contention stream rate of its node,
// and the phase makespan is the slowest core's total. The last (partial)
// wave sees less bandwidth contention in the DES, so the mirror slightly
// overestimates there — well inside the agreement tolerance.
// ---------------------------------------------------------------------------

struct model_phase {
  std::string label;
  double seconds = 0;    // phase total incl. scheduling overhead
  double sched_s = 0;    // fork/per-thread/per-chunk/queue share
  double chunk_s = 0;    // one chunk (the phase's span contribution);
                         // the full phase time when it runs serially
  bool mem_bound = false;  // memory term >= compute term on the worst node
  bool ran_parallel = false;
};

struct model_run {
  bool supported = true;
  double seconds = 0;
  unsigned nodes_in_use = 1;
  double gamma_penalty = 1.0;
  std::vector<model_phase> phases;
};

model_run predict(const sim::machine& m, const sim::backend_profile& prof,
                  const sim::kernel_params& params, unsigned threads_req,
                  numa::placement alloc, sim::thread_placement placement) {
  using sim::memory_tier;
  model_run out;
  const sim::kernel_tuning& tune = prof.tuning(params.kind);
  if (tune.unsupported) {
    out.supported = false;
    return out;
  }

  const unsigned threads = std::min(threads_req, m.cores);
  const bool sequential =
      prof.engine == sim::sched_kind::seq || threads <= 1 ||
      tune.sequential_fallback ||
      params.n < static_cast<double>(prof.seq_threshold(params.kind));

  sim::algo_shape shape{.parallel_version = !sequential,
                        .threads = sequential ? 1 : threads,
                        .sort_merge_rounds = prof.sort_merge_rounds};
  const auto phases = sim::phases_for(params, shape);

  const bool spread = !sequential &&
                      (alloc != numa::placement::sequential_touch ||
                       tune.seq_touch_efficient);
  const bool custom_alloc = alloc != numa::placement::sequential_touch;
  unsigned nodes_in_use = 1;
  if (!sequential && spread) {
    const unsigned per_node = std::max(1u, m.cores_per_node());
    nodes_in_use =
        placement == sim::thread_placement::compact
            ? std::min(m.numa_nodes, (threads + per_node - 1) / per_node)
            : std::min(threads, m.numa_nodes);
  }
  out.nodes_in_use = nodes_in_use;
  const double gamma = tune.numa_gamma * m.numa_scale;
  out.gamma_penalty = 1.0 + gamma * static_cast<double>(nodes_in_use > 1 ? nodes_in_use - 1 : 0);
  const sim::memory_system mem(m, gamma, nodes_in_use, spread, placement);

  const unsigned exec_threads = static_cast<unsigned>(
      std::min<double>(threads, std::max(1.0, tune.max_threads)));

  // Streams per node under full load: each core streams against its own
  // node (parallel touch) or node 0 (sequential touch) — identical to the
  // DES's task-home assignment.
  std::vector<unsigned> streams(std::max(1u, m.numa_nodes), 0);
  for (unsigned c = 0; c < exec_threads; ++c) { ++streams[mem.home_node(c)]; }

  for (const sim::phase& ph : phases) {
    const double exec_frac = ph.executed_fraction < 1.0 && !sequential
                                 ? std::min(1.0, ph.executed_fraction + tune.overshoot)
                                 : ph.executed_fraction;
    const double elems = ph.elems * exec_frac;
    if (elems <= 0) { continue; }

    const double cpe = ph.vectorizable
                           ? 0.5 + ph.flops_per_elem /
                                       static_cast<double>(std::max(1u, tune.vector_lanes))
                           : ph.base_cycles + ph.flops_per_elem * ph.cycles_per_op;
    double bytes_per_elem = (ph.reads_per_elem + ph.writes_per_elem) * tune.traffic_mult;
    if (spread && custom_alloc) { bytes_per_elem *= tune.first_touch_penalty; }
    const memory_tier tier =
        mem.tier_for(ph.working_set_bytes, sequential ? 1 : exec_threads);

    model_phase mp;
    mp.label = ph.label;

    if (sequential || !ph.parallel) {
      const double factor =
          prof.seq_code_factor * (tune.sequential_fallback ? tune.compute_mult : 1.0);
      const double compute_s = elems * cpe / (m.freq_ghz * 1e9) * factor;
      const double mem_s =
          elems * bytes_per_elem / (mem.stream_rate_gbs(tier, 1) * 1e9);
      mp.seconds = std::max(compute_s, mem_s);
      mp.chunk_s = mp.seconds;
      mp.mem_bound = mem_s > compute_s;
      out.seconds += mp.seconds;
      out.phases.push_back(std::move(mp));
      continue;
    }

    const double nchunks =
        std::max(1.0, std::floor(static_cast<double>(exec_threads) * prof.chunks_per_thread));
    const double elems_per_chunk = elems / nchunks;
    const double chunk_cycles = elems_per_chunk * cpe * tune.compute_mult;
    const double chunk_bytes = elems_per_chunk * bytes_per_elem;

    const double frac_loaded =
        m.cores > 1 ? static_cast<double>(exec_threads - 1) / (m.cores - 1) : 0.0;
    double compute_eff = 1.0 - (1.0 - m.par_compute_eff) * frac_loaded;
    if (prof.engine == sim::sched_kind::futures) {
      compute_eff /= 1.0 + 0.03 * static_cast<double>(nodes_in_use - 1);
    }
    const double compute_rate = m.freq_ghz * 1e9 * compute_eff;
    const double compute_term = chunk_cycles / compute_rate;

    // Worst node wins the makespan.
    double chunk_dur = compute_term;
    bool mem_binds = false;
    for (unsigned node = 0; node < streams.size(); ++node) {
      if (streams[node] == 0) { continue; }
      const double rate =
          mem.stream_rate_gbs(tier, streams[node]) * 1e9 * tune.efficiency;
      const double mem_term = rate > 0 ? chunk_bytes / rate : 0.0;
      if (mem_term > chunk_dur) {
        chunk_dur = mem_term;
        mem_binds = true;
      }
    }
    const double waves = std::ceil(nchunks / static_cast<double>(exec_threads));
    double phase_s = waves * chunk_dur;

    double sched_s = prof.fork_s + prof.per_thread_s * threads +
                     prof.per_chunk_s * nchunks / exec_threads;
    phase_s += sched_s;
    if (prof.engine == sim::sched_kind::futures) {
      const double floor = prof.queue_s * nchunks;
      if (floor > phase_s) {
        sched_s += floor - phase_s;
        phase_s = floor;
      }
      const double drain = prof.queue_s * nchunks / exec_threads;
      sched_s += drain;
      phase_s += drain;
    }

    mp.seconds = phase_s;
    mp.sched_s = sched_s;
    mp.chunk_s = chunk_dur;
    mp.mem_bound = mem_binds;
    mp.ran_parallel = true;
    out.seconds += phase_s;
    out.phases.push_back(std::move(mp));
  }
  return out;
}

bound_kind classify_model(const model_run& run) {
  if (run.phases.empty()) { return bound_kind::compute_bound; }
  const model_phase* dominant = &run.phases.front();
  double sched_total = 0;
  double span_total = 0;
  for (const model_phase& ph : run.phases) {
    if (ph.seconds > dominant->seconds) { dominant = &ph; }
    sched_total += ph.sched_s;
    span_total += ph.chunk_s;
  }
  if (run.seconds <= 0) { return bound_kind::compute_bound; }
  if (dominant->mem_bound && dominant->ran_parallel) {
    return run.nodes_in_use > 1 && run.gamma_penalty > 1.25
               ? bound_kind::remote_traffic_bound
               : bound_kind::memory_bound;
  }
  if (sched_total / run.seconds > 0.3) { return bound_kind::scheduler_bound; }
  if (span_total / run.seconds > 0.5 && dominant->ran_parallel) {
    return bound_kind::span_bound;
  }
  return bound_kind::compute_bound;
}

}  // namespace

std::string_view bound_kind_name(bound_kind b) noexcept {
  switch (b) {
    case bound_kind::compute_bound: return "compute_bound";
    case bound_kind::memory_bound: return "memory_bound";
    case bound_kind::span_bound: return "span_bound";
    case bound_kind::scheduler_bound: return "scheduler_bound";
    case bound_kind::remote_traffic_bound: return "remote_traffic_bound";
  }
  return "unknown";
}

std::string verdict::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "predicted max speedup %.1fx at %ut; bottleneck: %s (%s)",
                speedup_at_best, best_threads,
                bottleneck_phase.empty() ? "unknown" : bottleneck_phase.c_str(),
                std::string(bound_kind_name(bound)).c_str());
  return buf;
}

verdict advise(const span_graph& g, const advice_hints& hints) {
  verdict v;
  v.source = "trace";
  v.work_s = g.work_ns * 1e-9;
  v.span_s = g.span_ns * 1e-9;
  v.max_speedup = g.max_speedup();
  v.threads_observed = g.threads_observed;
  v.bottleneck_phase = g.dominant_phase();

  // Brent's curve rises monotonically toward T1/T-inf; report the knee (the
  // first power of two that realizes >= 90 % of the asymptote) as "at Pt".
  v.best_threads = 1;
  for (unsigned p = 1; p <= 1024; p *= 2) {
    const double s = g.predicted_speedup(p);
    v.curve.push_back({p, s});
    if (v.speedup_at_best < 0.9 * v.max_speedup || v.curve.size() == 1) {
      v.best_threads = p;
      v.speedup_at_best = s;
    }
    if (s >= 0.95 * v.max_speedup) { break; }
  }

  const double crit_wall = g.critical_exec_ns + g.critical_lookback_wait_ns +
                           g.critical_steal_wait_ns + g.critical_queue_wait_ns;
  if (crit_wall > 0) {
    v.lookback_wait_frac = g.critical_lookback_wait_ns / crit_wall;
    v.steal_wait_frac = g.critical_steal_wait_ns / crit_wall;
    v.queue_wait_frac = g.critical_queue_wait_ns / crit_wall;
  }
  if (g.steals > 0) {
    v.remote_steal_frac =
        static_cast<double>(g.remote_steals) / static_cast<double>(g.steals);
  }
  if (hints.bytes_moved > 0 && hints.wall_s > 0 && hints.peak_bw_gbs > 0) {
    v.achieved_bw_frac =
        hints.bytes_moved / hints.wall_s / 1e9 / hints.peak_bw_gbs;
  }

  if (v.achieved_bw_frac > 0.5) {
    v.bound = v.remote_steal_frac > 0.3 ? bound_kind::remote_traffic_bound
                                        : bound_kind::memory_bound;
  } else if (v.steal_wait_frac + v.queue_wait_frac > 0.3) {
    v.bound = bound_kind::scheduler_bound;
  } else if (v.lookback_wait_frac > 0.3) {
    v.bound = bound_kind::span_bound;
  } else if (v.remote_steal_frac > 0.3 && g.remote_steals >= 16) {
    v.bound = bound_kind::remote_traffic_bound;
  } else if (v.threads_observed >= 2 &&
             v.max_speedup < 0.5 * static_cast<double>(v.threads_observed)) {
    v.bound = bound_kind::span_bound;
  } else {
    v.bound = bound_kind::compute_bound;
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "T1=%s, T-inf=%s, %u threads observed; critical-path waits: "
                "lookback %.0f%%, steal %.0f%%, queue %.0f%%",
                fmt_ms(v.work_s).c_str(), fmt_ms(v.span_s).c_str(),
                v.threads_observed, v.lookback_wait_frac * 100,
                v.steal_wait_frac * 100, v.queue_wait_frac * 100);
  v.detail = buf;
  return v;
}

double predict_seconds(const sim::machine& m, const sim::backend_profile& prof,
                       const sim::kernel_params& params, unsigned threads,
                       numa::placement alloc,
                       sim::thread_placement placement) {
  const model_run run = predict(m, prof, params, threads, alloc, placement);
  return run.supported ? run.seconds : -1.0;
}

verdict advise_model(const sim::machine& m, const sim::backend_profile& prof,
                     const sim::kernel_params& params, unsigned max_threads,
                     numa::placement alloc, sim::thread_placement placement) {
  verdict v;
  v.source = std::string("model:") + prof.name + "@" + m.name + ":" +
             std::string(sim::kernel_name(params.kind));
  const double baseline = sim::gcc_seq_seconds(m, params);
  v.work_s = baseline;

  std::vector<unsigned> sweep;
  for (unsigned p = 1; p <= std::min(max_threads, m.cores); p *= 2) {
    sweep.push_back(p);
  }
  const unsigned cap = std::min(max_threads, m.cores);
  if (sweep.empty() || sweep.back() != cap) { sweep.push_back(cap); }

  model_run best_run;
  for (const unsigned p : sweep) {
    const model_run run = predict(m, prof, params, p, alloc, placement);
    if (!run.supported || run.seconds <= 0) { continue; }
    const double s = baseline / run.seconds;
    v.curve.push_back({p, s});
    if (s > v.speedup_at_best) {
      v.speedup_at_best = s;
      v.best_threads = p;
      best_run = run;
    }
  }
  v.max_speedup = v.speedup_at_best;

  if (!best_run.phases.empty()) {
    const model_phase* dominant = &best_run.phases.front();
    double span_s = 0;
    for (const model_phase& ph : best_run.phases) {
      if (ph.seconds > dominant->seconds) { dominant = &ph; }
      span_s += ph.chunk_s;
    }
    v.span_s = span_s;
    v.bottleneck_phase = dominant->label;
    v.bound = classify_model(best_run);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "predicted %s at %ut (baseline %s); dominant phase '%s' "
                  "%.0f%% of call, %u node(s) in use",
                  fmt_ms(best_run.seconds).c_str(), v.best_threads,
                  fmt_ms(baseline).c_str(), dominant->label.c_str(),
                  best_run.seconds > 0 ? dominant->seconds / best_run.seconds * 100 : 0.0,
                  best_run.nodes_in_use);
    v.detail = buf;
  }
  return v;
}

void write_json(const verdict& v, std::ostream& os) {
  os << "{\"source\":\"" << escape(v.source) << "\"";
  os << ",\"work_s\":" << json_num(v.work_s);
  os << ",\"span_s\":" << json_num(v.span_s);
  os << ",\"max_speedup\":" << json_num(v.max_speedup);
  os << ",\"best_threads\":" << v.best_threads;
  os << ",\"speedup_at_best\":" << json_num(v.speedup_at_best);
  os << ",\"bound\":\"" << bound_kind_name(v.bound) << "\"";
  os << ",\"bottleneck_phase\":\"" << escape(v.bottleneck_phase) << "\"";
  os << ",\"summary\":\"" << escape(v.summary()) << "\"";
  os << ",\"detail\":\"" << escape(v.detail) << "\"";
  os << ",\"curve\":[";
  for (std::size_t i = 0; i < v.curve.size(); ++i) {
    if (i > 0) { os << ","; }
    os << "{\"threads\":" << v.curve[i].threads
       << ",\"speedup\":" << json_num(v.curve[i].speedup) << "}";
  }
  os << "]";
  os << ",\"waits\":{\"lookback_frac\":" << json_num(v.lookback_wait_frac)
     << ",\"steal_frac\":" << json_num(v.steal_wait_frac)
     << ",\"queue_frac\":" << json_num(v.queue_wait_frac) << "}";
  os << ",\"remote_steal_frac\":" << json_num(v.remote_steal_frac);
  os << ",\"achieved_bw_frac\":" << json_num(v.achieved_bw_frac);
  os << ",\"threads_observed\":" << v.threads_observed;
  os << "}\n";
}

void write_text(const verdict& v, std::ostream& os) {
  os << "scalability advisor [" << v.source << "]\n";
  os << "  work  T1    : " << fmt_ms(v.work_s) << "\n";
  os << "  span  T-inf : " << fmt_ms(v.span_s) << "\n";
  os << "  curve       :";
  for (const speedup_point& p : v.curve) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %ut=%.2fx", p.threads, p.speedup);
    os << buf;
  }
  os << "\n";
  if (v.lookback_wait_frac + v.steal_wait_frac + v.queue_wait_frac > 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  waits       : lookback %.0f%%  steal %.0f%%  queue %.0f%%\n",
                  v.lookback_wait_frac * 100, v.steal_wait_frac * 100,
                  v.queue_wait_frac * 100);
    os << buf;
  }
  if (v.remote_steal_frac > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  remote steal: %.0f%%\n",
                  v.remote_steal_frac * 100);
    os << buf;
  }
  if (!v.detail.empty()) { os << "  detail      : " << v.detail << "\n"; }
  os << "  verdict     : " << v.summary() << "\n";
}

}  // namespace pstlb::trace::analysis
