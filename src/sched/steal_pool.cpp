#include "sched/steal_pool.hpp"

#include <memory>
#include <thread>
#include <vector>

#include "pstlb/fault.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/thread_pool.hpp"
#include "trace/trace.hpp"

namespace pstlb::sched {

namespace {

/// splitmix64 (Steele, Lea & Flood): the per-thread victim RNG. Each
/// participant owns an independent stream keyed by (seed, tid), so victim
/// choices are uncorrelated across participants yet reproducible run-to-run
/// under PSTLB_FAULT_SEED — the same knob that makes fault injection
/// replayable.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

using deque = chase_lev_deque<packed_chunks>;

/// One run's state, on its caller's stack and shared by its team. The caller
/// (tid 0) fills in `plan`, `deques` and `remaining` once it knows the team
/// size; the other participants wait for `ready` before touching them.
struct steal_run {
  const loop_context* ctx = nullptr;
  std::uint64_t seed = 0;  // victim RNG seed (PSTLB_FAULT_SEED)
  // The multi-node topology to plan for; null = uniform stealing.
  const numa::topology_tree* topo = nullptr;
  const locality_plan* plan = nullptr;  // null = uniform stealing
  std::vector<std::unique_ptr<deque>> deques;  // one per participant
  alignas(cache_line_size) std::atomic<index_t> remaining{0};
  std::atomic<bool> ready{false};
};

/// The caller's share of setup: plans the seeds for the `nthreads` team it
/// claimed and fills one deque per participant. Runs before anything is
/// published, so a throw here leaves `remaining` at 0 and no work behind.
void seed_team(steal_run& run, const locality_plan* plan, unsigned nthreads) {
  const auto chunks = run.ctx->num_chunks();
  std::vector<chunk_seed> seeds;
  if (plan != nullptr) {
    seeds = plan_chunk_seeds(*run.ctx, *plan, chunks);
  } else {
    seeds.push_back(chunk_seed{0, 0, static_cast<std::uint32_t>(chunks)});
  }
  // A deque holds at most its seeds plus one split chain (<= 32 halves of a
  // 32-bit chunk range), so these capacities never grow mid-run.
  run.deques.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    run.deques.push_back(std::make_unique<deque>(seeds.size() + 64));
  }
  for (const chunk_seed& s : seeds) {
    PSTLB_EXPECTS(s.tid < nthreads && s.begin < s.end);
    run.deques[s.tid]->push(pack_chunks(s.begin, s.end));
  }
  run.plan = plan;
  run.remaining.store(chunks, std::memory_order_relaxed);
}

void work(steal_run& run, unsigned tid, unsigned nthreads) {
  // Zero here means the caller's setup failed or the loop already drained.
  if (run.remaining.load(std::memory_order_acquire) == 0) { return; }
  const loop_context& ctx = *run.ctx;
  const locality_plan* plan = run.plan;
  deque& mine = *run.deques[tid];
  std::uint64_t rng = run.seed ^ (0xD1B54A32D192ED03ull * (tid + 1));
  // Locality-first probing: walk the victim order once (nearest first), then
  // take one uniform random probe before restarting the sweep. The random
  // probe keeps every deque reachable even when the ordered sweep races with
  // in-flight splits; a successful steal resets the sweep to nearest-first.
  std::size_t sweep = 0;
  int idle_spins = 0;
  // Tracing: one idle span covers the whole out-of-work interval (first
  // failed pop until work is found or the loop drains), not every spin.
  std::uint64_t idle_since = 0;

  for (;;) {
    std::optional<packed_chunks> item = mine.pop();
    if (!item) {
      if (run.remaining.load(std::memory_order_acquire) == 0) {
        trace::record_span(trace::pool_id::steal, trace::event_kind::idle,
                           idle_since);
        return;
      }
      unsigned victim;
      if (plan != nullptr) {
        const std::vector<unsigned>& order = plan->victims[tid];
        if (sweep < order.size()) {
          victim = order[sweep++];
        } else {
          sweep = 0;
          victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
        }
      } else {
        victim = static_cast<unsigned>(splitmix64(rng) % nthreads);
      }
      if (victim != tid) {
        item = run.deques[victim]->steal();
        const bool local =
            plan == nullptr || plan->node_of[victim] == plan->node_of[tid];
        // A successful steal links the stolen range so the span graph can
        // pair it with the victim's split that shed exactly this range.
        trace::count_steal(trace::pool_id::steal, item.has_value(), victim,
                           local,
                           item.has_value()
                               ? trace::link_range(chunk_begin(*item),
                                                   chunk_end(*item))
                               : 0);
      }
      if (!item) {
        if (idle_since == 0) { idle_since = trace::span_begin(); }
        if (++idle_spins >= 64) {
          std::this_thread::yield();
          idle_spins = 0;
        }
        continue;
      }
    }
    idle_spins = 0;
    sweep = 0;
    trace::record_span(trace::pool_id::steal, trace::event_kind::idle, idle_since);
    idle_since = 0;

    std::uint32_t begin = chunk_begin(*item);
    std::uint32_t end = chunk_end(*item);
    // Lazy binary splitting: shed upper halves into the local deque (where
    // thieves take the largest pieces from the top) and execute the first
    // chunk ourselves.
    while (end - begin > 1) {
      const std::uint32_t mid = begin + (end - begin) / 2;
      mine.push(pack_chunks(mid, end));
      trace::count_split(trace::pool_id::steal, trace::link_range(mid, end));
      end = mid;
    }
    index_t eb = 0;
    index_t ee = 0;
    ctx.chunk_bounds(static_cast<index_t>(begin), eb, ee);
    const std::uint64_t t0 = trace::span_begin();
    ctx.execute_chunk(static_cast<index_t>(begin), tid);
    trace::record_span(trace::pool_id::steal, trace::event_kind::chunk, t0,
                       static_cast<std::uint64_t>(ee - eb),
                       trace::link_task(begin));
    run.remaining.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace

const locality_plan* steal_pool::plan_for(const numa::topology_tree& topo,
                                          unsigned participants) {
  const auto key = std::make_pair(&topo, participants);
  std::lock_guard lock(plans_mutex_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    it = plans_.emplace(key, make_locality_plan(topo, participants)).first;
  }
  return it->second.active() ? &it->second : nullptr;
}

void steal_pool::run(unsigned participants, const loop_context& ctx) {
  PSTLB_EXPECTS(participants >= 1);
  PSTLB_EXPECTS(ctx.run != nullptr);
  if (ctx.num_chunks() == 0) { return; }

  // Per-run fault channel: the first throwing chunk captures its exception
  // here, the rest of the loop drains, and the caller rethrows after the
  // join. An already-installed source (backends::run's) is respected.
  cancel_source errors(current_cancel());
  loop_context run_ctx = ctx;
  if (run_ctx.errors == nullptr) { run_ctx.errors = &errors; }
  run_ctx.name = "steal";

  steal_run run;
  run.ctx = &run_ctx;
  // The victim seed is read once per process and the topology resolved
  // once; only the team-size-dependent plan is made inside the region. A
  // flat topology means uniform stealing.
  static const std::uint64_t seed = fault::env_seed(0x9E3779B9u);
  run.seed = seed;
  const numa::topology_tree& tree = numa::tree();
  if (!tree.flat()) { run.topo = &tree; }
  thread_pool::global().run(
      participants,
      [&](unsigned tid, unsigned nthreads) {
        if (tid == 0) {
          // Placement planning runs here on the calling thread, so the TLS
          // data/chunk-home hints it reads stay visible.
          try {
            const locality_plan* plan =
                run.topo != nullptr ? plan_for(*run.topo, nthreads) : nullptr;
            seed_team(run, plan, nthreads);
          } catch (...) {
            run.ready.store(true, std::memory_order_release);
            throw;
          }
          run.ready.store(true, std::memory_order_release);
        } else {
          while (!run.ready.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        work(run, tid, nthreads);
      },
      run_ctx.errors);
  run_ctx.errors->rethrow();
}

steal_pool& steal_pool::global() {
  static steal_pool pool;
  return pool;
}

}  // namespace pstlb::sched
