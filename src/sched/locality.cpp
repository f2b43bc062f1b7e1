#include "sched/locality.hpp"

#include <algorithm>

namespace pstlb::sched {

namespace {

thread_local data_hint tls_hint{};
thread_local chunk_home_fn tls_home_fn = nullptr;
thread_local const void* tls_home_state = nullptr;

}  // namespace

locality_plan make_locality_plan(const numa::topology_tree& topo,
                                 unsigned participants) {
  locality_plan plan;
  plan.participants = std::max(1u, participants);
  plan.node_of.resize(plan.participants, 0);
  plan.leader_of.assign(std::max(1u, topo.nodes), locality_plan::npos);

  // Worker -> cpu: even spread (see header). Identity when P == cpus.
  std::vector<unsigned> cpu_of(plan.participants);
  for (unsigned t = 0; t < plan.participants; ++t) {
    const unsigned cpu = static_cast<unsigned>(
        (static_cast<unsigned long long>(t) * topo.cpus) / plan.participants);
    cpu_of[t] = std::min(cpu, topo.cpus - 1);
    plan.node_of[t] =
        cpu_of[t] < topo.node_of_cpu.size() ? topo.node_of_cpu[cpu_of[t]] : 0;
    if (plan.node_of[t] < plan.leader_of.size() &&
        plan.leader_of[plan.node_of[t]] == locality_plan::npos) {
      plan.leader_of[plan.node_of[t]] = t;
    }
  }

  unsigned distinct = 0;
  for (const unsigned leader : plan.leader_of) {
    if (leader != locality_plan::npos) { ++distinct; }
  }
  plan.groups = std::max(1u, distinct);

  auto llc_of = [&](unsigned t) {
    return cpu_of[t] < topo.llc_of_cpu.size() ? topo.llc_of_cpu[cpu_of[t]] : 0;
  };

  // Victim order: same-LLC, then same-node, then remote; within a tier,
  // rotation order (t+1, t+2, ...) so thieves do not converge on one victim.
  plan.victims.resize(plan.participants);
  for (unsigned t = 0; t < plan.participants; ++t) {
    std::vector<unsigned> tiers[3];
    for (unsigned step = 1; step < plan.participants; ++step) {
      const unsigned v = (t + step) % plan.participants;
      if (llc_of(v) == llc_of(t)) {
        tiers[0].push_back(v);
      } else if (plan.node_of[v] == plan.node_of[t]) {
        tiers[1].push_back(v);
      } else {
        tiers[2].push_back(v);
      }
    }
    auto& order = plan.victims[t];
    order.reserve(plan.participants - 1);
    for (auto& tier : tiers) {
      order.insert(order.end(), tier.begin(), tier.end());
    }
  }
  return plan;
}

scoped_data_hint::scoped_data_hint() noexcept = default;

scoped_data_hint::scoped_data_hint(const void* base,
                                   std::size_t bytes_per_index) noexcept
    : saved_(tls_hint), engaged_(true) {
  tls_hint = data_hint{base, bytes_per_index};
}

scoped_data_hint::~scoped_data_hint() {
  if (engaged_) { tls_hint = saved_; }
}

data_hint current_data_hint() noexcept { return tls_hint; }

scoped_chunk_home::scoped_chunk_home() noexcept = default;

scoped_chunk_home::scoped_chunk_home(chunk_home_fn fn, const void* state) noexcept
    : saved_fn_(tls_home_fn), saved_state_(tls_home_state), engaged_(true) {
  tls_home_fn = fn;
  tls_home_state = state;
}

scoped_chunk_home::~scoped_chunk_home() {
  if (engaged_) {
    tls_home_fn = saved_fn_;
    tls_home_state = saved_state_;
  }
}

chunk_home_fn current_chunk_home_fn() noexcept { return tls_home_fn; }
const void* current_chunk_home_state() noexcept { return tls_home_state; }

unsigned home_node_of(const numa::allocation_info& info, std::size_t offset,
                      const locality_plan& plan) {
  if (info.touched == numa::placement::sequential_touch ||
      info.touch_threads <= 1 || info.bytes == 0) {
    return plan.node_of.empty() ? 0 : plan.node_of[0];
  }
  const std::size_t page = numa::topology().page_size;
  const std::size_t pages = (info.bytes + page - 1) / page;
  const std::size_t page_idx = std::min(offset / page, pages - 1);
  // parallel_first_touch hands contiguous page slices to touch_threads
  // workers; slice w covers pages [w * pages / T, (w+1) * pages / T).
  const unsigned toucher = std::min(
      static_cast<unsigned>((static_cast<unsigned long long>(page_idx) *
                             info.touch_threads) /
                            pages),
      info.touch_threads - 1);
  // The touch-time thread count can differ from this plan's participant
  // count; both layouts spread evenly over the same cpus, so map the slice
  // proportionally (not modulo, which wraps remote slices onto node 0).
  const unsigned worker = std::min(
      static_cast<unsigned>((static_cast<unsigned long long>(toucher) *
                             plan.participants) /
                            info.touch_threads),
      plan.participants - 1);
  return plan.node_of[worker];
}

namespace {

struct registry_home_state {
  const loop_context* ctx = nullptr;
  const locality_plan* plan = nullptr;
  numa::allocation_info info{};
  std::size_t bytes_per_index = 0;
};

unsigned registry_home(const void* raw, index_t chunk) {
  const auto& s = *static_cast<const registry_home_state*>(raw);
  index_t begin = 0;
  index_t end = 0;
  s.ctx->chunk_bounds(chunk, begin, end);
  // Midpoint byte of the chunk's data: robust when a chunk straddles a
  // page-slice boundary.
  const std::size_t mid =
      static_cast<std::size_t>(begin) * s.bytes_per_index +
      (static_cast<std::size_t>(end - begin) * s.bytes_per_index) / 2;
  return home_node_of(s.info, mid, *s.plan);
}

}  // namespace

std::vector<chunk_seed> plan_chunk_seeds(const loop_context& ctx,
                                         const locality_plan& plan,
                                         index_t chunks) {
  const auto everything = [&] {
    return std::vector<chunk_seed>{
        chunk_seed{0, 0, static_cast<std::uint32_t>(chunks)}};
  };
  if (!plan.active() || chunks <= 1) { return everything(); }

  chunk_home_fn home = current_chunk_home_fn();
  const void* home_state = current_chunk_home_state();
  registry_home_state reg;
  if (home == nullptr) {
    const data_hint hint = current_data_hint();
    if (hint.base == nullptr || hint.bytes_per_index == 0) {
      return everything();
    }
    const auto info = numa::page_registry::instance().lookup(hint.base);
    if (!info) { return everything(); }
    reg.ctx = &ctx;
    reg.plan = &plan;
    reg.info = *info;
    reg.bytes_per_index = hint.bytes_per_index;
    home = &registry_home;
    home_state = &reg;
  }

  std::vector<chunk_seed> seeds;
  unsigned run_node = locality_plan::npos;
  for (index_t c = 0; c < chunks; ++c) {
    unsigned node = home(home_state, c);
    if (node >= plan.leader_of.size() ||
        plan.leader_of[node] == locality_plan::npos) {
      node = plan.node_of[0];  // unknown node: keep with the caller's group
    }
    if (node != run_node) {
      seeds.push_back(chunk_seed{plan.leader_of[node],
                                 static_cast<std::uint32_t>(c),
                                 static_cast<std::uint32_t>(c)});
      run_node = node;
    }
    seeds.back().end = static_cast<std::uint32_t>(c + 1);
  }
  return seeds;
}

}  // namespace pstlb::sched
