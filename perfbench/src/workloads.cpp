#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

const char* span_name(kernel k) {
  static const char* const names[kernel_count] = {
      "pstlb.reduce",      "pstlb.transform", "pstlb.find",
      "pstlb.count",       "pstlb.min_element", "pstlb.for_each",
      "pstlb.inclusive_scan", "pstlb.sort"};
  return names[static_cast<int>(k)];
}

index_t call_size(kernel k, const slot& s) { return k == kernel::sort ? s.sort_n : s.n; }

/// One caller thread's share of a measuring pass.
struct caller {
  measurement m;
  double busy_ns = 0;  // inside checked calls, this period
  std::uint64_t ok = 0;  // checked calls, this period
  std::vector<double> period_ns;  // their latencies
  std::pair<double, double> steal_at_start{};  // /proc/stat at the period's start
  std::vector<double> period_rates;
  std::vector<double> rate_steal;  // the steal share of each period_rates entry
  std::uint32_t period = 0;  // index of the open period
  std::uint64_t next_call = 0;

  /// One timed pstlb call, checked against the reference afterwards. A call
  /// that throws or returns a wrong result is counted and not timed.
  void pstlb_call(kernel k, policy p, slot& s) {
    prepare(k, s);
    ++m.attempted;
    call_result r;
    const std::uint64_t t0 = now_ns();
    try {
      spans::scope span(span_name(k), ++next_call);
      r = call_pstlb(k, p, s);
    } catch (...) {
      ++m.threw;
      return;
    }
    const double ns = static_cast<double>(now_ns() - t0);
    if (!verify(k, s, r)) {
      ++m.mismatched;
      return;
    }
    cell_samples& c = m.cells[{k, call_size(k, s), p}];
    c.pstlb_ns.push_back(ns);
    c.pstlb_period.push_back(period);
    m.latency_ns.push_back(ns);
    period_ns.push_back(ns);
    busy_ns += ns;
    ++ok;
  }

  /// The paired std call's time for a cell.
  void std_sample(kernel k, index_t n, policy p, double ns) {
    cell_samples& c = m.cells[{k, n, p}];
    c.std_ns.push_back(ns);
    c.std_period.push_back(period);
  }

  /// Opens a period: a round, which holds every cell once, or a serve_mix
  /// pstlb phase (about half a deck of the request mix) and the std phase
  /// after it.
  void begin_period() { steal_at_start = host_steal_jiffies(); }

  void end_period() {
    const auto steal = host_steal_jiffies();
    const double jiffies = steal.second - steal_at_start.second;
    const double share = jiffies > 0 ? (steal.first - steal_at_start.first) / jiffies : 0;
    if (busy_ns > 0) {
      period_rates.push_back(static_cast<double>(ok) / (busy_ns * 1e-9));
      rate_steal.push_back(share);
    }
    m.period_latency_ns.push_back(std::move(period_ns));
    m.period_steal.push_back(share);
    period_ns.clear();
    busy_ns = 0;
    ok = 0;
    ++period;
  }

  /// ops_per_s is a median over the quiet periods' rates, so host noise
  /// moves few of the periods it is taken over.
  measurement finish() {
    m.ops_per_s = quiet_median(period_rates, rate_steal);
    return std::move(m);
  }
};

double std_call_ns(kernel k, slot& s) {
  prepare(k, s);
  const std::uint64_t t0 = now_ns();
  call_std(k, s);
  return static_cast<double>(now_ns() - t0);
}

/// Untimed first call of a cell: pool spawn, lazy ISA resolution, page
/// faults. Failures here are left to the timed calls to count.
void warm(kernel k, policy p, slot& s) {
  prepare(k, s);
  try {
    call_pstlb(k, p, s);
  } catch (...) {
  }
}

void merge_into(measurement& total, measurement part) {
  for (auto& [key, c] : part.cells) {
    cell_samples& dst = total.cells[key];
    dst.pstlb_ns.insert(dst.pstlb_ns.end(), c.pstlb_ns.begin(), c.pstlb_ns.end());
    dst.std_ns.insert(dst.std_ns.end(), c.std_ns.begin(), c.std_ns.end());
    dst.pstlb_period.insert(dst.pstlb_period.end(), c.pstlb_period.begin(), c.pstlb_period.end());
    dst.std_period.insert(dst.std_period.end(), c.std_period.begin(), c.std_period.end());
  }
  total.latency_ns.insert(total.latency_ns.end(), part.latency_ns.begin(),
                          part.latency_ns.end());
  // Callers close their periods together, so period i of each caller is
  // the same stretch of time.
  if (total.period_latency_ns.size() < part.period_latency_ns.size()) {
    total.period_latency_ns.resize(part.period_latency_ns.size());
  }
  total.period_steal.resize(total.period_latency_ns.size());
  for (std::size_t i = 0; i < part.period_latency_ns.size(); ++i) {
    auto& dst = total.period_latency_ns[i];
    dst.insert(dst.end(), part.period_latency_ns[i].begin(), part.period_latency_ns[i].end());
    total.period_steal[i] = std::max(total.period_steal[i], part.period_steal[i]);
  }
  total.ops_per_s += part.ops_per_s;
  total.attempted += part.attempted;
  total.threw += part.threw;
  total.mismatched += part.mismatched;
}

/// Runs whole rounds until the next one is predicted to end past `seconds`
/// (at least one), so every cell appears equally often in a pass.
template <class Round>
void run_rounds(double seconds, Round&& round) {
  const std::uint64_t t0 = now_ns();
  double last = 0;
  for (int r = 0;; ++r) {
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    if (r > 0 && elapsed + last > seconds) { break; }
    const std::uint64_t r0 = now_ns();
    round();
    last = static_cast<double>(now_ns() - r0) * 1e-9;
  }
}

template <class T>
void shuffle(std::vector<T>& v, rng& r) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(r.below(i))]);
  }
}

// ---------------------------------------------------------------------------

/// One caller, a seeded stream of small calls: every (kernel, size, policy)
/// cell once per round in shuffled order, each paired with its std call in
/// a seeded order. Fixed costs dominate here.
class dispatch_floor final : public workload {
 public:
  const char* name() const override { return "dispatch_floor"; }
  std::string describe() const override {
    return "1 caller; 8 kernels x 2^10,2^12,2^14,2^16 doubles x par,fork_join,task,"
           "omp_dynamic; each call paired with its std call";
  }

  void setup(std::uint64_t seed, std::uint64_t& input_hash) override {
    seed_ = seed;
    slots_.assign(4, slot{});
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const index_t n = index_t{1} << (10 + 2 * i);
      make_slot(slots_[i], n, n, seed, i, input_hash);
    }
    for (int k = 0; k < kernel_count; ++k) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        for (policy p : {policy::par, policy::fork_join, policy::task, policy::omp_dynamic}) {
          cells_.push_back({static_cast<kernel>(k), i, p});
          warm(static_cast<kernel>(k), p, slots_[i]);
        }
      }
    }
  }

  measurement measure(double seconds) override {
    rng order(seed_ * 31 + ++passes_);
    caller c;
    run_rounds(seconds, [&] {
      c.begin_period();
      shuffle(cells_, order);
      for (const cell& x : cells_) {
        slot& s = slots_[x.slot];
        const bool std_first = (order.next() & 1) != 0;
        double ns = 0;
        if (std_first) { ns = std_call_ns(x.k, s); }
        c.pstlb_call(x.k, x.p, s);
        if (!std_first) { ns = std_call_ns(x.k, s); }
        c.std_sample(x.k, call_size(x.k, s), x.p, ns);
      }
      c.end_period();
    });
    return c.finish();
  }

 private:
  struct cell {
    kernel k;
    std::size_t slot;
    policy p;
  };
  std::uint64_t seed_ = 0;
  std::uint64_t passes_ = 0;
  std::vector<slot> slots_;
  std::vector<cell> cells_;
};

// ---------------------------------------------------------------------------

/// One caller, streaming kernels on arrays larger than the LLC: per round,
/// each kernel's std call followed by its four policies, in seeded order.
/// Leaf work, SIMD, the scan skeleton, samplesort and DRAM bandwidth
/// dominate here.
class bulk_scaling final : public workload {
 public:
  static constexpr index_t stream_n = index_t{1} << 26;
  static constexpr index_t sort_n = index_t{1} << 22;

  const char* name() const override { return "bulk_scaling"; }
  std::string describe() const override {
    const double mib = static_cast<double>(stream_n * 8) / (1 << 20);
    const double llc = static_cast<double>(host_llc_bytes()) / (1 << 20);
    char line[320];
    std::snprintf(line, sizeof line,
                  "1 caller; reduce,transform,find,count,for_each,inclusive_scan at 2^26 "
                  "doubles (%.0f MiB per array, %.2fx the %.0f MiB LLC), sort at 2^22; "
                  "par,par_unseq,fork_join,task",
                  mib, llc > 0 ? mib / llc : 0.0, llc);
    return line;
  }

  void setup(std::uint64_t seed, std::uint64_t& input_hash) override {
    seed_ = seed;
    make_slot(data_, stream_n, sort_n, seed, 0, input_hash);
    // Every pool once, every kernel once: a warm call per cell would make
    // set-up as long as a round.
    for (policy p : policies_) { warm(kernel::reduce, p, data_); }
    for (kernel k : kernels_) { warm(k, policy::par, data_); }
  }

  measurement measure(double seconds) override {
    rng order(seed_ * 37 + ++passes_);
    caller c;
    run_rounds(seconds, [&] {
      c.begin_period();
      shuffle(kernels_, order);
      for (kernel k : kernels_) {
        const double std_ns = std_call_ns(k, data_);
        shuffle(policies_, order);
        for (policy p : policies_) {
          c.pstlb_call(k, p, data_);
          c.std_sample(k, call_size(k, data_), p, std_ns);
        }
      }
      c.end_period();
    });
    return c.finish();
  }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t passes_ = 0;
  slot data_;
  std::vector<kernel> kernels_ = {kernel::reduce,   kernel::transform,
                                  kernel::find,     kernel::count,
                                  kernel::for_each, kernel::inclusive_scan,
                                  kernel::sort};
  std::vector<policy> policies_ = {policy::par, policy::par_unseq, policy::fork_join,
                                   policy::task};
};

// ---------------------------------------------------------------------------

/// Four closed-loop callers, each pinned to one backend, issuing a seeded
/// Zipf stream of requests through the process default arena. Pstlb phases
/// alternate with std phases of the same callers and streams; arena
/// queueing and pool contention dominate here.
class serve_mix final : public workload {
 public:
  static constexpr unsigned callers = 4;
  static constexpr std::size_t size_classes = 5;  // 2^10 .. 2^18
  static constexpr double pstlb_phase_s = 0.5;
  static constexpr double std_phase_s = 0.25;

  const char* name() const override { return "serve_mix"; }
  std::string describe() const override {
    return "4 callers (par, fork_join, task, omp_dynamic); Zipf sizes 2^10..2^18 x "
           "for_each,reduce,inclusive_scan,sort; default arena; 0.5 s pstlb / 0.25 s "
           "std phases";
  }

  void setup(std::uint64_t seed, std::uint64_t& input_hash) override {
    slots_.assign(callers, std::vector<slot>(size_classes));
    for (unsigned c = 0; c < callers; ++c) {
      for (std::size_t i = 0; i < size_classes; ++i) {
        const index_t n = index_t{1} << (10 + 2 * i);
        make_slot(slots_[c][i], n, n, seed, 100 + c * size_classes + i, input_hash);
        for (kernel k : kernels) { warm(k, policy_of(c), slots_[c][i]); }
      }
      streams_.push_back({deck(seed * 41 + c), deck(seed * 43 + c)});
    }
  }

  measurement measure(double seconds) override {
    const int pairs =
        std::max(1, static_cast<int>(seconds / (pstlb_phase_s + std_phase_s) + 0.5));
    std::atomic<std::uint64_t> phase_start{0};
    std::barrier sync(callers, [&phase_start]() noexcept { phase_start.store(now_ns()); });
    std::vector<measurement> parts(callers);
    std::vector<std::thread> team;
    for (unsigned c = 0; c < callers; ++c) {
      team.emplace_back([&, c] {
        spans::scope root("serve_mix.caller", c);
        caller me;
        const policy p = policy_of(c);
        auto phase_end = [&](double len) {
          return phase_start.load() + static_cast<std::uint64_t>(len * 1e9);
        };
        for (int pair = 0; pair < pairs; ++pair) {
          sync.arrive_and_wait();
          me.begin_period();
          for (const std::uint64_t end = phase_end(pstlb_phase_s); now_ns() < end;) {
            const auto [k, i] = streams_[c].pstlb.draw();
            me.pstlb_call(k, p, slots_[c][i]);
          }
          sync.arrive_and_wait();
          for (const std::uint64_t end = phase_end(std_phase_s); now_ns() < end;) {
            const auto [k, i] = streams_[c].std.draw();
            slot& s = slots_[c][i];
            me.std_sample(k, call_size(k, s), p, std_call_ns(k, s));
          }
          me.end_period();
        }
        parts[c] = me.finish();
      });
    }
    for (auto& t : team) { t.join(); }
    measurement total;
    for (auto& part : parts) { merge_into(total, std::move(part)); }
    return total;
  }

 private:
  static constexpr kernel kernels[] = {kernel::for_each, kernel::reduce,
                                       kernel::inclusive_scan, kernel::sort};

  /// Backends rotate across callers as in srv_throughput.
  static policy policy_of(unsigned c) {
    constexpr policy rotation[] = {policy::par, policy::fork_join, policy::task,
                                   policy::omp_dynamic};
    return rotation[c % 4];
  }

  /// A caller's request stream: Zipf(s=1) over the size classes (class i is
  /// 1/(i+1) as likely as class 0), kernels uniform. Requests are dealt from
  /// a shuffled deck holding the exact proportions, so the mix does not
  /// drift with the seed; only the order does.
  class deck {
   public:
    explicit deck(std::uint64_t seed) : order_(seed) {
      for (kernel k : kernels) {
        for (std::size_t i = 0; i < size_classes; ++i) {
          cards_.insert(cards_.end(), 60 / (i + 1), {k, i});
        }
      }
      next_ = cards_.size();
    }
    std::pair<kernel, std::size_t> draw() {
      if (next_ == cards_.size()) {
        shuffle(cards_, order_);
        next_ = 0;
      }
      return cards_[next_++];
    }

   private:
    rng order_;
    std::vector<std::pair<kernel, std::size_t>> cards_;
    std::size_t next_ = 0;
  };

  struct streams {
    deck pstlb;
    deck std;
  };
  std::vector<std::vector<slot>> slots_;
  std::vector<streams> streams_;
};

}  // namespace

double measurement::speedup_vs_std(const kernel* only) const {
  std::vector<double> ratios;
  const double cut = quiet_cut(period_steal);
  auto quiet_or_all = [&](const std::vector<double>& ns, const std::vector<std::uint32_t>& at) {
    std::vector<double> quiet;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      if (at[i] < period_steal.size() && period_steal[at[i]] <= cut) { quiet.push_back(ns[i]); }
    }
    return median(quiet.empty() ? ns : quiet);
  };
  for (const auto& [key, c] : cells) {
    if (only != nullptr && std::get<0>(key) != *only) { continue; }
    if (c.pstlb_ns.empty() || c.std_ns.empty()) { continue; }
    const double p = quiet_or_all(c.pstlb_ns, c.pstlb_period);
    const double s = quiet_or_all(c.std_ns, c.std_period);
    if (p > 0 && s > 0) { ratios.push_back(s / p); }
  }
  return geomean(ratios);
}

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "dispatch_floor") { return std::make_unique<dispatch_floor>(); }
  if (name == "bulk_scaling") { return std::make_unique<bulk_scaling>(); }
  if (name == "serve_mix") { return std::make_unique<serve_mix>(); }
  return nullptr;
}

}  // namespace perfbench
