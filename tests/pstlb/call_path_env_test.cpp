// The call path reads no configuration: once each call has run, a parallel
// algorithm call on any parallel backend, made through a freshly constructed
// policy value, calls neither getenv nor get_nprocs (which
// std::thread::hardware_concurrency() calls on glibc). Knobs are read once,
// at first use, by the subsystem that owns them.
//
// This executable interposes both functions, forwarding each to the C
// library through dlsym(RTLD_NEXT, ...), and counts the calls. It is kept
// out of the sanitizer builds, whose runtimes intercept libc themselves.
#include <dlfcn.h>
#include <sys/sysinfo.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pstlb/detail/sort_stats.hpp"
#include "pstlb/pstlb.hpp"

namespace {

std::atomic<long> g_getenv_calls{0};
std::atomic<long> g_nprocs_calls{0};

template <class Fn>
Fn next_definition(const char* name) {
  return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" char* getenv(const char* name) noexcept {
  static const auto real = next_definition<char* (*)(const char*)>("getenv");
  g_getenv_calls.fetch_add(1, std::memory_order_relaxed);
  return real(name);
}

extern "C" int get_nprocs() noexcept {
  static const auto real = next_definition<int (*)()>("get_nprocs");
  g_nprocs_calls.fetch_add(1, std::memory_order_relaxed);
  return real();
}

namespace {

struct reads {
  long getenv_calls = 0;
  long nprocs_calls = 0;
};

reads now() {
  return {g_getenv_calls.load(), g_nprocs_calls.load()};
}

struct inputs {
  std::vector<double> values;
  std::vector<double> out;
  std::vector<long long> large_sort;  // 2^17: samplesort
  std::vector<long long> small_sort;  // 2^12: mergesort

  inputs() : values(1 << 16), out(values.size()) {
    std::mt19937_64 rng(7);
    for (double& x : values) { x = static_cast<double>(rng() % 1000); }
    large_sort.resize(1 << 17);
    for (long long& x : large_sort) { x = static_cast<long long>(rng()); }
    small_sort.assign(large_sort.begin(), large_sort.begin() + (1 << 12));
  }
};

struct call {
  const char* name;
  std::function<void(inputs&)> run;
};

/// The measured calls on the backend of `Policy`, each constructing its
/// policy value inside the call.
template <class Policy>
std::vector<call> calls() {
  return {
      {"reduce",
       [](inputs& in) {
         const double sum = pstlb::reduce(Policy{4}, in.values.begin(),
                                          in.values.end(), 0.0);
         EXPECT_GT(sum, 0.0);
       }},
      {"for_each",
       [](inputs& in) {
         pstlb::for_each(Policy{4}, in.out.begin(), in.out.end(),
                         [](double& x) { x = 1.0; });
         EXPECT_EQ(in.out.back(), 1.0);
       }},
      {"inclusive_scan",
       [](inputs& in) {
         pstlb::inclusive_scan(Policy{4}, in.values.begin(), in.values.end(),
                               in.out.begin());
         EXPECT_EQ(in.out.back(), std::accumulate(in.values.begin(),
                                                  in.values.end(), 0.0));
       }},
      {"copy_if",
       [](inputs& in) {
         const auto end =
             pstlb::copy_if(Policy{4}, in.values.begin(), in.values.end(),
                            in.out.begin(), [](double x) { return x < 500.0; });
         EXPECT_EQ(end - in.out.begin(),
                   std::count_if(in.values.begin(), in.values.end(),
                                 [](double x) { return x < 500.0; }));
       }},
      {"sort 2^17",
       [](inputs& in) {
         std::vector<long long> v = in.large_sort;
         pstlb::sort(Policy{4}, v.begin(), v.end());
         EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
         EXPECT_STREQ(pstlb::detail::last_sort_traffic().algorithm, "sample");
       }},
      {"sort 2^12",
       [](inputs& in) {
         std::vector<long long> v = in.small_sort;
         pstlb::sort(Policy{4}, v.begin(), v.end());
         EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
         EXPECT_STRNE(pstlb::detail::last_sort_traffic().algorithm, "sample");
       }},
  };
}

struct backend_calls {
  const char* backend;
  std::vector<call> calls;
};

std::vector<backend_calls> every_backend() {
  namespace exec = pstlb::exec;
  return {
      {"fork_join", calls<exec::fork_join_policy>()},
      {"omp_static", calls<exec::omp_static_policy>()},
      {"omp_dynamic", calls<exec::omp_dynamic_policy>()},
      {"steal", calls<exec::steal_policy>()},
      {"task_futures", calls<exec::task_policy>()},
  };
}

TEST(CallPathEnv, ParallelCallsReadNoConfiguration) {
  {
    // Zero counts below must not mean the interposers never ran.
    const reads before = now();
    (void)std::getenv("PATH");
    (void)std::thread::hardware_concurrency();
    const reads after = now();
    ASSERT_EQ(after.getenv_calls - before.getenv_calls, 1);
    ASSERT_EQ(after.nprocs_calls - before.nprocs_calls, 1);
  }
  inputs in;
  const std::vector<backend_calls> backends = every_backend();
  for (const backend_calls& b : backends) {
    for (const call& c : b.calls) { c.run(in); }  // warm-up
  }
  std::ostringstream readers;
  for (const backend_calls& b : backends) {
    for (const call& c : b.calls) {
      const reads before = now();
      c.run(in);
      const reads after = now();
      const long env = after.getenv_calls - before.getenv_calls;
      const long nprocs = after.nprocs_calls - before.nprocs_calls;
      if (env != 0 || nprocs != 0) {
        readers << "\n  " << b.backend << " " << c.name << ": " << env
                << " getenv, " << nprocs << " get_nprocs";
      }
    }
  }
  EXPECT_TRUE(readers.str().empty())
      << "calls that read configuration:" << readers.str();
}

}  // namespace
