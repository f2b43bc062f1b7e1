#include "counters/perf_provider.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define PSTLB_HAVE_PERF 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#ifndef PERF_FLAG_FD_CLOEXEC
#define PERF_FLAG_FD_CLOEXEC (1UL << 3)
#endif
#else
#define PSTLB_HAVE_PERF 0
#endif

namespace pstlb::counters {

double perf_scale(std::uint64_t value, std::uint64_t time_enabled,
                  std::uint64_t time_running) noexcept {
  if (time_running == 0) { return 0.0; }
  if (time_running >= time_enabled) { return static_cast<double>(value); }
  return static_cast<double>(value) *
         (static_cast<double>(time_enabled) / static_cast<double>(time_running));
}

namespace {

// hw_totals field index per opened event, in group-read value order.
enum field : std::uint8_t {
  f_instructions = 0,
  f_cycles,
  f_cache_refs,
  f_cache_misses,
  f_stalled,
};

constexpr int kMaxEvents = 5;

struct thread_group {
  int leader_fd = -1;
  int fds[kMaxEvents] = {-1, -1, -1, -1, -1};  // leader first
  int nr = 0;                                  // events actually opened
  std::uint8_t fields[kMaxEvents] = {};        // field per value index
};

// Registry of per-thread groups. Groups are never removed: an exited
// thread's fds stay readable and its counts freeze, which keeps read()
// monotonic for the whole process.
std::mutex g_groups_mutex;
std::vector<thread_group> g_groups;

#if PSTLB_HAVE_PERF

int read_paranoid() {
  std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
  if (f == nullptr) { return -100; }
  int level = -100;
  if (std::fscanf(f, "%d", &level) != 1) { level = -100; }
  std::fclose(f);
  return level;
}

int open_event(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  // The group leader starts disabled and the whole group is enabled by one
  // ioctl once every sibling is attached, so all events cover the same
  // interval. Kernel/hypervisor exclusion keeps the counters usable at
  // perf_event_paranoid <= 2 (the unprivileged default on most distros).
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, whichever CPU it runs on.
  return static_cast<int>(
      ::syscall(__NR_perf_event_open, &attr, 0, -1, group_fd, PERF_FLAG_FD_CLOEXEC));
}

#endif  // PSTLB_HAVE_PERF

// Counter-track sampler (Perfetto "C" events): one low-rate background
// thread converting aggregate deltas to rates while tracing is on.
std::atomic<bool> g_sampler_stop{false};
std::thread* g_sampler = nullptr;  // leaked handle; joined by the atexit hook

}  // namespace

bool perf_provider::probe(std::string* reason) {
#if PSTLB_HAVE_PERF
  const int fd = open_event(PERF_COUNT_HW_INSTRUCTIONS, -1);
  if (fd >= 0) {
    ::close(fd);
    return true;
  }
  if (reason != nullptr) {
    const int err = errno;
    *reason = std::string("perf_event_open: ") + std::strerror(err);
    if (const int paranoid = read_paranoid(); paranoid != -100) {
      *reason += " (perf_event_paranoid=" + std::to_string(paranoid) + ")";
    }
  }
  return false;
#else
  if (reason != nullptr) { *reason = "perf_event_open not available on this platform"; }
  return false;
#endif
}

perf_provider::perf_provider() {
  available_ = probe(&reason_);
  if (available_) { start_sampler_if_traced(); }
}

perf_provider::~perf_provider() {
#if PSTLB_HAVE_PERF
  std::lock_guard lock(g_groups_mutex);
  for (const thread_group& g : g_groups) {
    for (int i = 0; i < g.nr; ++i) { ::close(g.fds[i]); }
  }
  g_groups.clear();
#endif
}

void perf_provider::attach_current_thread() {
#if PSTLB_HAVE_PERF
  thread_local bool attached = false;
  if (attached || !available_) { return; }
  attached = true;

  thread_group g;
  g.leader_fd = open_event(PERF_COUNT_HW_INSTRUCTIONS, -1);
  if (g.leader_fd < 0) { return; }  // fd pressure etc.: skip this thread
  g.fds[g.nr] = g.leader_fd;
  g.fields[g.nr++] = f_instructions;

  const struct {
    std::uint64_t config;
    std::uint8_t field;
  } siblings[] = {
      {PERF_COUNT_HW_CPU_CYCLES, f_cycles},
      {PERF_COUNT_HW_CACHE_REFERENCES, f_cache_refs},
      {PERF_COUNT_HW_CACHE_MISSES, f_cache_misses},
      // Frontend stalls are absent on many PMUs (and most VMs): optional.
      {PERF_COUNT_HW_STALLED_CYCLES_FRONTEND, f_stalled},
  };
  for (const auto& s : siblings) {
    const int fd = open_event(s.config, g.leader_fd);
    if (fd < 0) { continue; }
    g.fds[g.nr] = fd;
    g.fields[g.nr++] = s.field;
  }

  ::ioctl(g.leader_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(g.leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);

  std::lock_guard lock(g_groups_mutex);
  g_groups.push_back(g);
#endif
}

hw_totals perf_provider::read() {
  hw_totals out;
  if (!available_) { return out; }
  out.valid = true;
#if PSTLB_HAVE_PERF
  std::lock_guard lock(g_groups_mutex);
  for (const thread_group& g : g_groups) {
    // Group read layout: { nr, time_enabled, time_running, values[nr] }.
    std::uint64_t buf[3 + kMaxEvents] = {};
    const ssize_t got = ::read(g.leader_fd, buf, sizeof(buf));
    if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) { continue; }
    const std::uint64_t nr = buf[0];
    const std::uint64_t enabled = buf[1];
    const std::uint64_t running = buf[2];
    const int values = static_cast<int>(nr < static_cast<std::uint64_t>(g.nr)
                                            ? nr
                                            : static_cast<std::uint64_t>(g.nr));
    for (int i = 0; i < values; ++i) {
      const double scaled = perf_scale(buf[3 + i], enabled, running);
      switch (g.fields[i]) {
        case f_instructions: out.instructions += scaled; break;
        case f_cycles: out.cycles += scaled; break;
        case f_cache_refs: out.cache_refs += scaled; break;
        case f_cache_misses: out.cache_misses += scaled; break;
        case f_stalled: out.stalled_cycles += scaled; break;
        default: break;
      }
    }
    ++out.threads;
  }
#endif
  return out;
}

unsigned perf_provider::attached_threads() {
  std::lock_guard lock(g_groups_mutex);
  return static_cast<unsigned>(g_groups.size());
}

void perf_provider::start_sampler_if_traced() {
  if (!trace::enabled() || g_sampler != nullptr) { return; }
  static constexpr std::chrono::milliseconds period{10};
  g_sampler = new std::thread([this] {
    hw_totals prev = read();
    auto prev_time = std::chrono::steady_clock::now();
    while (!g_sampler_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(period);
      const hw_totals now = read();
      const auto now_time = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(now_time - prev_time).count();
      if (trace::enabled() && dt > 0) {
        const hw_totals d = hw_delta(now, prev);
        trace::record_counter_sample("perf/instructions_per_s", d.instructions / dt);
        trace::record_counter_sample("perf/cycles_per_s", d.cycles / dt);
        if (d.cycles > 0) {
          trace::record_counter_sample("perf/ipc", d.instructions / d.cycles);
        }
        if (d.cache_refs > 0) {
          trace::record_counter_sample("perf/cache_miss_pct",
                                       100.0 * d.cache_misses / d.cache_refs);
        }
      }
      prev = now;
      prev_time = now_time;
    }
  });
  // Stop before the trace exporter's atexit hook (registered at static-init
  // time, i.e. earlier -> runs later): samples are complete when the JSON
  // is written, and no thread is left running into static destruction.
  std::atexit([] {
    if (g_sampler != nullptr) {
      g_sampler_stop.store(true, std::memory_order_relaxed);
      g_sampler->join();
    }
  });
}

}  // namespace pstlb::counters
