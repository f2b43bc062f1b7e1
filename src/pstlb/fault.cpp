#include "pstlb/fault.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <system_error>
#include <thread>

#include "pstlb/env.hpp"
#include "sched/cancel.hpp"

namespace pstlb::fault {

namespace detail {
// Armed eagerly when PSTLB_FAULT is present: the hooks are gated on armed(),
// so the first hook that fires does the real (locked) parse via
// load_from_env() — which disarms again if the value is malformed.
std::atomic<bool> g_armed{std::getenv("PSTLB_FAULT") != nullptr};
}

namespace {

spec g_spec;
std::once_flag g_env_once;
std::atomic<std::uint64_t> g_alloc_site{0};
std::atomic<std::uint64_t> g_spawn_site{0};

/// splitmix64: decorrelates (seed, site) into a uniform 64-bit draw.
std::uint64_t mix(std::uint64_t seed, std::uint64_t site) {
  std::uint64_t z = seed ^ (site + 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool draw(double probability, std::uint64_t site) {
  if (probability >= 1.0) { return true; }
  if (probability <= 0.0) { return false; }
  const double u =
      static_cast<double>(mix(g_spec.seed, site) >> 11) * 0x1.0p-53;
  return u < probability;
}

void load_from_env() {
  std::call_once(g_env_once, [] {
    const std::string text = env::string_or("PSTLB_FAULT", "");
    if (text.empty()) { return; }
    const spec parsed = parse(text, env_seed(1));
    if (parsed.mode == kind::none) {
      std::fprintf(stderr, "pstlb: ignoring malformed PSTLB_FAULT=%s\n",
                   text.c_str());
      return;
    }
    set(parsed);
  });
}

}  // namespace

spec parse(std::string_view text, std::uint64_t seed) {
  spec s;
  s.seed = seed;
  const auto colon = text.find(':');
  const std::string_view mode = text.substr(0, colon);
  const std::string arg(colon == std::string_view::npos
                            ? std::string_view{}
                            : text.substr(colon + 1));
  char* end = nullptr;
  if (mode == "throw" || mode == "oom") {
    const double p = std::strtod(arg.c_str(), &end);
    if (end == arg.c_str() || p < 0.0) { return spec{}; }
    s.mode = mode == "throw" ? kind::throw_ : kind::oom;
    s.probability = p;
    return s;
  }
  if (mode == "stall") {
    const unsigned long ms = std::strtoul(arg.c_str(), &end, 10);
    if (end == arg.c_str() || ms == 0) { return spec{}; }
    s.mode = kind::stall;
    s.stall_ms = static_cast<unsigned>(ms);
    return s;
  }
  if (mode == "spawnfail") {
    s.mode = kind::spawnfail;
    if (!arg.empty()) {
      const unsigned long count = std::strtoul(arg.c_str(), &end, 10);
      if (end == arg.c_str() || count == 0) { return spec{}; }
      s.spawn_fails = static_cast<unsigned>(count);
    }
    return s;
  }
  return spec{};
}

void set(const spec& s) {
  g_spec = s;
  g_alloc_site.store(0, std::memory_order_relaxed);
  g_spawn_site.store(0, std::memory_order_relaxed);
  detail::g_armed.store(s.mode != kind::none, std::memory_order_release);
}

void set(std::string_view text) { set(parse(text)); }

std::uint64_t env_seed(std::uint64_t fallback) {
  const std::string text = env::string_or("PSTLB_FAULT_SEED", "");
  std::uint64_t seed = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
  return ec == std::errc() && ptr == end ? seed : fallback;
}

const spec& active() noexcept {
  load_from_env();
  return g_spec;
}

void on_chunk(index_t begin) {
  load_from_env();
  if (g_spec.mode == kind::throw_) {
    if (draw(g_spec.probability, static_cast<std::uint64_t>(begin))) {
      throw injected_fault("pstlb: injected functor exception at chunk " +
                           std::to_string(static_cast<long long>(begin)));
    }
    return;
  }
  if (g_spec.mode == kind::stall) {
    // Cooperative stall: holds the chunk busy for stall_ms, but yields to a
    // region cancellation (watchdog or a peer's exception) immediately.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(g_spec.stall_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      sched::cancel_source* region = sched::current_cancel();
      if (region != nullptr && region->cancelled()) { return; }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void on_alloc(std::size_t bytes) {
  load_from_env();
  if (g_spec.mode != kind::oom) { return; }
  const std::uint64_t site = g_alloc_site.fetch_add(1, std::memory_order_relaxed);
  if (draw(g_spec.probability, site)) {
    (void)bytes;
    throw std::bad_alloc();
  }
}

void on_spawn() {
  load_from_env();
  if (g_spec.mode != kind::spawnfail) { return; }
  if (g_spec.spawn_fails > 0) {
    const std::uint64_t site =
        g_spawn_site.fetch_add(1, std::memory_order_relaxed);
    if (site >= g_spec.spawn_fails) { return; }  // the storm has cleared
  }
  throw std::system_error(EAGAIN, std::generic_category(),
                          "pstlb: injected thread-spawn failure");
}

}  // namespace pstlb::fault
