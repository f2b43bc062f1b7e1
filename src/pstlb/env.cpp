#include "pstlb/env.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

extern "C" char** environ;

namespace pstlb::env {

unsigned unsigned_or(const char* name, unsigned fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) { return fallback; }
  const char* const end = raw + std::strlen(raw);
  unsigned value = 0;
  const auto [ptr, ec] = std::from_chars(raw, end, value);
  return ec == std::errc() && ptr == end && value > 0 ? value : fallback;
}

bool truthy(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' && std::strcmp(raw, "0") != 0;
}

std::string string_or(const char* name, std::string_view fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? std::string(fallback) : std::string(raw);
}

const std::vector<std::string_view>& known_vars() {
  static const std::vector<std::string_view> vars = {
      "PSTLB_BENCH_JSON",         // canonical bench-result export: file or dir
      "PSTLB_COUNTERS",           // counter provider: sim | native | perf
      "PSTLB_FAULT",              // fault injection: throw:<p>|oom:<p>|stall:<ms>|spawnfail[:<n>]
      "PSTLB_FAULT_SEED",         // fault injection: deterministic draw seed
      "PSTLB_FIG5_NATIVE_LOG2",   // fig5 native sweep: max log2 size
      "PSTLB_FIG5_NATIVE_REPS",   // fig5 native sweep: repetitions
      "PSTLB_FIG7_NATIVE_LOG2",   // fig7 native sort sweep: max log2 size
      "PSTLB_FIG7_NATIVE_REPS",   // fig7 native sort sweep: repetitions
      "PSTLB_SIMD",               // leaf ISA cap: auto|scalar|sse2|avx2|avx512
      "PSTLB_SIMD_VERBOSE",       // print the selected-ISA report line
      "PSTLB_STATS",              // per-call latency stats registry on/off
      "PSTLB_STATS_FILE",         // stats registry JSON export path
      "PSTLB_TRACE",              // scheduler tracing on/off
      "PSTLB_TRACE_FILE",         // Chrome-trace/Perfetto JSON export path
      "PSTLB_WATCHDOG_MS",        // hang watchdog stall interval (0 = off)
  };
  return vars;
}

namespace {

/// Bounded Levenshtein distance, case-insensitive; bails out at > limit.
std::size_t edit_distance(std::string_view a, std::string_view b, std::size_t limit) {
  if (a.size() > b.size()) { std::swap(a, b); }
  if (b.size() - a.size() > limit) { return limit + 1; }
  auto lower = [](char c) {
    return static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  };
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) { row[i] = i; }
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t diag = row[0];
    row[0] = j;
    std::size_t best = row[0];
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t sub = diag + (lower(a[i - 1]) == lower(b[j - 1]) ? 0 : 1);
      diag = row[i];
      row[i] = std::min({row[i - 1] + 1, row[i] + 1, sub});
      best = std::min(best, row[i]);
    }
    if (best > limit) { return limit + 1; }
  }
  return row[a.size()];
}

std::string closest_known(std::string_view name) {
  std::string_view best;
  std::size_t best_distance = 3;  // suggest only within edit distance 2
  for (const std::string_view known : known_vars()) {
    const std::size_t d = edit_distance(name, known, best_distance);
    if (d < best_distance) {
      best_distance = d;
      best = known;
    }
  }
  return std::string(best);
}

}  // namespace

std::vector<unknown_var> check_names(const std::vector<std::string>& names) {
  std::vector<unknown_var> out;
  for (const std::string& name : names) {
    if (name.rfind("PSTLB_", 0) != 0) { continue; }
    const auto& known = known_vars();
    if (std::find(known.begin(), known.end(), name) != known.end()) { continue; }
    out.push_back(unknown_var{name, closest_known(name)});
  }
  return out;
}

std::vector<unknown_var> unknown_vars() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  return check_names(names);
}

void warn_unknown_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const unknown_var& v : unknown_vars()) {
      if (v.suggestion.empty()) {
        std::fprintf(stderr, "pstlb: unknown environment variable %s (see README \"Environment variables\")\n",
                     v.name.c_str());
      } else {
        std::fprintf(stderr, "pstlb: unknown environment variable %s — did you mean %s?\n",
                     v.name.c_str(), v.suggestion.c_str());
      }
    }
  });
}

}  // namespace pstlb::env
