#include "trace/chrome_trace.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "pstlb/env.hpp"
#include "trace/trace.hpp"

namespace pstlb::trace {

namespace {

/// trace_event timestamps are microseconds; keep nanosecond precision as a
/// 3-digit fraction without going through floating point.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + ns / 100 % 10)
     << static_cast<char>('0' + ns / 10 % 10) << static_cast<char>('0' + ns % 10);
}

/// JSON string escaping for event/track names. Anything outside printable
/// ASCII — control bytes AND bytes >= 0x7F — is emitted as \u00XX: labels
/// come from thread names we did not write, and a
/// raw non-UTF-8 byte makes Perfetto reject the whole file, whereas \u00XX
/// of the Latin-1 interpretation is always valid JSON.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (u < 0x20 || u >= 0x7F) {
          os << "\\u00" << "0123456789abcdef"[(u >> 4) & 0xF]
             << "0123456789abcdef"[u & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_event(std::ostream& os, const event& e, std::uint32_t tid) {
  os << "{\"name\":";
  write_json_string(os, kind_name(e.kind));
  os << ",\"cat\":";
  write_json_string(os, pool_name(e.pool));
  os << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":";
  write_us(os, e.begin_ns);
  const bool span = e.kind == event_kind::chunk || e.kind == event_kind::idle ||
                    e.kind == event_kind::region ||
                    e.kind == event_kind::lookback ||
                    e.kind == event_kind::phase;
  if (span) {
    os << ",\"ph\":\"X\",\"dur\":";
    write_us(os, e.end_ns > e.begin_ns ? e.end_ns - e.begin_ns : 0);
  } else {
    os << ",\"ph\":\"i\",\"s\":\"t\"";
  }
  os << ",\"args\":{\"";
  if (e.kind == event_kind::steal_ok) {
    // Victim tid plus the steal_remote_bit tag. Native steals are uniform
    // and always write false; the arg keeps the format imported traces use.
    os << "victim\":" << (e.arg & 0xFFFFFFFFull) << ",\"remote\":"
       << (((e.arg & steal_remote_bit) != 0) ? "true" : "false");
    if (e.link != 0) { os << ",\"link\":" << e.link; }
    os << "}}";
    return;
  }
  switch (e.kind) {
    case event_kind::chunk: os << "elems"; break;
    case event_kind::phase: os << "phase"; break;
    default: os << "arg"; break;
  }
  os << "\":" << e.arg;
  // Causal-link word: round-trips through --mode=analyze so the span graph
  // can rebuild spawn/steal/lookback edges from an exported file.
  if (e.link != 0) { os << ",\"link\":" << e.link; }
  os << "}}";
}

/// JSON number formatting for counter values: finite, fixed notation (the
/// trace_event parser dislikes exponents of extreme magnitude), NaN/inf
/// clamped to 0.
void write_counter_value(std::ostream& os, double v) {
  if (!std::isfinite(v)) { v = 0; }
  std::ostringstream ss;
  ss.precision(3);
  ss << std::fixed << v;
  os << ss.str();
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (event_ring* ring : registry::instance().rings()) {
    const std::uint32_t tid = ring->id();
    std::string label = ring->label();
    if (label.empty()) { label = "thread-" + std::to_string(tid); }
    if (!first) { os << ','; }
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":";
    write_json_string(os, label);
    os << "}}";
    for (const event& e : ring->snapshot()) {
      os << ',';
      write_event(os, e, tid);
    }
  }
  // Counter tracks ("C" events): same pid as the span tracks so Perfetto
  // shows the hardware-counter time series directly above the workers.
  for (const auto& [name, samples] : counter_series()) {
    for (const counter_sample& s : samples) {
      if (!first) { os << ','; }
      first = false;
      os << "{\"name\":";
      write_json_string(os, name);
      os << ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
      write_us(os, s.ts_ns);
      os << ",\"args\":{\"value\":";
      write_counter_value(os, s.value);
      os << "}}";
    }
  }
  os << "]}\n";
  os.flush();
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) { return false; }
  write_chrome_trace(os);
  return os.good();
}

const std::string& env_file() {
  static const std::string path = env::string_or("PSTLB_TRACE_FILE", "");
  return path;
}

bool export_to_env_file() {
  return !env_file().empty() && write_chrome_trace_file(env_file());
}

}  // namespace pstlb::trace
