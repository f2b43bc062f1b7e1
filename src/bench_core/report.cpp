#include "bench_core/report.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>

namespace pstlb::bench {

namespace {

// Crash-flush buffer: rows live here, pre-rendered, between add_row() and
// print(). The signal handler only ever does relaxed loads of the two
// watermarks and one ::write of a contiguous range — no allocation, no
// locks, no iostreams.
constexpr std::size_t crash_buf_cap = std::size_t{1} << 16;
char g_crash_buf[crash_buf_cap];
std::atomic<std::size_t> g_crash_committed{0};  // bytes with complete rows
std::atomic<std::size_t> g_crash_printed{0};    // bytes already print()ed
std::mutex g_crash_mutex;                       // serializes writers only

extern "C" void crash_flush_signal(int sig) {
  crash_flush::flush(STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void crash_flush_atexit() { crash_flush::flush(STDERR_FILENO); }

void install_crash_flush() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::atexit(crash_flush_atexit);
    for (const int sig :
         {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, SIGTERM}) {
      // Leave deliberately-installed handlers alone; only claim defaults.
      const auto prev = std::signal(sig, crash_flush_signal);
      if (prev != SIG_DFL) { std::signal(sig, prev); }
    }
  });
}

void crash_register_row(const std::string& title,
                        const std::vector<std::string>& cells) {
  install_crash_flush();
  std::string line = title;
  line += ": ";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c != 0) { line += ", "; }
    line += cells[c];
  }
  line += '\n';
  std::lock_guard lock(g_crash_mutex);
  const std::size_t at = g_crash_committed.load(std::memory_order_relaxed);
  if (at + line.size() > crash_buf_cap) { return; }  // full: drop, not grow
  std::memcpy(g_crash_buf + at, line.data(), line.size());
  g_crash_committed.store(at + line.size(), std::memory_order_release);
}

void crash_mark_printed() {
  std::lock_guard lock(g_crash_mutex);
  // Everything committed so far reached a stream; only rows added after
  // this point are still at risk. (Rows of another table still being built
  // are dropped from the dump too — acceptable for best-effort output.)
  g_crash_printed.store(g_crash_committed.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

}  // namespace

namespace crash_flush {

std::size_t pending_bytes() noexcept {
  const std::size_t printed = g_crash_printed.load(std::memory_order_relaxed);
  const std::size_t committed = g_crash_committed.load(std::memory_order_acquire);
  return committed > printed ? committed - printed : 0;
}

std::size_t flush(int fd) noexcept {
  const std::size_t printed = g_crash_printed.load(std::memory_order_relaxed);
  const std::size_t committed = g_crash_committed.load(std::memory_order_acquire);
  if (committed <= printed) { return 0; }
  static const char header[] = "\npstlb: unflushed report rows at abnormal exit:\n";
  (void)::write(fd, header, sizeof(header) - 1);
  std::size_t written = 0;
  while (written < committed - printed) {
    const ::ssize_t n = ::write(fd, g_crash_buf + printed + written,
                                committed - printed - written);
    if (n <= 0) { break; }
    written += static_cast<std::size_t>(n);
  }
  g_crash_printed.store(printed + written, std::memory_order_relaxed);
  return written;
}

}  // namespace crash_flush

journal::~journal() {
  if (fd_ >= 0) { ::close(fd_); }
}

bool journal::open(const std::string& path) {
  if (fd_ >= 0) { ::close(fd_); }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  return fd_ >= 0;
}

void journal::append(std::string_view line) {
  if (fd_ < 0) { return; }
  std::string buf(line);
  buf += '\n';
  std::size_t written = 0;
  while (written < buf.size()) {
    const ::ssize_t n = ::write(fd_, buf.data() + written, buf.size() - written);
    if (n <= 0) { return; }
    written += static_cast<std::size_t>(n);
  }
}

std::vector<std::string> journal::read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) { lines.push_back(line); }
  }
  return lines;
}

table::table(std::string title) : title_(std::move(title)) {}

void table::set_header(std::vector<std::string> columns) { header_ = std::move(columns); }

void table::add_row(std::vector<std::string> cells) {
  crash_register_row(title_, cells);
  rows_.push_back(std::move(cells));
}

void table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) { widths[c] = header_[c].size(); }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  os << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << "\n";
  };
  print_row(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) { print_row(row); }
  os.flush();
  crash_mark_printed();
}

std::string fmt(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

std::string triple(double a, double b, double c, int precision) {
  auto one = [&](double v) { return v < 0 ? std::string("N/A") : fmt(v, precision); };
  return one(a) + " | " + one(b) + " | " + one(c);
}

std::string eng(double value, int precision) {
  static constexpr const char* suffixes[] = {"", "K", "M", "G", "T", "P"};
  int exp = 0;
  double v = value;
  while (std::abs(v) >= 1000.0 && exp < 5) {
    v /= 1000.0;
    ++exp;
  }
  std::ostringstream ss;
  ss << std::setprecision(precision) << v << suffixes[exp];
  return ss.str();
}

std::vector<std::string> sched_headers() {
  return {"steals ok", "steals fail", "spawned", "chunks"};
}

std::vector<std::string> sched_cells(const counters::counter_set& s) {
  return {eng(s.sched_steals_ok), eng(s.sched_steals_failed),
          eng(s.sched_tasks_spawned), eng(s.sched_chunks)};
}

std::string tagged(std::string_view label, std::string_view provider) {
  return std::string(label) + " [" + std::string(provider) + "]";
}

std::string_view provider_label() {
  return counters::provider_name(counters::active_kind());
}

std::vector<std::string> hw_headers() {
  const std::string_view p = provider_label();
  return {tagged("hw instr", p), tagged("IPC", p), tagged("cache miss %", p),
          "hw threads"};
}

std::vector<std::string> hw_cells(const counters::counter_set& s) {
  if (!s.has_hw()) { return {"-", "-", "-", "-"}; }
  return {eng(s.hw_instructions), fmt(s.ipc(), 2), fmt(100.0 * s.cache_miss_rate(), 1),
          fmt(s.hw_threads, 0)};
}

std::string pow2_label(double n) {
  const double log = std::log2(n);
  const double rounded = std::round(log);
  if (n > 0 && std::abs(log - rounded) < 1e-9) {
    return "2^" + std::to_string(static_cast<int>(rounded));
  }
  std::ostringstream ss;
  ss << n;
  return ss.str();
}

}  // namespace pstlb::bench
