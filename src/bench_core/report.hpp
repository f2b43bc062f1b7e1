// Paper-style report tables.
//
// Every bench binary ends by printing the rows/series of its figure or table
// in the same layout as the paper (e.g. "Mach A |Mach B |Mach C" triples for
// Tables 5/6), so outputs can be compared to the publication side by side.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "counters/counters.hpp"

namespace pstlb::bench {

class table {
 public:
  explicit table(std::string title);

  void set_header(std::vector<std::string> columns);
  /// Rows are also registered with the crash-flush buffer below, so a bench
  /// that dies mid-run still surfaces the measurements it completed.
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Crash flush: add_row() pre-renders every row into a static buffer; an
/// atexit hook and fatal-signal handlers (SIGSEGV, SIGABRT, ...) write the
/// rows that were never print()ed to stderr with one async-signal-safe
/// ::write before the process dies. A completed print() discards the rows
/// committed so far (they reached the stream normally). Best-effort
/// diagnostics only — the buffer is bounded and overflow drops rows.
namespace crash_flush {
/// Number of bytes currently pending (test hook).
std::size_t pending_bytes() noexcept;
/// Writes pending rows to `fd` (async-signal-safe). Returns bytes written.
std::size_t flush(int fd) noexcept;
}  // namespace crash_flush

/// Append-only JSONL results journal for the crash-isolated suite runner.
/// Every append() is a single unbuffered O_APPEND ::write of one complete
/// line, so a crashing or killed process never tears the journal — whatever
/// lines made it in are valid and a rerun can resume from them.
class journal {
 public:
  journal() = default;
  ~journal();
  journal(const journal&) = delete;
  journal& operator=(const journal&) = delete;

  /// Opens (creating if needed) `path` for appending. Returns false and
  /// stays closed on failure.
  bool open(const std::string& path);
  bool is_open() const noexcept { return fd_ >= 0; }
  /// Writes `line` plus a trailing newline; no-op when closed.
  void append(std::string_view line);

  /// All complete lines of `path`; empty when the file does not exist.
  static std::vector<std::string> read_lines(const std::string& path);

 private:
  int fd_ = -1;
};

/// Fixed-precision formatting helpers.
std::string fmt(double value, int precision = 2);
/// "a | b | c" triple in the paper's Mach A|Mach B|Mach C notation;
/// negative entries render as "N/A".
std::string triple(double a, double b, double c, int precision = 1);
/// Engineering formatting for counters: 1.72T, 107G, 26G...
std::string eng(double value, int precision = 3);
/// Human size for element counts: 2^k when exact, plain otherwise.
std::string pow2_label(double n);

/// Optional scheduler-telemetry columns (src/trace): header labels and the
/// matching cells for one counter_set. Benches append these to their tables
/// when a run was traced (PSTLB_TRACE=1), keeping trace-off output
/// byte-identical to the paper layout.
std::vector<std::string> sched_headers();
std::vector<std::string> sched_cells(const counters::counter_set& s);

/// Provenance labeling: every counter column says which provider produced
/// it, so `sim` model output is never mistaken for hardware data.
/// tagged("Instructions", "sim") -> "Instructions [sim]".
std::string tagged(std::string_view label, std::string_view provider);
/// The active provider's name ("sim" | "native" | "perf"), for table titles.
std::string_view provider_label();

/// Measured hardware-counter columns (counters/perf_provider): header labels
/// tagged with the active provider and the matching cells (instructions,
/// IPC, cache-miss %, thread groups). Empty cells when `s` carries no
/// hardware data (passive provider or fallback).
std::vector<std::string> hw_headers();
std::vector<std::string> hw_cells(const counters::counter_set& s);

}  // namespace pstlb::bench
