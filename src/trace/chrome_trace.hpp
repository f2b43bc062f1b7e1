// Chrome-trace / Perfetto JSON exporter for the scheduler event rings.
//
// Emits the trace_event format (the JSON flavour ui.perfetto.dev and
// chrome://tracing both load): one process, one track (tid) per worker
// thread, "X" complete events for spans and "i" instant events for
// steals/spawns/splits. Timestamps are microseconds since the process
// trace epoch with nanosecond fractions.
#pragma once

#include <iosfwd>
#include <string>

namespace pstlb::trace {

/// Serializes a snapshot of every registered ring. Safe to call while
/// workers are still tracing (mid-overwrite events are skipped).
void write_chrome_trace(std::ostream& os);

/// Writes the trace to `path`. Returns false when the file cannot be opened.
bool write_chrome_trace_file(const std::string& path);

/// $PSTLB_TRACE_FILE, read once; empty when unset.
const std::string& env_file();

/// Writes to env_file() when set (the at-exit hook). Returns true when a
/// file was written.
bool export_to_env_file();

}  // namespace pstlb::trace
