// Central registry for the library's PSTLB_* environment knobs.
//
// Every runtime toggle (tracing, counters provider, fault injection, ...)
// is read through these accessors so that one table — mirrored in
// README.md "Environment variables" — stays the single source of truth.
// The subsystem that owns a knob reads it once, at first use (a
// function-local static, call_once or a static-init object), or on an
// export/exit path; no parallel call reads the environment.
// A typo like PSTLB_TRCE silently doing nothing is the classic observability
// foot-gun; warn_unknown_once() scans the process environment for
// PSTLB_-prefixed names missing from the table and prints one warning per
// offender, with a nearest-match suggestion when the name is close to a
// known knob.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pstlb::env {

/// Positive-integer knob: any decimal value from 1 to UINT_MAX; `fallback`
/// when unset, empty, zero, negative, too large or not a number. (The thread
/// counts PSTL_NUM_THREADS/OMP_NUM_THREADS also fall back above 2^20; see
/// sched/thread_pool.hpp.)
unsigned unsigned_or(const char* name, unsigned fallback);

/// Boolean knob: set, non-empty, and not "0".
bool truthy(const char* name);

/// String knob; `fallback` when unset or empty.
std::string string_or(const char* name, std::string_view fallback);

/// Every documented PSTLB_* variable, alphabetical. KnownVars.MatchesReadmeTable
/// asserts this list matches the README table.
const std::vector<std::string_view>& known_vars();

struct unknown_var {
  std::string name;        // the offending PSTLB_* variable
  std::string suggestion;  // closest known var, empty when nothing is close
};

/// Pure core of the unknown-variable scan, exposed for tests: filters
/// `names` down to PSTLB_-prefixed entries missing from known_vars() and
/// attaches a nearest-known suggestion (edit distance <= 2).
std::vector<unknown_var> check_names(const std::vector<std::string>& names);

/// Scans the real process environment with check_names().
std::vector<unknown_var> unknown_vars();

/// Prints one stderr warning per unknown PSTLB_* variable, at most once per
/// process. Called from the trace and counters initialization paths.
void warn_unknown_once();

}  // namespace pstlb::env
