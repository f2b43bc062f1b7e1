#include "trace/analysis/trace_reader.hpp"

#include "pstlb/json_min.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pstlb::trace::analysis {

namespace {

// The generic JSON machinery lives in pstlb/json_min (shared with the
// benchmark result pipeline); this file only keeps the mapping back to
// trace::event records.
using json_value = json_min::value;

// --- mapping back to trace::event ------------------------------------------

bool parse_kind(std::string_view name, event_kind& out) {
  for (int k = 0; k <= static_cast<int>(event_kind::phase); ++k) {
    const auto kind = static_cast<event_kind>(k);
    if (name == kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

bool parse_pool(std::string_view name, pool_id& out) {
  for (int p = 0; p <= static_cast<int>(pool_id::sort); ++p) {
    const auto pool = static_cast<pool_id>(p);
    if (name == pool_name(pool)) {
      out = pool;
      return true;
    }
  }
  return false;
}

std::uint64_t us_to_ns(double us) {
  if (!(us >= 0)) { return 0; }
  return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

// number_or comes from pstlb/json_min via ADL on json_value.

/// Maps one traceEvents element into `out`; false = unrecognized shape.
bool consume_element(const json_value& el, parsed_trace& out) {
  if (el.t != json_value::type::object) { return false; }
  const json_value* ph = el.find("ph");
  const json_value* name = el.find("name");
  if (ph == nullptr || ph->t != json_value::type::string || name == nullptr ||
      name->t != json_value::type::string) {
    return false;
  }
  const json_value* args = el.find("args");
  const std::uint32_t tid =
      static_cast<std::uint32_t>(number_or(el.find("tid"), 0));

  if (ph->str == "M") {
    if (name->str != "thread_name" || args == nullptr) { return false; }
    const json_value* label = args->find("name");
    if (label == nullptr || label->t != json_value::type::string) { return false; }
    out.thread_names[tid] = label->str;
    return true;
  }
  if (ph->str == "C") {
    if (args == nullptr) { return false; }
    const json_value* value = args->find("value");
    if (value == nullptr || value->t != json_value::type::number) { return false; }
    counter_sample s;
    s.ts_ns = us_to_ns(number_or(el.find("ts"), 0));
    s.value = value->num;
    out.counters[name->str].push_back(s);
    return true;
  }
  if (ph->str != "X" && ph->str != "i") { return false; }

  event e;
  if (!parse_kind(name->str, e.kind)) { return false; }
  const json_value* cat = el.find("cat");
  if (cat == nullptr || cat->t != json_value::type::string ||
      !parse_pool(cat->str, e.pool)) {
    return false;
  }
  e.begin_ns = us_to_ns(number_or(el.find("ts"), 0));
  e.end_ns = ph->str == "X"
                 ? e.begin_ns + us_to_ns(number_or(el.find("dur"), 0))
                 : e.begin_ns;
  if (args != nullptr) {
    e.link = static_cast<std::uint64_t>(number_or(args->find("link"), 0));
    const json_value* arg = args->find("victim");
    if (arg == nullptr) { arg = args->find("elems"); }
    if (arg == nullptr) { arg = args->find("phase"); }
    if (arg == nullptr) { arg = args->find("arg"); }
    e.arg = static_cast<std::uint64_t>(number_or(arg, 0));
  }
  out.events.push_back(e);
  out.tids.push_back(tid);
  return true;
}

}  // namespace

parsed_trace parse_chrome_trace(std::string_view json) {
  const json_value doc = json_min::parse(json);
  const json_value* events = doc.find("traceEvents");
  if (events == nullptr || events->t != json_value::type::array) {
    throw std::runtime_error("trace JSON has no traceEvents array");
  }
  parsed_trace out;
  for (const json_value& el : *events->arr) {
    ++out.total_objects;
    if (!consume_element(el, out)) { ++out.unparsed; }
  }
  return out;
}

parsed_trace parse_chrome_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("cannot open trace file: " + path); }
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_chrome_trace(ss.str());
}

}  // namespace pstlb::trace::analysis
