#include "bench_core/result_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "bench_core/regress.hpp"
#include "counters/provider.hpp"
#include "numa/topology.hpp"
#include "pstlb/env.hpp"
#include "pstlb/json_min.hpp"

namespace pstlb::bench::results {

namespace {

std::mutex g_mutex;  // guards the store (benches record from gbench bodies)

/// %.17g round-trips every double exactly — committed baselines must compare
/// bit-identical to a regenerated run of the same binary.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Output-path-only knobs: they select where exports land, never what gets
/// measured, so they are not part of run comparability.
constexpr std::string_view kEnvelopeExcludedKnobs[] = {
    "PSTLB_BENCH_JSON",
    "PSTLB_STATS_FILE",
    "PSTLB_TRACE_FILE",
};

bool knob_excluded(std::string_view name) {
  for (const std::string_view k : kEnvelopeExcludedKnobs) {
    if (name == k) { return true; }
  }
  return false;
}

}  // namespace

std::string_view provenance_name(provenance p) noexcept {
  return p == provenance::sim ? "sim" : "native";
}

std::string sample_result::key() const {
  std::string k = suite;
  k += '|';
  k += kernel;
  k += '|';
  k += backend;
  k += '|';
  k += machine;
  k += '|';
  k += num(size);
  k += "|t";
  k += std::to_string(threads);
  k += "|k";
  k += num(k_it);
  return k;
}

void sample_result::finalize() {
  median = regress::median(samples);
  const regress::interval ci =
      regress::bootstrap_median_ci(samples, 0.95, 2000, 0x9e3779b97f4a7c15ull);
  ci_lo = ci.lo;
  ci_hi = ci.hi;
}

run_envelope current_envelope(std::string suite) {
  run_envelope e;
  e.suite = std::move(suite);

  const char* sha = std::getenv("GITHUB_SHA");
#ifdef PSTLB_GIT_SHA
  e.git_sha = sha != nullptr && *sha != '\0' ? sha : PSTLB_GIT_SHA;
#else
  e.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
#endif

  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0 && host[0] != '\0') {
    e.hostname = host;
  } else {
    e.hostname = "unknown";
  }

  const numa::topology_info& info = numa::topology();
  const numa::topology_tree& tree = numa::tree();
  std::ostringstream topo;
  topo << "nodes=" << tree.nodes << " llcs=" << tree.llcs
       << " cores=" << tree.cores << " cpus=" << tree.cpus
       << " page=" << info.page_size;
  e.topology = topo.str();

  e.provider = counters::provider_name(counters::active_kind());
  e.unix_time = static_cast<std::uint64_t>(std::time(nullptr));

  for (const std::string_view name : env::known_vars()) {
    if (knob_excluded(name)) { continue; }
    const std::string key(name);
    const char* raw = std::getenv(key.c_str());
    if (raw == nullptr || *raw == '\0') { continue; }
    e.knobs.emplace_back(key, raw);
  }
  // known_vars() is alphabetical already; keep the invariant explicit.
  std::sort(e.knobs.begin(), e.knobs.end());
  return e;
}

void append_envelope_json(const run_envelope& e, std::string& out) {
  auto q = [&out](std::string_view s) { json_min::append_quoted(out, s); };
  out += "{\"suite\":";
  q(e.suite);
  out += ",\"git_sha\":";
  q(e.git_sha);
  out += ",\"hostname\":";
  q(e.hostname);
  out += ",\"topology\":";
  q(e.topology);
  out += ",\"provider\":";
  q(e.provider);
  out += ",\"unix_time\":";
  out += std::to_string(e.unix_time);
  out += ",\"knobs\":{";
  for (std::size_t i = 0; i < e.knobs.size(); ++i) {
    if (i != 0) { out += ','; }
    q(e.knobs[i].first);
    out += ':';
    q(e.knobs[i].second);
  }
  out += "}}";
}

void write_json(const run_document& doc, std::ostream& os) {
  std::string out;
  auto q = [&out](std::string_view s) { json_min::append_quoted(out, s); };
  out += "{\"schema_version\":";
  out += std::to_string(doc.envelope.version);
  out += ",\n\"envelope\":";
  append_envelope_json(doc.envelope, out);
  out += ",\n\"results\":[";
  for (std::size_t i = 0; i < doc.results.size(); ++i) {
    const sample_result& r = doc.results[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"suite\":";
    q(r.suite);
    out += ",\"kernel\":";
    q(r.kernel);
    out += ",\"backend\":";
    q(r.backend);
    out += ",\"machine\":";
    q(r.machine);
    out += ",\"provenance\":";
    q(provenance_name(r.from));
    out += ",\"size\":";
    out += num(r.size);
    out += ",\"threads\":";
    out += std::to_string(r.threads);
    out += ",\"k_it\":";
    out += num(r.k_it);
    out += ",\"unit\":";
    q(r.unit);
    out += ",\"lower_is_better\":";
    out += r.lower_is_better ? "true" : "false";
    out += ",\"samples\":[";
    for (std::size_t s = 0; s < r.samples.size(); ++s) {
      if (s != 0) { out += ','; }
      out += num(r.samples[s]);
    }
    out += "],\"median\":";
    out += num(r.median);
    out += ",\"ci_lo\":";
    out += num(r.ci_lo);
    out += ",\"ci_hi\":";
    out += num(r.ci_hi);
    out += '}';
  }
  out += "\n]}\n";
  os << out;
  os.flush();
}

namespace {

std::string require_string(const json_min::value* v, const char* what) {
  if (v == nullptr || v->t != json_min::value::type::string) {
    throw std::runtime_error(std::string("bench result JSON: missing string field ") + what);
  }
  return v->str;
}

}  // namespace

run_document parse_json(std::string_view json) {
  const json_min::value doc = json_min::parse(json);
  const double version = json_min::number_or(doc.find("schema_version"), -1);
  if (version != schema_version) {
    throw std::runtime_error("bench result JSON: unsupported schema_version " +
                             std::to_string(version));
  }
  run_document out;
  out.envelope.version = schema_version;

  const json_min::value* env = doc.find("envelope");
  if (env == nullptr || env->t != json_min::value::type::object) {
    throw std::runtime_error("bench result JSON: missing envelope object");
  }
  out.envelope.suite = require_string(env->find("suite"), "envelope.suite");
  out.envelope.git_sha = json_min::string_or(env->find("git_sha"), "unknown");
  out.envelope.hostname = json_min::string_or(env->find("hostname"), "unknown");
  out.envelope.topology = json_min::string_or(env->find("topology"), "");
  out.envelope.provider = json_min::string_or(env->find("provider"), "");
  out.envelope.unix_time =
      static_cast<std::uint64_t>(json_min::number_or(env->find("unix_time"), 0));
  if (const json_min::value* knobs = env->find("knobs");
      knobs != nullptr && knobs->t == json_min::value::type::object) {
    for (const auto& [k, v] : *knobs->obj) {
      if (v.t == json_min::value::type::string) {
        out.envelope.knobs.emplace_back(k, v.str);
      }
    }
    std::sort(out.envelope.knobs.begin(), out.envelope.knobs.end());
  }

  const json_min::value* results = doc.find("results");
  if (results == nullptr || results->t != json_min::value::type::array) {
    throw std::runtime_error("bench result JSON: missing results array");
  }
  for (const json_min::value& el : *results->arr) {
    if (el.t != json_min::value::type::object) {
      throw std::runtime_error("bench result JSON: non-object results element");
    }
    sample_result r;
    r.suite = require_string(el.find("suite"), "result.suite");
    r.kernel = json_min::string_or(el.find("kernel"), "");
    r.backend = json_min::string_or(el.find("backend"), "");
    r.machine = json_min::string_or(el.find("machine"), "");
    r.from = json_min::string_or(el.find("provenance"), "sim") == "native"
                 ? provenance::native
                 : provenance::sim;
    r.size = json_min::number_or(el.find("size"), 0);
    r.threads =
        static_cast<unsigned>(json_min::number_or(el.find("threads"), 0));
    r.k_it = json_min::number_or(el.find("k_it"), 1);
    r.unit = json_min::string_or(el.find("unit"), "seconds");
    if (const json_min::value* lb = el.find("lower_is_better");
        lb != nullptr && lb->t == json_min::value::type::boolean) {
      r.lower_is_better = lb->b;
    }
    if (const json_min::value* samples = el.find("samples");
        samples != nullptr && samples->t == json_min::value::type::array) {
      for (const json_min::value& s : *samples->arr) {
        r.samples.push_back(json_min::number_or(&s, 0));
      }
    }
    r.median = json_min::number_or(el.find("median"), 0);
    r.ci_lo = json_min::number_or(el.find("ci_lo"), r.median);
    r.ci_hi = json_min::number_or(el.find("ci_hi"), r.median);
    out.results.push_back(std::move(r));
  }
  return out;
}

run_document load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open bench result file: " + path);
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_json(ss.str());
}

result_store& result_store::instance() {
  static result_store store;
  return store;
}

void result_store::set_suite(std::string suite) {
  std::lock_guard lock(g_mutex);
  if (!suite.empty()) { suite_ = std::move(suite); }
}

void result_store::set_suite_from_argv0(const char* argv0) {
  if (argv0 == nullptr || *argv0 == '\0') { return; }
  std::string_view name(argv0);
  const std::size_t slash = name.rfind('/');
  if (slash != std::string_view::npos) { name.remove_prefix(slash + 1); }
  set_suite(std::string(name));
}

bool result_store::export_enabled() {
  return !env::string_or("PSTLB_BENCH_JSON", "").empty();
}

void result_store::record(sample_result r) {
  if (r.samples.empty()) { return; }
  std::lock_guard lock(g_mutex);
  if (r.suite.empty()) { r.suite = suite_; }  // default to the run's suite
  const std::string key = r.key();
  for (sample_result& existing : results_) {
    if (existing.key() != key) { continue; }
    for (const double s : r.samples) {
      if (existing.samples.size() >= max_samples_per_result) { break; }
      existing.samples.push_back(s);
    }
    existing.finalize();
    return;
  }
  if (r.samples.size() > max_samples_per_result) {
    r.samples.resize(max_samples_per_result);
  }
  r.finalize();
  results_.push_back(std::move(r));
}

std::size_t result_store::size() const {
  std::lock_guard lock(g_mutex);
  return results_.size();
}

run_document result_store::document() const {
  std::lock_guard lock(g_mutex);
  run_document doc;
  doc.envelope = current_envelope(suite_);
  doc.results = results_;
  return doc;
}

bool result_store::flush_to_env() {
  const std::string target = env::string_or("PSTLB_BENCH_JSON", "");
  if (target.empty() || size() == 0) { return false; }
  const run_document doc = document();

  std::string path = target;
  std::error_code ec;
  const bool is_dir = target.back() == '/' ||
                      std::filesystem::is_directory(target, ec);
  if (is_dir) {
    std::string file = "BENCH_" + doc.envelope.suite + ".json";
    for (char& c : file) {
      if (c == '/' || c == ' ') { c = '_'; }
    }
    if (path.back() != '/') { path += '/'; }
    path += file;
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "pstlb: cannot write PSTLB_BENCH_JSON target %s\n",
                 path.c_str());
    return false;
  }
  write_json(doc, os);
  return os.good();
}

void result_store::reset() {
  std::lock_guard lock(g_mutex);
  results_.clear();
  suite_ = "bench";
}

}  // namespace pstlb::bench::results
