#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"

namespace perfbench {

std::size_t pool_threads() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::string proc_file(pid_t pid, const char* name) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) + "/" +
         name;
}

}  // namespace

void reset_peak_rss(pid_t pid) {
  // Hand heap pages freed during set-up back to the kernel first, so they
  // do not count towards the timed phase's peak.
  if (pid == 0) malloc_trim(0);
  std::ofstream out(proc_file(pid, "clear_refs"));
  out << "5";
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot reset the peak-RSS mark via " +
                             proc_file(pid, "clear_refs"));
  }
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_file(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + proc_file(pid, "status"));
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double value : values) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.4f", out.empty() ? "" : ",", value);
    out += buffer;
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

TailPercentile highest_supported_percentile(std::vector<double> samples,
                                            std::size_t min_beyond) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9};
  TailPercentile tail;
  tail.samples = samples.size();
  for (const double p : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const std::size_t beyond = samples.size() - std::min(rank, samples.size());
    if (beyond < min_beyond) break;
    tail.percentile = p;
    tail.beyond = beyond;
    tail.value = subsel::percentile(samples, p);
  }
  return tail;
}

void Metrics::set(const std::string& name, double value, const std::string& unit,
                  bool exact) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry = {name, value, unit, exact};
      return;
    }
  }
  entries_.push_back({name, value, unit, exact});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Metrics::get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  throw std::logic_error("metric not set: " + name);
}

void Metrics::write(subsel::JsonWriter& json) const {
  json.begin_object();
  for (const Entry& entry : entries_) {
    json.key(entry.name).begin_object();
    json.key("value").value(entry.value);
    json.key("unit").value(entry.unit);
    json.key("exact").value(entry.exact);
    json.end_object();
  }
  json.end_object();
}

void Checks::require(bool ok, const std::string& what) {
  ++count_;
  if (!ok) failures_.push_back(what);
}

int Tracer::open(const std::string& name, const std::string& job, int parent) {
  spans_.push_back({name, job, parent, wall_now(), 0.0, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) { spans_[static_cast<std::size_t>(span)].end = wall_now(); }

int Tracer::add(const std::string& name, const std::string& job, int parent,
                double start, double end) {
  spans_.push_back({name, job, parent, start, end, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::counter(int span, const std::string& name, double value) {
  spans_[static_cast<std::size_t>(span)].counters.emplace_back(name, value);
}

double Tracer::duration(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return s.end - s.start;
}

double Tracer::self_time(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans_) {
    if (&child != &s && child.parent == span) {
      children.emplace_back(std::max(child.start, s.start), std::min(child.end, s.end));
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = s.start;
  for (const auto& [begin, end] : children) {
    const double from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (s.end - s.start) - covered;
}

double Tracer::layer_self_time(const std::string& layer, int root) const {
  const auto under_root = [&](int span) {
    for (; span >= 0; span = spans_[static_cast<std::size_t>(span)].parent) {
      if (span == root) return true;
    }
    return false;
  };
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.rfind(layer + ".", 0) == 0 && under_root(static_cast<int>(i))) {
      total += self_time(static_cast<int>(i));
    }
  }
  return total;
}

double Tracer::children_total(int span) const {
  double total = 0.0;
  for (const Span& child : spans_) {
    if (child.parent == span) total += child.end - child.start;
  }
  return total;
}

double Tracer::calibrated_span_cost() {
  constexpr int kSpans = 20'000;
  Tracer probe;
  const double start = wall_now();
  for (int i = 0; i < kSpans; ++i) {
    probe.close(probe.open("calibration.span", "calibration", -1));
  }
  return (wall_now() - start) / kSpans;
}

void Tracer::write(subsel::JsonWriter& json) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object();
    json.key("id").value(i);
    json.key("name").value(s.name);
    json.key("job").value(s.job);
    json.key("parent").value(s.parent);
    json.key("start_s").value(s.start - origin);
    json.key("end_s").value(s.end - origin);
    json.key("self_s").value(self_time(static_cast<int>(i)));
    if (!s.counters.empty()) {
      json.key("counters").begin_object();
      for (const auto& [name, value] : s.counters) json.key(name).value(value);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
}

void check_selection(Checks& checks, std::span<const NodeId> ids, std::size_t n,
                     std::size_t k, const std::string& label) {
  checks.require(ids.size() == k, label + ": selected " + std::to_string(ids.size()) +
                                      " ids, expected k=" + std::to_string(k));
  bool ascending = true;
  bool in_range = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || static_cast<std::size_t>(ids[i]) >= n) in_range = false;
    if (i > 0 && ids[i] <= ids[i - 1]) ascending = false;
  }
  checks.require(ascending, label + ": ids not strictly ascending (duplicates?)");
  checks.require(in_range, label + ": id outside [0, n)");
}

double pairwise_value(const subsel::graph::GroundSet& ground_set,
                      std::span<const NodeId> ids,
                      const subsel::core::ObjectiveParams& params) {
  std::vector<std::uint8_t> member(ground_set.num_points(), 0);
  for (const NodeId v : ids) member[static_cast<std::size_t>(v)] = 1;
  double utility = 0.0;
  double penalty = 0.0;
  std::vector<subsel::graph::Edge> edges;
  for (const NodeId v : ids) {
    utility += ground_set.utility(v);
    ground_set.neighbors(v, edges);
    for (const subsel::graph::Edge& e : edges) {
      if (e.neighbor > v && member[static_cast<std::size_t>(e.neighbor)] != 0) {
        penalty += static_cast<double>(e.weight);
      }
    }
  }
  return params.alpha * utility - params.beta * penalty;
}

double coverage_value(const subsel::graph::GroundSet& ground_set,
                      std::span<const NodeId> ids,
                      const subsel::core::SaturatedCoverageParams& params) {
  std::vector<double> mass(ground_set.num_points(), 0.0);
  std::vector<subsel::graph::Edge> edges;
  for (const NodeId v : ids) {
    mass[static_cast<std::size_t>(v)] += params.self_similarity;
    ground_set.neighbors(v, edges);
    for (const subsel::graph::Edge& e : edges) {
      mass[static_cast<std::size_t>(e.neighbor)] += static_cast<double>(e.weight);
    }
  }
  double total = 0.0;
  for (std::size_t v = 0; v < mass.size(); ++v) {
    if (mass[v] == 0.0) continue;
    const double weight =
        params.utility_weighted ? ground_set.utility(static_cast<NodeId>(v)) : 1.0;
    total += weight * std::min(params.saturation, mass[v]);
  }
  return total;
}

double pairwise_upper_bound(std::vector<double> utilities, std::size_t k,
                            const subsel::core::ObjectiveParams& params) {
  k = std::min(k, utilities.size());
  std::nth_element(utilities.begin(), utilities.begin() + static_cast<std::ptrdiff_t>(k),
                   utilities.end(), std::greater<>());
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) total += utilities[i];
  return params.alpha * total;
}

double coverage_upper_bound(const std::vector<double>& utilities,
                            const subsel::core::SaturatedCoverageParams& params) {
  double total = 0.0;
  for (const double u : utilities) total += params.utility_weighted ? u : 1.0;
  return params.saturation * total;
}

std::uint64_t job_seed(std::uint64_t seed, int job) {
  return job == 0 ? seed : subsel::hash_combine(seed, static_cast<std::uint64_t>(job)) % 1'000'000'007ULL;
}

bool same_value(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

void Manifest::add(const std::string& key, const std::string& text) {
  fields_.push_back({key, text, 0.0, false});
}

void Manifest::add(const std::string& key, double number) {
  fields_.push_back({key, "", number, true});
}

void Manifest::write(subsel::JsonWriter& json) const {
  json.begin_object();
  for (const Field& field : fields_) {
    json.key(field.key);
    if (field.is_number) {
      json.value(field.number);
    } else {
      json.value(field.text);
    }
  }
  json.end_object();
}

}  // namespace perfbench
