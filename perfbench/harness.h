// Shared measurement harness of the repo benchmark (perfbench/): clocks,
// CPU-time and peak-RSS probes, an in-memory span tracer, the metric table
// every workload fills, and the correctness checks (selection shape and an
// objective recompute that shares no code with the library's kernels).
//
// Everything here measures the library from OUTSIDE: it times calls into
// public entry points and reads public counters. Nothing in src/ is
// instrumented.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/coverage_kernel.h"
#include "core/objective.h"
#include "graph/ground_set.h"

namespace perfbench {

using subsel::graph::NodeId;

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// How long the timed phase measures (batch workloads repeat their job
  /// until this much time has passed, and at least kMinJobs times).
  double seconds = 10.0;
  bool trace = false;
  /// The `subsel` CLI, started as the serving daemon (`subsel serve`).
  std::string daemon_exe;
  /// Scratch directory for generated files (graph files, sockets).
  std::string work_dir;
};

/// Worker threads of every ThreadPool the benchmark creates: the host's
/// cores, capped at 4 so the figures stay comparable across hosts.
std::size_t pool_threads();

/// Monotonic wall clock in seconds.
double wall_now();
/// User + system CPU seconds consumed by this process so far.
double cpu_now();

/// Resets the kernel's peak-RSS mark of `pid` (0 = this process) to its
/// current RSS, so a later peak_rss_mb() covers only what runs in between.
/// Throws std::runtime_error when the kernel refuses.
void reset_peak_rss(pid_t pid);
/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double peak_rss_mb(pid_t pid);

/// `values` as a comma-separated list (for the report).
std::string join(const std::vector<double>& values);

/// Median of `values` (0 for an empty sample).
double median(std::vector<double> values);

/// The highest percentile of a fixed ladder (50 .. 99.9) that still has at
/// least `min_beyond` samples above it, with its value.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
TailPercentile highest_supported_percentile(std::vector<double> samples,
                                            std::size_t min_beyond = 10);

/// Named metrics of one run, in insertion order. `exact` marks a value that
/// must repeat bit-for-bit for the same seed (objectives, counts fixed by
/// the algorithm); everything else is measured and varies run to run.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           bool exact = false);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  void write(subsel::JsonWriter& json) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool exact = false;
  };
  std::vector<Entry> entries_;
};

/// Correctness verdicts of one run. Every failed check is kept with its
/// message; the run exits non-zero if any failed.
class Checks {
 public:
  void require(bool ok, const std::string& what);
  bool ok() const noexcept { return failures_.empty(); }
  std::size_t count() const noexcept { return count_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// In-memory span recorder for traced runs. Spans carry a name, wall start
/// and end, the index of their parent span (-1 for a root), and the job or
/// request id they belong to; counter snapshots attach name/value pairs to
/// a span. Nothing is written until the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string job;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// Opens a span under `parent` (-1 = root) and returns its index.
  int open(const std::string& name, const std::string& job, int parent);
  void close(int span);
  /// Records a span whose interval was measured elsewhere.
  int add(const std::string& name, const std::string& job, int parent,
          double start, double end);
  void counter(int span, const std::string& name, double value);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  double duration(int span) const;
  /// Duration of `span` minus the union of its children's intervals.
  double self_time(int span) const;
  /// Sum of self times of the spans under `root` (inclusive) whose name
  /// starts with `layer` + ".".
  double layer_self_time(const std::string& layer, int root) const;
  /// Sum of the durations of the direct children of `span`.
  double children_total(int span) const;

  /// Measured cost of recording one span (open + close), in seconds.
  static double calibrated_span_cost();

  void write(subsel::JsonWriter& json) const;

 private:
  std::vector<Span> spans_;
};

/// Checks that `ids` is a valid size-k selection over n points: exactly k
/// ids, strictly ascending (hence distinct), all in [0, n).
void check_selection(Checks& checks, std::span<const NodeId> ids, std::size_t n,
                     std::size_t k, const std::string& label);

/// f(S) of the paper's pairwise objective, recomputed serially from the
/// ground set's utilities and neighborhoods (each undirected pair counted
/// once). Independent of the library's objective kernels.
double pairwise_value(const subsel::graph::GroundSet& ground_set,
                      std::span<const NodeId> ids,
                      const subsel::core::ObjectiveParams& params);

/// f(S) of saturated coverage, recomputed by pushing each selected point's
/// similarity mass onto its neighbors. Independent of the library kernel.
double coverage_value(const subsel::graph::GroundSet& ground_set,
                      std::span<const NodeId> ids,
                      const subsel::core::SaturatedCoverageParams& params);

/// alpha * (sum of the k largest utilities): the pairwise f(S) reaches it
/// only without any penalty, so it bounds f over every k-subset. The
/// objective_ratio metric is f(S) over this bound, which, unlike f(S), hardly
/// moves with the seed.
double pairwise_upper_bound(std::vector<double> utilities, std::size_t k,
                            const subsel::core::ObjectiveParams& params);

/// saturation * (sum of the point weights): saturated coverage with every
/// point saturated, the bound behind coverage_ratio.
double coverage_upper_bound(const std::vector<double>& utilities,
                            const subsel::core::SaturatedCoverageParams& params);

/// The seed of job `job` of a run: each timed job draws fresh inputs, so a
/// run's median spans several inputs instead of one.
std::uint64_t job_seed(std::uint64_t seed, int job);

/// |a - b| within a relative tolerance of 1e-9 (summation order differs
/// between the recompute and the library).
bool same_value(double a, double b);

/// Geometry and host fields every result carries.
class Manifest {
 public:
  void add(const std::string& key, const std::string& text);
  void add(const std::string& key, double number);
  void write(subsel::JsonWriter& json) const;

 private:
  struct Field {
    std::string key;
    std::string text;
    double number = 0.0;
    bool is_number = false;
  };
  std::vector<Field> fields_;
};

}  // namespace perfbench
