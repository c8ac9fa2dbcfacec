// Repo benchmark runner. One run = one workload, one seed:
//
//   subsel_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --daemon PATH_TO_SUBSEL_CLI --work-dir DIR
//
// Prints a detailed report (manifest, every metric with its unit and
// whether it must repeat exactly, checks, spans) as one JSON line, then the
// result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1; layers a workload does not exercise read 0). Exit status: 0
// when every check passed, 1 when a check failed (the result line still
// prints), 2 on a usage or internal error (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units of BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"job_s", "s"},         {"objective_ratio", "ratio"},
    {"coverage_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.utilities_s", "s"},
    {"graph.ivf_train_s", "s"},
    {"graph.ivf_train_cpu_util", "ratio"},
    {"graph.knn_search_s", "s"},
    {"graph.knn_search_cpu_util", "ratio"},
    {"graph.symmetrize_s", "s"},
    {"graph.edges", "count"},
    {"core.bounding_s", "s"},
    {"core.bounding.passes", "count"},
    {"core.bounding.pass_ms", "ms"},
    {"core.bounding.decided_frac", "ratio"},
    {"core.bounding.cpu_util", "ratio"},
    {"core.rounds_s.pairwise", "s"},
    {"core.rounds_s.coverage", "s"},
    {"core.round1_s", "s"},
    {"core.round_rest_s", "s"},
    {"core.rounds.cpu_util", "ratio"},
    {"core.rounds.peak_partition_mb", "MB"},
    {"core.rounds.peak_state_mb", "MB"},
    {"api.objective_recompute_s", "s"},
    {"graph.disk.hits", "count"},
    {"graph.disk.misses", "count"},
    {"graph.disk.hit_ratio", "ratio"},
    {"graph.disk.read_mb", "MB"},
    {"graph.disk.prefetch_useful_ratio", "ratio"},
    {"graph.disk.resident_high_water_blocks", "count"},
    {"graph.disk.cost_s", "s"},
    {"serve.parse_us", "us"},
    {"serve.report_ms.p50", "ms"},
    {"serve.transport_ms.p50", "ms"},
    {"serve.solve_ms.p50.pairwise", "ms"},
    {"serve.solve_ms.p50.facility-location", "ms"},
    {"serve.solve_ms.p50.saturated-coverage", "ms"},
    {"serve.solve_ms.p50.batch", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.queue_depth_high_water", "count"},
    {"serve.degraded", "count"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"serve.interactive_p50_ms", "ms"},
    {"serve.interactive_tail_ms", "ms"},
    {"serve.batch_p50_ms", "ms"},
    {"serve.miss_frac", "ratio"},
    {"harness.gen_lag_ms.p99", "ms"},
    {"harness.trace_overhead_frac", "ratio"},
    {"self_s.data", "s"},
    {"self_s.graph", "s"},
    {"self_s.core", "s"},
    {"self_s.api", "s"},
    {"self_s.serve", "s"},
};

constexpr const char* kLayers[] = {"data", "graph", "core", "api", "serve"};

int usage(const char* why) {
  std::fprintf(stderr,
               "subsel_perfbench: %s\nusage: subsel_perfbench --workload "
               "embed_to_subset|rounds_out_of_core|serve_mixed --seed N --seconds S "
               "--trace 0|1 --daemon SUBSEL_CLI --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string command;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command += ' ';
    command += argv[i];
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--daemon") {
        options.daemon_exe = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in --name value pairs");
  if (options.work_dir.empty() || options.daemon_exe.empty()) {
    return usage("--work-dir and --daemon are required");
  }
  // Inputs come only from --seed: never from a dataset cache another run
  // (or another commit) left behind.
  ::setenv("SUBSEL_CACHE_DIR", "", 1);
  std::filesystem::create_directories(options.work_dir);

  WorkloadResult result;
  try {
    if (options.workload == "embed_to_subset") {
      result = run_embed_to_subset(options);
    } else if (options.workload == "rounds_out_of_core") {
      result = run_rounds_out_of_core(options);
    } else if (options.workload == "serve_mixed") {
      result = run_serve_mixed(options);
    } else {
      return usage(("unknown workload \"" + options.workload + "\"").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subsel_perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 2;
  }

  if (options.trace) {
    // Self time per layer within the traced job (the first root span).
    for (const char* layer : kLayers) {
      const std::string name = std::string("self_s.") + layer;
      if (!result.per_layer.has(name)) {
        result.per_layer.set(name, result.tracer.layer_self_time(layer, 0), "s");
      }
    }
  }
  for (const MetricSpec& spec : kEndToEnd) {
    if (!result.end_to_end.has(spec.name)) {
      std::fprintf(stderr, "subsel_perfbench: workload did not measure %s\n", spec.name);
      return 2;
    }
  }

  Manifest manifest;
  manifest.add("command", command);
  manifest.add("workload", options.workload);
  manifest.add("seed", static_cast<double>(options.seed));
  manifest.add("seconds", options.seconds);
  manifest.add("trace", options.trace ? 1.0 : 0.0);
  manifest.add("pool_threads", static_cast<double>(pool_threads()));
  manifest.add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  manifest.add("kernel_backend", subsel::simd::active_backend_name());
  manifest.add("build_type", PERFBENCH_BUILD_TYPE);

  subsel::JsonWriter report;
  report.begin_object();
  report.key("schema").value("subsel.perfbench.v1");
  report.key("manifest");
  manifest.write(report);
  report.key("geometry");
  result.manifest.write(report);
  report.key("end_to_end");
  result.end_to_end.write(report);
  report.key("per_layer");
  result.per_layer.write(report);
  report.key("checks").begin_object();
  report.key("count").value(result.checks.count());
  report.key("failures").begin_array();
  for (const std::string& failure : result.checks.failures()) report.value(failure);
  report.end_array();
  report.end_object();
  if (options.trace) {
    report.key("spans");
    result.tracer.write(report);
  }
  report.end_object();
  const std::string report_path = options.work_dir + "/result-" + options.workload + "-" +
                                  std::to_string(options.seed) + "-trace" +
                                  (options.trace ? "1" : "0") + ".json";
  std::ofstream(report_path) << report.str() << "\n";
  std::printf("%s\n", report.str().c_str());

  subsel::JsonWriter line;
  line.begin_object();
  line.key("correct").value(result.checks.ok());
  line.key("attempted").value(result.attempted);
  line.key("failed").value(result.failed);
  line.key("metrics").begin_object();
  const auto emit = [&](const MetricSpec& spec, const Metrics& metrics) {
    line.key(spec.name).begin_object();
    line.key("value").value(metrics.has(spec.name) ? metrics.get(spec.name) : 0.0);
    line.key("unit").value(spec.unit);
    line.end_object();
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, result.per_layer);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.end_to_end);
  }
  line.end_object();
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);

  for (const std::string& failure : result.checks.failures()) {
    std::fprintf(stderr, "subsel_perfbench: check failed: %s\n", failure.c_str());
  }
  return result.checks.ok() ? 0 : 1;
}
