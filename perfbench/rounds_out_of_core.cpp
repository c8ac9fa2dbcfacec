// Workload rounds_out_of_core: `distributed-greedy` without bounding, 8
// machines x 8 rounds, k = 10 %, over a seeded 1M-node graph of average
// degree ~16 (the paper's symmetrized 10-NN shape) served from a file
// through graph::DiskGroundSet with a block cache holding ~15 % of the
// graph. One job runs a pairwise selection, then a saturated-coverage one,
// on the same set. Only partition materialize/solve and the block cache do
// work: there is no graph build and no bounding.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/distributed_greedy.h"
#include "graph/disk_ground_set.h"
#include "workloads.h"

namespace perfbench {

using namespace subsel;

namespace {

constexpr std::size_t kNodes = 1'000'000;
/// Node i links to j in [i - kWindow, i + kWindow] with probability
/// kLinkShare, decided by a hash of the unordered pair, so the lists are
/// symmetric by construction: average degree 2 * 32 * 0.25 = 16.
constexpr std::int64_t kWindow = 32;
constexpr double kLinkShare = 0.25;
constexpr double kFraction = 0.10;
constexpr double kCacheShare = 0.15;
constexpr std::size_t kBlockEdges = 4096;
constexpr const char* kObjectives[] = {"pairwise", "saturated-coverage"};

double unit_hash(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(hash_combine(hash_combine(seed, a), b) >> 11) * 0x1.0p-53;
}

struct Inputs {
  std::string graph_path;
  std::vector<double> utilities;
  std::size_t edges = 0;
  std::size_t cache_blocks = 0;
  std::size_t graph_blocks = 0;
};

/// Generates the graph and utilities for `seed` and writes the graph file.
Inputs make_inputs(const RunOptions& options, ThreadPool& pool) {
  Inputs inputs;
  inputs.graph_path = options.work_dir + "/rounds-" + std::to_string(options.seed) +
                      ".graph";
  const std::uint64_t seed = hash_combine(options.seed, 0x6f6f63ULL);
  std::vector<graph::NeighborList> lists(kNodes);
  pool.parallel_for(kNodes, [&](std::size_t node) {
    const auto i = static_cast<std::int64_t>(node);
    std::vector<graph::Edge>& edges = lists[node].edges;
    edges.reserve(24);
    const std::int64_t first = std::max<std::int64_t>(0, i - kWindow);
    const std::int64_t last = std::min<std::int64_t>(kNodes - 1, i + kWindow);
    for (std::int64_t j = first; j <= last; ++j) {
      if (j == i) continue;
      const auto lo = static_cast<std::uint64_t>(std::min(i, j));
      const auto hi = static_cast<std::uint64_t>(std::max(i, j));
      if (unit_hash(seed, lo, hi) >= kLinkShare) continue;
      const double weight = 0.3 + 0.65 * unit_hash(seed + 1, lo, hi);
      edges.push_back({j, static_cast<float>(weight)});
    }
  });
  inputs.utilities.resize(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    inputs.utilities[i] = unit_hash(seed + 2, i, 0);
  }
  const graph::SimilarityGraph graph = graph::SimilarityGraph::from_lists(lists);
  lists = {};
  graph.save(inputs.graph_path);
  inputs.edges = graph.num_edges();
  inputs.graph_blocks = (inputs.edges + kBlockEdges - 1) / kBlockEdges;
  inputs.cache_blocks = static_cast<std::size_t>(
      kCacheShare * static_cast<double>(inputs.graph_blocks));
  return inputs;
}

graph::DiskGroundSetConfig cache_config(const Inputs& inputs) {
  graph::DiskGroundSetConfig config;
  config.block_edges = kBlockEdges;
  config.max_cached_blocks = inputs.cache_blocks;
  return config;
}

api::SelectionRequest selection_request(const graph::GroundSet& ground_set,
                                        const std::string& objective,
                                        std::uint64_t seed) {
  api::SelectionRequest request;
  request.ground_set = &ground_set;
  request.fraction = kFraction;
  request.solver = "distributed-greedy";
  request.objective_name = objective;
  request.bounding.enabled = false;
  request.seed = seed;
  return request;
}

struct JobOutput {
  std::unique_ptr<graph::DiskGroundSet> disk;
  Selection selections[2];
  double wall = 0.0;
  double peak_rss = 0.0;
};

/// One untraced job: open the file, both selections through the registry.
JobOutput run_job(const Inputs& inputs, std::uint64_t seed, ThreadPool& pool) {
  JobOutput out;
  reset_peak_rss(0);
  const double start = wall_now();
  out.disk = std::make_unique<graph::DiskGroundSet>(inputs.graph_path, inputs.utilities,
                                                    cache_config(inputs));
  api::SolverContext context(&pool);
  for (int i = 0; i < 2; ++i) {
    api::SelectionReport report =
        api::select(selection_request(*out.disk, kObjectives[i], seed), context);
    out.selections[i] = {std::move(report.selected), report.objective};
  }
  out.wall = wall_now() - start;
  out.peak_rss = peak_rss_mb(0);
  return out;
}

/// Sums the per-layer figures of the traced selections over both objectives.
struct RoundFigures {
  double rounds_s[2] = {0.0, 0.0};
  double round1_s = 0.0;
  double round_rest_s = 0.0;
  double cpu_s = 0.0;
  double recompute_s = 0.0;
  std::size_t peak_partition_bytes = 0;
  std::size_t peak_state_bytes = 0;
};

/// Both selections over `ground_set` driven through core::distributed_greedy
/// with the registry's configuration, a span per round from the progress
/// callback, and the kernel recompute.
void run_traced_selections(const graph::GroundSet& ground_set, std::uint64_t seed,
                           ThreadPool& pool, Tracer& tracer, int parent,
                           const std::string& job, Selection (&out)[2],
                           RoundFigures& figures) {
  const auto* disk = dynamic_cast<const graph::DiskGroundSet*>(&ground_set);
  api::SolverContext context(&pool);
  for (int i = 0; i < 2; ++i) {
    const api::SelectionRequest request =
        selection_request(ground_set, kObjectives[i], seed);
    const std::unique_ptr<core::ObjectiveKernel> kernel =
        api::ObjectiveRegistry::instance().make(request);
    core::DistributedGreedyConfig config =
        registry_greedy_config(request, *kernel, pool, context);

    const int rounds = tracer.open(std::string("core.rounds.") + kObjectives[i], job,
                                   parent);
    double round_start = tracer.spans()[static_cast<std::size_t>(rounds)].start;
    config.progress = [&](const ProgressEvent& event) {
      if (event.stage != "round") return;
      const double now = wall_now();
      const int span = tracer.add("core.round", job, rounds, round_start, now);
      tracer.counter(span, "round", static_cast<double>(event.step));
      tracer.counter(span, "survivors", static_cast<double>(event.items));
      if (event.step == 1) {
        figures.round1_s += now - round_start;
      } else {
        figures.round_rest_s += now - round_start;
      }
      round_start = now;
    };
    const graph::DiskCacheStats before = disk != nullptr ? disk->stats()
                                                         : graph::DiskCacheStats{};
    const double cpu = cpu_now();
    core::DistributedGreedyResult result =
        core::distributed_greedy(ground_set, request.resolved_k(), config);
    if (disk != nullptr) disk->drain_prefetch();
    tracer.close(rounds);
    figures.cpu_s += cpu_now() - cpu;
    figures.rounds_s[i] += tracer.duration(rounds);
    // Work after the last round event (final rounding, solver-side f(S)).
    figures.round_rest_s += tracer.spans()[static_cast<std::size_t>(rounds)].end -
                            round_start;
    if (disk != nullptr) {
      // Counters are summed without a global lock and may dip transiently,
      // so deltas saturate at 0 (as api::SolverRegistry::run does).
      const graph::DiskCacheStats after = disk->stats();
      const auto delta = [](std::uint64_t now, std::uint64_t then) {
        return static_cast<double>(now >= then ? now - then : 0);
      };
      tracer.counter(rounds, "disk.hits", delta(after.hits, before.hits));
      tracer.counter(rounds, "disk.misses", delta(after.misses, before.misses));
    }
    for (const core::RoundStats& stats : result.rounds) {
      figures.peak_partition_bytes =
          std::max(figures.peak_partition_bytes, stats.peak_partition_bytes);
      figures.peak_state_bytes = std::max(figures.peak_state_bytes, stats.peak_state_bytes);
    }

    const int recompute = tracer.open(std::string("api.objective_recompute.") +
                                          kObjectives[i],
                                      job, parent);
    out[i].selected = std::move(result.selected);
    std::sort(out[i].selected.begin(), out[i].selected.end());
    out[i].objective = kernel->evaluate(std::span<const NodeId>(out[i].selected), &pool);
    tracer.close(recompute);
    figures.recompute_s += tracer.duration(recompute);
  }
}

}  // namespace

WorkloadResult run_rounds_out_of_core(const RunOptions& options) {
  WorkloadResult result;
  ThreadPool pool(pool_threads());

  std::vector<double> setups;
  Inputs inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = wall_now();
    inputs = make_inputs(options, pool);
    setups.push_back(wall_now() - start);
  }

  // Write the graph file back now, so the write-back does not compete with
  // the timed phase.
  ::sync();

  const std::size_t k = static_cast<std::size_t>(kFraction * kNodes);
  std::vector<double> walls, rss;
  JobOutput first;
  const double phase = wall_now();
  for (int job = 0; job < kMinJobs || wall_now() - phase < options.seconds; ++job) {
    JobOutput out = run_job(inputs, options.seed, pool);
    result.attempted += 2;
    walls.push_back(out.wall);
    rss.push_back(out.peak_rss);
    if (job == 0) {
      first = std::move(out);
    } else {
      for (int i = 0; i < 2; ++i) {
        result.checks.require(
            out.selections[i].selected == first.selections[i].selected &&
                out.selections[i].objective == first.selections[i].objective,
            std::string(kObjectives[i]) + ": repeated job selected differently");
      }
    }
    if (options.trace) break;  // the traced run times one job of each kind
  }

  const Selection& pairwise = first.selections[0];
  const Selection& coverage = first.selections[1];
  check_selection(result.checks, pairwise.selected, kNodes, k, "pairwise");
  check_selection(result.checks, coverage.selected, kNodes, k, "saturated-coverage");
  result.checks.require(
      same_value(pairwise.objective,
                 pairwise_value(*first.disk, pairwise.selected, core::ObjectiveParams{})),
      "pairwise: reported objective differs from the recompute");
  result.checks.require(
      same_value(coverage.objective,
                 coverage_value(*first.disk, coverage.selected,
                                core::SaturatedCoverageParams{})),
      "saturated-coverage: reported objective differs from the recompute");

  result.end_to_end.set("setup_s", median(setups), "s");
  result.end_to_end.set("job_s", median(walls), "s");
  result.end_to_end.set(
      "objective_ratio",
      pairwise.objective / pairwise_upper_bound(inputs.utilities, k, core::ObjectiveParams{}),
      "ratio", true);
  result.end_to_end.set(
      "coverage_ratio",
      coverage.objective /
          coverage_upper_bound(inputs.utilities, core::SaturatedCoverageParams{}),
      "ratio", true);
  result.end_to_end.set("peak_rss_mb", median(rss), "MB");
  result.end_to_end.set("objective", pairwise.objective, "score", true);
  result.end_to_end.set("coverage_objective", coverage.objective, "score", true);

  if (options.trace) {
    Tracer& tracer = result.tracer;
    Metrics& layers = result.per_layer;
    const std::string job = "job-" + std::to_string(options.seed);

    // Out-of-core, traced.
    const double start = wall_now();
    const int root = tracer.open("job.rounds_out_of_core", job, -1);
    const int open = tracer.open("graph.disk.open", job, root);
    graph::DiskGroundSet disk(inputs.graph_path, inputs.utilities, cache_config(inputs));
    tracer.close(open);
    Selection on_disk[2];
    RoundFigures disk_figures;
    run_traced_selections(disk, options.seed, pool, tracer, root, job, on_disk,
                          disk_figures);
    tracer.close(root);
    const double traced_wall = wall_now() - start;
    const graph::DiskCacheStats stats = disk.stats();
    result.attempted += 2;

    // The same selections over an in-memory copy of the same graph.
    const int load = tracer.open("graph.load_in_memory", job + "-memory", -1);
    const graph::SimilarityGraph graph = graph::SimilarityGraph::load(inputs.graph_path);
    tracer.close(load);
    const graph::InMemoryGroundSet memory(graph, inputs.utilities);
    const int memory_root = tracer.open("job.rounds_in_memory", job + "-memory", -1);
    Selection in_memory[2];
    RoundFigures memory_figures;
    run_traced_selections(memory, options.seed, pool, tracer, memory_root,
                          job + "-memory", in_memory, memory_figures);
    tracer.close(memory_root);
    result.attempted += 2;

    for (int i = 0; i < 2; ++i) {
      const std::string name = kObjectives[i];
      result.checks.require(on_disk[i].selected == first.selections[i].selected &&
                                same_value(on_disk[i].objective,
                                           first.selections[i].objective),
                            name + ": traced selection differs from the untraced one");
      result.checks.require(in_memory[i].selected == on_disk[i].selected &&
                                same_value(in_memory[i].objective, on_disk[i].objective),
                            name + ": in-memory copy selected differently from disk");
    }
    const double top_level = tracer.children_total(root);
    result.checks.require(std::abs(top_level - traced_wall) <= 0.01 * traced_wall + 0.005,
                          "layer spans do not reconcile with the traced job's wall time");

    const double threads = static_cast<double>(pool_threads());
    const double rounds_total = disk_figures.rounds_s[0] + disk_figures.rounds_s[1];
    layers.set("core.rounds_s.pairwise", disk_figures.rounds_s[0], "s");
    layers.set("core.rounds_s.coverage", disk_figures.rounds_s[1], "s");
    layers.set("core.round1_s", disk_figures.round1_s, "s");
    layers.set("core.round_rest_s", disk_figures.round_rest_s, "s");
    layers.set("core.rounds.cpu_util", disk_figures.cpu_s / (rounds_total * threads),
               "ratio");
    layers.set("core.rounds.peak_partition_mb",
               static_cast<double>(disk_figures.peak_partition_bytes) / (1 << 20), "MB",
               true);
    layers.set("core.rounds.peak_state_mb",
               static_cast<double>(disk_figures.peak_state_bytes) / (1 << 20), "MB", true);
    layers.set("api.objective_recompute_s", disk_figures.recompute_s, "s");
    const double reads = static_cast<double>(stats.hits + stats.misses);
    layers.set("graph.disk.hits", static_cast<double>(stats.hits), "count");
    layers.set("graph.disk.misses", static_cast<double>(stats.misses), "count");
    layers.set("graph.disk.hit_ratio", reads > 0 ? stats.hits / reads : 0.0, "ratio");
    layers.set("graph.disk.read_mb",
               static_cast<double>(stats.misses) * kBlockEdges * sizeof(graph::Edge) /
                   (1 << 20),
               "MB");
    layers.set("graph.disk.prefetch_useful_ratio",
               stats.prefetch_issued > 0 ? static_cast<double>(stats.prefetch_loaded) /
                                               static_cast<double>(stats.prefetch_issued)
                                         : 0.0,
               "ratio");
    layers.set("graph.disk.resident_high_water_blocks",
               static_cast<double>(stats.resident_blocks_high_water), "count");
    layers.set("graph.disk.cost_s",
               rounds_total - memory_figures.rounds_s[0] - memory_figures.rounds_s[1], "s");
    layers.set("harness.trace_overhead_frac",
               static_cast<double>(tracer.spans().size()) *
                   Tracer::calibrated_span_cost() / traced_wall,
               "ratio");
    result.manifest.add("traced_job_s", traced_wall);
    result.manifest.add("untraced_job_s", first.wall);
    result.manifest.add("span_coverage_frac", top_level / traced_wall);
    result.manifest.add("in_memory_rounds_s",
                        memory_figures.rounds_s[0] + memory_figures.rounds_s[1]);
  }

  first.disk.reset();
  std::filesystem::remove(inputs.graph_path);  // 250 MB per seed

  result.manifest.add("n", static_cast<double>(kNodes));
  result.manifest.add("k", static_cast<double>(k));
  result.manifest.add("average_degree",
                      static_cast<double>(inputs.edges) / static_cast<double>(kNodes));
  result.manifest.add("graph_file_mb",
                      static_cast<double>(inputs.edges * sizeof(graph::Edge)) / (1 << 20));
  result.manifest.add("block_edges", static_cast<double>(kBlockEdges));
  result.manifest.add("graph_blocks", static_cast<double>(inputs.graph_blocks));
  result.manifest.add("cache_blocks", static_cast<double>(inputs.cache_blocks));
  result.manifest.add("cache_ratio", static_cast<double>(inputs.cache_blocks) /
                                         static_cast<double>(inputs.graph_blocks));
  result.manifest.add("machines_x_rounds", "8x8");
  result.manifest.add("jobs", static_cast<double>(walls.size()));
  result.manifest.add("job_walls_s", join(walls));
  return result;
}

}  // namespace perfbench
