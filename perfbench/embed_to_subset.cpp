// Workload embed_to_subset: the paper's deployed batch job, in memory. From
// seeded embeddings to a 10 % subset: margin utilities, the float32 IVF
// 10-NN graph, symmetrization, the `pipeline` solver (uniform bounding
// p = 0.3, then 8 machines x 8 rounds) and the exact objective recompute.
// Graph build and bounding do almost all the work; disk and serve do none.
#include <memory>
#include <span>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "common/thread_pool.h"
#include "core/bounding.h"
#include "core/distributed_greedy.h"
#include "data/synthetic.h"
#include "data/utility_model.h"
#include "graph/knn.h"
#include "workloads.h"

namespace perfbench {

using namespace subsel;

namespace {

constexpr std::size_t kPoints = 50'000;
constexpr double kFraction = 0.10;

graph::KnnConfig knn_config(std::uint64_t seed) {
  graph::KnnConfig config;
  config.num_neighbors = 10;
  config.num_probes = 8;
  config.seed = seed + 1;
  return config;
}

api::SelectionRequest pipeline_request(const graph::GroundSet& ground_set,
                                       std::uint64_t seed) {
  api::SelectionRequest request;
  request.ground_set = &ground_set;
  request.fraction = kFraction;
  request.solver = "pipeline";
  request.seed = seed;
  return request;
}

struct JobOutput {
  std::vector<NodeId> selected;
  double objective = 0.0;
  double wall = 0.0;
  double peak_rss = 0.0;
  graph::SimilarityGraph graph;
  std::vector<double> utilities;
};

/// One untraced job: every layer through its convenience entry point and
/// the registry, exactly as a user of the library would run it.
JobOutput run_job(const Embeddings& embeddings, std::uint64_t seed, ThreadPool& pool) {
  JobOutput out;
  reset_peak_rss(0);
  const double start = wall_now();
  out.utilities = margin_utilities(embeddings, seed);
  out.graph = build_graph(embeddings, seed, &pool);
  const graph::InMemoryGroundSet ground_set(out.graph, out.utilities);
  api::SolverContext context(&pool);
  api::SelectionReport report = api::select(pipeline_request(ground_set, seed), context);
  out.wall = wall_now() - start;
  out.peak_rss = peak_rss_mb(0);
  out.selected = std::move(report.selected);
  out.objective = report.objective;
  return out;
}

double cpu_util(double cpu_seconds, double wall_seconds) {
  return wall_seconds > 0.0
             ? cpu_seconds / (wall_seconds * static_cast<double>(pool_threads()))
             : 0.0;
}

/// The same job driven layer by layer (IvfIndex, knn_graph, symmetrize,
/// then traced_pipeline), one span per layer call. Must select exactly what
/// run_job selects.
JobOutput run_traced_job(const Embeddings& embeddings, std::uint64_t seed,
                         ThreadPool& pool, WorkloadResult& result) {
  Tracer& tracer = result.tracer;
  Metrics& layers = result.per_layer;
  JobOutput out;
  const std::string job = "job-" + std::to_string(seed);
  const double start = wall_now();
  const int root = tracer.open("job.embed_to_subset", job, -1);

  const int utilities = tracer.open("data.utilities", job, root);
  out.utilities = margin_utilities(embeddings, seed);
  tracer.close(utilities);
  const graph::KnnConfig knn = knn_config(seed);
  double cpu = cpu_now();
  const int train = tracer.open("graph.ivf_train", job, root);
  const graph::IvfIndex index(embeddings.points, knn, &pool);
  tracer.close(train);
  layers.set("graph.ivf_train_cpu_util",
             cpu_util(cpu_now() - cpu, tracer.duration(train)), "ratio");
  cpu = cpu_now();
  const int search = tracer.open("graph.knn_search", job, root);
  const std::vector<graph::NeighborList> lists = index.knn_graph(&pool);
  tracer.close(search);
  layers.set("graph.knn_search_cpu_util",
             cpu_util(cpu_now() - cpu, tracer.duration(search)), "ratio");
  const int symmetrize = tracer.open("graph.symmetrize", job, root);
  out.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  tracer.close(symmetrize);
  tracer.counter(symmetrize, "edges", static_cast<double>(out.graph.num_edges()));

  const graph::InMemoryGroundSet ground_set(out.graph, out.utilities);
  Selection selection =
      traced_pipeline(pipeline_request(ground_set, seed), pool, tracer, root, job, layers);
  out.selected = std::move(selection.selected);
  out.objective = selection.objective;
  tracer.close(root);
  out.wall = wall_now() - start;

  layers.set("data.utilities_s", tracer.duration(utilities), "s");
  layers.set("graph.ivf_train_s", tracer.duration(train), "s");
  layers.set("graph.knn_search_s", tracer.duration(search), "s");
  layers.set("graph.symmetrize_s", tracer.duration(symmetrize), "s");
  layers.set("graph.edges", static_cast<double>(out.graph.num_edges()), "count", true);
  return out;
}

}  // namespace

core::DistributedGreedyConfig registry_greedy_config(const api::SelectionRequest& request,
                                                    const core::ObjectiveKernel& kernel,
                                                    ThreadPool& pool,
                                                    api::SolverContext& context) {
  core::DistributedGreedyConfig config;
  config.objective = request.objective;
  config.kernel = &kernel;
  config.num_machines = request.distributed.num_machines;
  config.num_rounds = request.distributed.num_rounds;
  config.adaptive_partitioning = request.distributed.adaptive_partitioning;
  config.partition_solver = request.distributed.partition_solver;
  config.stochastic_epsilon = request.distributed.stochastic_epsilon;
  config.prefetch_depth = request.distributed.prefetch_depth;
  config.seed = request.seed;
  config.pool = &pool;
  config.arena_pool = &context.arenas();
  return config;
}

Selection traced_pipeline(const api::SelectionRequest& request, ThreadPool& pool,
                          Tracer& tracer, int parent, const std::string& job,
                          Metrics& layers) {
  const graph::GroundSet& ground_set = *request.ground_set;
  const std::size_t k = request.resolved_k();
  const std::unique_ptr<core::ObjectiveKernel> kernel =
      api::ObjectiveRegistry::instance().make(request);
  api::SolverContext context(&pool);

  // The registry's pipeline configuration, spelled out (api/solver_registry.cpp).
  core::BoundingConfig bounding;
  bounding.objective = *kernel->pairwise_params();
  bounding.sampling = request.bounding.sampling;
  bounding.sample_fraction = request.bounding.sample_fraction;
  bounding.prefetch_depth = request.bounding.prefetch_depth;
  bounding.seed = request.seed;
  bounding.pool = &pool;
  double cpu = cpu_now();
  const int bound_span = tracer.open("core.bounding", job, parent);
  core::BoundingResult bound = core::bound(ground_set, k, bounding);
  tracer.close(bound_span);
  const double bound_s = tracer.duration(bound_span);
  const std::size_t passes = bound.grow_rounds + bound.shrink_rounds;
  tracer.counter(bound_span, "passes", static_cast<double>(passes));
  tracer.counter(bound_span, "included", static_cast<double>(bound.included));
  tracer.counter(bound_span, "excluded", static_cast<double>(bound.excluded));
  layers.set("core.bounding.cpu_util", cpu_util(cpu_now() - cpu, bound_s), "ratio");
  layers.set("core.bounding_s", bound_s, "s");
  layers.set("core.bounding.passes", static_cast<double>(passes), "count", true);
  layers.set("core.bounding.pass_ms", passes > 0 ? 1e3 * bound_s / passes : 0.0, "ms");
  layers.set("core.bounding.decided_frac",
             static_cast<double>(bound.included + bound.excluded) /
                 static_cast<double>(ground_set.num_points()),
             "ratio", true);

  Selection out;
  if (bound.complete()) {
    out.selected = bound.state.selected_ids();
  } else {
    const core::DistributedGreedyConfig greedy =
        registry_greedy_config(request, *kernel, pool, context);
    cpu = cpu_now();
    const int rounds = tracer.open("core.rounds.pairwise", job, parent);
    core::DistributedGreedyResult greedy_result =
        core::distributed_greedy(ground_set, k, greedy, &bound.state);
    tracer.close(rounds);
    layers.set("core.rounds_s.pairwise", tracer.duration(rounds), "s");
    layers.set("core.rounds.cpu_util", cpu_util(cpu_now() - cpu, tracer.duration(rounds)),
               "ratio");
    out.selected = std::move(greedy_result.selected);
  }
  std::sort(out.selected.begin(), out.selected.end());
  const int recompute = tracer.open("api.objective_recompute", job, parent);
  out.objective = kernel->evaluate(std::span<const NodeId>(out.selected), &pool);
  tracer.close(recompute);
  layers.set("api.objective_recompute_s", tracer.duration(recompute), "s");
  return out;
}

Embeddings make_embeddings(std::size_t num_points, std::uint64_t seed) {
  data::ClusteredEmbeddingConfig config;
  config.num_points = num_points;
  config.dim = 64;
  config.num_classes = 100;
  config.seed = seed;
  data::ClusteredEmbeddings generated = data::generate_clustered_embeddings(config);
  return {std::move(generated.points), std::move(generated.centers),
          std::move(generated.labels)};
}

std::vector<double> margin_utilities(const Embeddings& embeddings, std::uint64_t seed) {
  data::CoarseClassifierConfig config;
  config.seed = seed + 2;
  const data::CoarseClassifier classifier(embeddings.centers, config);
  return data::compute_margin_utilities(embeddings.points, classifier);
}

graph::SimilarityGraph build_graph(const Embeddings& embeddings, std::uint64_t seed,
                                   ThreadPool* pool) {
  return graph::build_similarity_graph(embeddings.points, knn_config(seed),
                                       /*exact_threshold=*/4096, pool);
}

WorkloadResult run_embed_to_subset(const RunOptions& options) {
  WorkloadResult result;
  ThreadPool pool(pool_threads());

  std::vector<double> setups;
  Embeddings embeddings;
  // Generating 50k embeddings takes ~0.1 s, where scheduler noise is large;
  // more repetitions keep the median steady.
  for (int rep = 0; rep < 3 * kSetupReps; ++rep) {
    const double start = wall_now();
    embeddings = make_embeddings(kPoints, job_seed(options.seed, 0));
    setups.push_back(wall_now() - start);
  }

  const std::size_t k = static_cast<std::size_t>(kFraction * kPoints);
  const core::ObjectiveParams params;
  const core::SaturatedCoverageParams coverage_params;
  std::vector<double> walls, rss, ratios, coverage_ratios;
  JobOutput first;
  double first_coverage = 0.0;
  const double phase = wall_now();
  for (int job = 0; job < kMinJobs || wall_now() - phase < options.seconds; ++job) {
    const std::uint64_t seed = job_seed(options.seed, job);
    if (job > 0) embeddings = make_embeddings(kPoints, seed);
    JobOutput out = run_job(embeddings, seed, pool);
    ++result.attempted;
    walls.push_back(out.wall);
    rss.push_back(out.peak_rss);

    const graph::InMemoryGroundSet ground_set(out.graph, out.utilities);
    const std::string label = "pipeline (job seed " + std::to_string(seed) + ")";
    check_selection(result.checks, out.selected, kPoints, k, label);
    result.checks.require(
        same_value(out.objective, pairwise_value(ground_set, out.selected, params)),
        label + ": reported objective differs from the recompute");
    api::SelectionRequest coverage_request = pipeline_request(ground_set, seed);
    coverage_request.objective_name = "saturated-coverage";
    const double coverage = api::ObjectiveRegistry::instance()
                                .make(coverage_request)
                                ->evaluate(std::span<const NodeId>(out.selected), &pool);
    result.checks.require(
        same_value(coverage, coverage_value(ground_set, out.selected, coverage_params)),
        label + ": saturated-coverage value differs from the recompute");
    ratios.push_back(out.objective / pairwise_upper_bound(out.utilities, k, params));
    coverage_ratios.push_back(coverage / coverage_upper_bound(out.utilities, coverage_params));
    if (job == 0) {
      first = std::move(out);
      first_coverage = coverage;
    }
    if (options.trace) break;  // the traced run times one job of each kind
  }

  result.end_to_end.set("setup_s", median(setups), "s");
  result.end_to_end.set("job_s", median(walls), "s");
  result.end_to_end.set("objective_ratio", median(ratios), "ratio");
  result.end_to_end.set("coverage_ratio", median(coverage_ratios), "ratio");
  result.end_to_end.set("peak_rss_mb", median(rss), "MB");
  result.end_to_end.set("objective", first.objective, "score", true);
  result.end_to_end.set("coverage_objective", first_coverage, "score", true);

  if (options.trace) {
    JobOutput traced = run_traced_job(embeddings, job_seed(options.seed, 0), pool, result);
    ++result.attempted;
    result.checks.require(traced.selected == first.selected,
                          "traced pipeline selected differently from the untraced one");
    result.checks.require(same_value(traced.objective, first.objective),
                          "traced pipeline objective differs from the untraced one");
    const double top_level = result.tracer.children_total(0);
    result.checks.require(std::abs(top_level - traced.wall) <= 0.01 * traced.wall + 0.005,
                          "layer spans do not reconcile with the traced job's wall time");
    result.per_layer.set("harness.trace_overhead_frac",
                         static_cast<double>(result.tracer.spans().size()) *
                             Tracer::calibrated_span_cost() / traced.wall,
                         "ratio");
    result.manifest.add("traced_job_s", traced.wall);
    result.manifest.add("untraced_job_s", first.wall);
    result.manifest.add("span_coverage_frac", top_level / traced.wall);
  }

  result.manifest.add("n", static_cast<double>(kPoints));
  result.manifest.add("dim", 64.0);
  result.manifest.add("classes", 100.0);
  result.manifest.add("k", static_cast<double>(k));
  result.manifest.add("average_degree", first.graph.average_degree());
  result.manifest.add("graph_bytes", static_cast<double>(first.graph.byte_size()));
  result.manifest.add("bounding", "uniform p=0.3");
  result.manifest.add("machines_x_rounds", "8x8");
  result.manifest.add("jobs", static_cast<double>(walls.size()));
  result.manifest.add("job_walls_s", join(walls));
  result.manifest.add("job_seed_0", static_cast<double>(job_seed(options.seed, 0)));
  return result;
}

}  // namespace perfbench
