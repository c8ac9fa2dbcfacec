// The benchmark's workloads. Each runs its set-up, its timed phase and its
// correctness checks, and fills a WorkloadResult; main.cpp turns that into
// the report and the final result line.
#pragma once

#include <cstddef>
#include <string>

#include "api/selection_api.h"
#include "core/distributed_greedy.h"
#include "core/objective_kernel.h"
#include "graph/embedding_matrix.h"
#include "graph/similarity_graph.h"
#include "harness.h"

namespace perfbench {

struct WorkloadResult {
  /// End-to-end metrics (untraced runs) and per-layer metrics (traced runs).
  Metrics end_to_end;
  Metrics per_layer;
  Manifest manifest;
  Checks checks;
  Tracer tracer;
  /// Operations offered (selections or requests) and how many failed.
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

WorkloadResult run_embed_to_subset(const RunOptions& options);
WorkloadResult run_rounds_out_of_core(const RunOptions& options);
WorkloadResult run_serve_mixed(const RunOptions& options);

/// A selection and its exactly recomputed objective.
struct Selection {
  std::vector<NodeId> selected;
  double objective = 0.0;
};

/// The core::DistributedGreedyConfig the solver registry builds for
/// `request` (api/solver_registry.cpp), for driving the rounds directly.
subsel::core::DistributedGreedyConfig registry_greedy_config(
    const subsel::api::SelectionRequest& request, const subsel::core::ObjectiveKernel& kernel,
    subsel::ThreadPool& pool, subsel::api::SolverContext& context);

/// The registry's `pipeline` solve of `request`, driven layer by layer:
/// core::bound, then core::distributed_greedy on the bound state, then the
/// objective kernel's recompute, one span each under `parent`. Sets the
/// core.bounding.*, core.rounds_s.pairwise, core.rounds.cpu_util and
/// api.objective_recompute_s per-layer metrics. Selects exactly what
/// api::select selects for the same request.
Selection traced_pipeline(const subsel::api::SelectionRequest& request,
                          subsel::ThreadPool& pool, Tracer& tracer, int parent,
                          const std::string& job, Metrics& layers);

/// Set-up repetitions per run (setup_s is their median) and the least
/// number of timed batch jobs per run (job_s is their median).
inline constexpr int kSetupReps = 3;
inline constexpr int kMinJobs = 3;

/// Seeded clustered embeddings of the CIFAR-100 proxy shape (64-d, 100
/// classes) and the coarse classifier's margin utilities over them — the
/// inputs of embed_to_subset and of the dataset serve_mixed keeps resident.
struct Embeddings {
  subsel::graph::EmbeddingMatrix points;
  subsel::graph::EmbeddingMatrix centers;
  std::vector<std::uint32_t> labels;
};
Embeddings make_embeddings(std::size_t num_points, std::uint64_t seed);
std::vector<double> margin_utilities(const Embeddings& embeddings, std::uint64_t seed);
/// The float32 IVF 10-NN graph, symmetrized (the paper's graph build).
subsel::graph::SimilarityGraph build_graph(const Embeddings& embeddings,
                                           std::uint64_t seed,
                                           subsel::ThreadPool* pool);

}  // namespace perfbench
