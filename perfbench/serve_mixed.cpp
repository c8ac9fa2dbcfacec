// Workload serve_mixed: the selection daemon (`subsel serve`, the repo's CLI)
// holds one resident 50k-point dataset; one client on its Unix socket sends
// open-loop Poisson traffic at a fixed rate. Most requests are interactive
// 2 % `distributed-greedy` solves rotating over pairwise, facility-location
// and saturated-coverage under a tight deadline; a minority are batch 10 %
// `pipeline` solves with uniform bounding under a loose deadline. Latency is
// timed from each request's due time, so generator stalls count.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/solver_registry.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "data/dataset_io.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace subsel;

namespace {

constexpr std::size_t kPoints = 50'000;
/// The resident dataset is the same in every run (generated in set-up from
/// this constant); --seed drives the traffic: arrival times, the class and
/// objective mix order, and every request's solver seed. With a per-seed
/// dataset, solve times moved by +-10 % with the class geometry and hid
/// changes of that size in the code.
constexpr std::uint64_t kDatasetSeed = 42;
/// Offered load: requests per second and the batch share (every
/// kBatchEvery-th request is a batch request). On a 4-core host the daemon
/// keeps up with about 12-14 requests/s of this mix (at 14/s interactive p50
/// passes 200 ms and a quarter of the requests miss). 5/s, about 40 % of
/// that, keeps queueing short enough for the latency medians to repeat;
/// at 7/s they moved by +-15 % from run to run.
constexpr double kRateHz = 5.0;
constexpr std::size_t kBatchEvery = 20;
constexpr double kInteractiveFraction = 0.02;
constexpr double kBatchFraction = 0.10;
constexpr std::uint64_t kInteractiveDeadlineMs = 300;
constexpr std::uint64_t kBatchDeadlineMs = 5000;
/// Batch requests and three of every kSampleEvery interactive ones echo
/// their ids for the re-solve check.
constexpr std::size_t kSampleEvery = 10;
constexpr const char* kInteractiveObjectives[] = {"pairwise", "facility-location",
                                                  "saturated-coverage"};
constexpr std::size_t kDaemonMaxConcurrent = 2;

/// The daemon child process: `subsel serve` started with fork + exec and
/// stopped with SIGTERM (graceful drain). The destructor always reaps it.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket, const std::string& data) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");
    std::vector<std::string> args = {exe,
                                     "serve",
                                     "--socket=" + socket,
                                     "--data=bench=" + data,
                                     "--threads=" + std::to_string(pool_threads()),
                                     "--max-concurrent=" +
                                         std::to_string(kDaemonMaxConcurrent)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(exe.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    wait_for_line("listening on", 60.0);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }

  /// SIGTERM, then waits for the drain. True when the daemon exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void wait_for_line(const std::string& marker, double timeout_s) {
    std::string output;
    const double deadline = wall_now() + timeout_s;
    while (output.find(marker) == std::string::npos) {
      const double left = deadline - wall_now();
      pollfd waiter{stdout_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&waiter, 1, static_cast<int>(left * 1e3) + 1) <= 0) {
        throw std::runtime_error("daemon did not start: " + output);
      }
      char buffer[512];
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (n <= 0) throw std::runtime_error("daemon exited during start-up: " + output);
      output.append(buffer, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

enum class Kind { kPairwise, kFacility, kCoverage, kBatch };
constexpr const char* kKindNames[] = {"pairwise", "facility-location",
                                      "saturated-coverage", "batch"};

struct Offer {
  serve::ServeRequest request;
  Kind kind = Kind::kPairwise;
  double due = 0.0;
  double sent = 0.0;
  double received = 0.0;
  serve::ParsedResponse response;
};

/// The request mix for this seed: request i is batch when i % kBatchEvery
/// is the last slot, interactive otherwise (rotating objectives); every
/// request solves with its own seed.
std::vector<Offer> make_offers(std::size_t count, std::uint64_t seed) {
  std::vector<Offer> offers(count);
  Rng rng(hash_combine(seed, 0x7365727665ULL));
  double due = 0.0;
  std::size_t interactive = 0;
  for (std::size_t i = 0; i < count; ++i) {
    due += -std::log(1.0 - rng.uniform()) / kRateHz;
    Offer& offer = offers[i];
    offer.due = due;
    serve::ServeRequest& request = offer.request;
    request.id.assign(1, 'r');
    request.id += std::to_string(i);
    request.dataset = "bench";
    request.seed = hash_combine(seed, i) % 1'000'000;
    if (i % kBatchEvery == kBatchEvery - 1) {
      offer.kind = Kind::kBatch;
      request.priority = serve::Priority::kBatch;
      request.deadline_ms = kBatchDeadlineMs;
      request.solver = "pipeline";
      request.objective = "pairwise";
      request.k = static_cast<std::size_t>(kBatchFraction * kPoints);
      request.bounding = "uniform";
      request.return_selection = true;
    } else {
      offer.kind = static_cast<Kind>(interactive % 3);
      request.priority = serve::Priority::kInteractive;
      request.deadline_ms = kInteractiveDeadlineMs;
      request.solver = "distributed-greedy";
      request.objective = kInteractiveObjectives[interactive % 3];
      request.k = static_cast<std::size_t>(kInteractiveFraction * kPoints);
      request.return_selection = i % kSampleEvery < 3;
      ++interactive;
    }
  }
  return offers;
}

/// The api::SelectionRequest the daemon builds for `request`
/// (serve/server.cpp), for the in-process re-solve check.
api::SelectionRequest local_request(const serve::ServeRequest& request,
                                    const graph::GroundSet& ground_set) {
  api::SelectionRequest selection;
  selection.ground_set = &ground_set;
  selection.k = request.k;
  selection.objective_name = request.objective;
  selection.objective = core::ObjectiveParams::from_alpha(request.alpha);
  selection.facility_location.self_similarity = request.self_similarity;
  selection.facility_location.utility_weighted = request.utility_weighted;
  selection.coverage.saturation = request.saturation;
  selection.coverage.self_similarity = request.self_similarity;
  selection.coverage.utility_weighted = request.utility_weighted;
  selection.seed = request.seed;
  selection.solver = request.solver;
  selection.distributed.num_machines = request.machines;
  selection.distributed.num_rounds = request.rounds;
  selection.distributed.stochastic_epsilon = request.epsilon;
  return selection;
}

double counter(const serve::ParsedResponse& response, const char* name) {
  const serve::JsonValue* server = response.document.find("server");
  const serve::JsonValue* value = server != nullptr ? server->find(name) : nullptr;
  return value != nullptr && value->is_number() ? value->as_number() : -1.0;
}

/// Sends every offer at its due time and collects the responses; one
/// reaper thread timestamps responses as they complete.
void run_traffic(serve::ServeClient& client, std::vector<Offer>& offers) {
  std::vector<std::future<serve::ParsedResponse>> futures(offers.size());
  std::atomic<std::size_t> sent{0};
  std::thread reaper([&] {
    std::vector<bool> done(offers.size(), false);
    std::size_t finished = 0;
    std::size_t lowest = 0;
    while (finished < offers.size()) {
      const std::size_t limit = sent.load(std::memory_order_acquire);
      for (std::size_t i = lowest; i < limit; ++i) {
        if (done[i] ||
            futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          continue;
        }
        offers[i].received = wall_now();
        try {
          offers[i].response = futures[i].get();
        } catch (const std::exception& e) {
          offers[i].response.status = "error";
          offers[i].response.reason = e.what();
        }
        done[i] = true;
        ++finished;
      }
      while (lowest < limit && done[lowest]) ++lowest;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const double origin = wall_now();
  for (std::size_t i = 0; i < offers.size(); ++i) {
    Offer& offer = offers[i];
    offer.due += origin;
    const double wait = offer.due - wall_now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    offer.sent = wall_now();
    futures[i] = client.submit(offer.request);
    sent.store(i + 1, std::memory_order_release);
  }
  reaper.join();
}

std::vector<double> collect(const std::vector<Offer>& offers,
                            const std::function<bool(const Offer&)>& keep,
                            const std::function<double(const Offer&)>& value) {
  std::vector<double> out;
  for (const Offer& offer : offers) {
    if (keep(offer)) out.push_back(value(offer));
  }
  return out;
}

}  // namespace

WorkloadResult run_serve_mixed(const RunOptions& options) {
  WorkloadResult result;
  ThreadPool pool(pool_threads());
  // Files are named per run seed, so two runs never share a socket or file.
  const std::string prefix = options.work_dir + "/serve-" + std::to_string(options.seed);
  const std::string socket = options.work_dir + "/serve-" + std::to_string(options.seed) +
                             ".sock";

  // Set-up: embeddings -> utilities -> graph -> dataset file -> daemon up
  // and answering a stats request.
  std::vector<double> setups;
  data::Dataset dataset;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<serve::ServeClient> client;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    client.reset();
    if (daemon) {
      result.checks.require(daemon->stop(), "daemon did not drain and exit 0");
    }
    const double start = wall_now();
    Embeddings embeddings = make_embeddings(kPoints, kDatasetSeed);
    dataset.name = "bench";
    dataset.utilities = margin_utilities(embeddings, kDatasetSeed);
    dataset.graph = build_graph(embeddings, kDatasetSeed, &pool);
    dataset.embeddings = std::move(embeddings.points);
    dataset.labels = std::move(embeddings.labels);
    data::save_dataset(dataset, prefix);
    daemon = std::make_unique<Daemon>(options.daemon_exe, socket, prefix);
    client = std::make_unique<serve::ServeClient>(socket);
    serve::ServeRequest stats;
    stats.kind = serve::ServeRequest::Kind::kStats;
    stats.id = "stats-setup";
    result.checks.require(client->call(stats).status == "ok",
                          "daemon did not answer a stats request");
    setups.push_back(wall_now() - start);
  }
  const graph::InMemoryGroundSet ground_set = dataset.ground_set();
  // Write the dataset files back now, so the write-back does not compete
  // with the timed phase.
  ::sync();

  // Timed phase: open-loop traffic for options.seconds.
  const auto count = static_cast<std::size_t>(std::lround(kRateHz * options.seconds));
  std::vector<Offer> offers = make_offers(count, options.seed);
  reset_peak_rss(daemon->pid());
  const double traffic_start = wall_now();
  run_traffic(*client, offers);
  const double traffic_wall = wall_now() - traffic_start;
  const double daemon_rss = peak_rss_mb(daemon->pid());
  serve::ServeRequest stats;
  stats.kind = serve::ServeRequest::Kind::kStats;
  stats.id = "stats-end";
  const serve::ParsedResponse final_stats = client->call(stats);
  client.reset();
  result.checks.require(daemon->stop(), "daemon did not drain and exit 0");

  // Outcomes and checks.
  std::size_t rejected = 0, errors = 0, degraded = 0;
  for (const Offer& offer : offers) {
    const std::string& status = offer.response.status;
    if (status == "rejected") ++rejected;
    if (status == "error") ++errors;
    if (status == "degraded") ++degraded;
    if (offer.response.has_selection()) {
      result.checks.require(offer.response.selected_count <= offer.request.k,
                            offer.request.id + ": more ids than k");
    }
    if (offer.response.complete()) {
      result.checks.require(offer.response.selected_count == offer.request.k,
                            offer.request.id + ": complete response without k ids");
    }
  }
  result.attempted = offers.size();
  result.failed = rejected + errors;
  const double accepted = counter(final_stats, "accepted");
  const double completed = counter(final_stats, "completed");
  const double degraded_count = counter(final_stats, "degraded");
  const double error_count = counter(final_stats, "errors");
  result.checks.require(accepted >= 0 && accepted == completed + degraded_count + error_count,
                        "stats: accepted != completed + degraded + errors");
  result.checks.require(accepted + counter(final_stats, "rejected") ==
                            static_cast<double>(offers.size()),
                        "stats: accepted + rejected != requests sent");

  // Re-solve a sample of complete responses in-process through api::select
  // (traced runs drive the first batch one layer by layer instead).
  std::map<Kind, std::size_t> compared;
  bool traced_batch = false;
  api::SolverContext context(&pool);
  const int root = options.trace ? result.tracer.open("job.serve_resolve", "resolve", -1)
                                 : -1;
  for (const Offer& offer : offers) {
    if (!offer.request.return_selection || !offer.response.complete()) continue;
    if (compared[offer.kind] >= (offer.kind == Kind::kBatch ? 1u : 2u)) continue;
    const api::SelectionRequest request = local_request(offer.request, ground_set);
    Selection local;
    if (options.trace && offer.kind == Kind::kBatch && !traced_batch) {
      local = traced_pipeline(request, pool, result.tracer, root, offer.request.id,
                              result.per_layer);
      traced_batch = true;
    } else {
      api::SelectionReport report = api::select(request, context);
      local = {std::move(report.selected), report.objective};
    }
    std::vector<NodeId> served(offer.response.selected.begin(),
                               offer.response.selected.end());
    check_selection(result.checks, served, kPoints, offer.request.k, offer.request.id);
    result.checks.require(served == local.selected,
                          offer.request.id + ": re-solve selected different ids");
    result.checks.require(same_value(offer.response.objective, local.objective),
                          offer.request.id + ": re-solve objective differs");
    if (offer.kind != Kind::kFacility) {
      const double recompute =
          offer.kind == Kind::kCoverage
              ? coverage_value(ground_set, served, core::SaturatedCoverageParams{})
              : pairwise_value(ground_set, served, request.objective);
      result.checks.require(same_value(offer.response.objective, recompute),
                            offer.request.id + ": objective differs from the recompute");
    }
    ++compared[offer.kind];
  }
  if (root >= 0) result.tracer.close(root);
  for (const Kind kind : {Kind::kPairwise, Kind::kFacility, Kind::kCoverage, Kind::kBatch}) {
    const bool offered = std::any_of(offers.begin(), offers.end(), [&](const Offer& o) {
      return o.kind == kind && o.request.return_selection;
    });
    result.checks.require(!offered || compared[kind] > 0,
                          std::string("no complete ") + kKindNames[static_cast<int>(kind)] +
                              " response to re-solve");
  }

  // Latencies, timed from each request's due time.
  const auto answered = [](const Offer& o) { return o.response.has_selection(); };
  const auto interactive = [&](const Offer& o) {
    return answered(o) && o.kind != Kind::kBatch;
  };
  const auto batch = [&](const Offer& o) { return answered(o) && o.kind == Kind::kBatch; };
  const auto latency_ms = [](const Offer& o) { return 1e3 * (o.received - o.due); };
  const std::vector<double> interactive_ms = collect(offers, interactive, latency_ms);
  const std::vector<double> batch_ms = collect(offers, batch, latency_ms);
  const TailPercentile tail = highest_supported_percentile(interactive_ms);
  // The three interactive objectives solve at different speeds, so the p50
  // of their mix sits between two of them and jumps with the mix; the mean
  // of the per-objective p50s does not.
  double objective_p50_ms = 0.0;
  for (const Kind kind : {Kind::kPairwise, Kind::kFacility, Kind::kCoverage}) {
    objective_p50_ms +=
        median(collect(
            offers, [&](const Offer& o) { return answered(o) && o.kind == kind; },
            latency_ms)) /
        3.0;
  }
  const double miss_frac = static_cast<double>(rejected + errors + degraded) /
                           static_cast<double>(offers.size());
  const auto complete_objective = [&](Kind kind) {
    return median(collect(
        offers, [&](const Offer& o) { return o.kind == kind && o.response.complete(); },
        [](const Offer& o) { return o.response.objective; }));
  };
  const double batch_objective = complete_objective(Kind::kBatch);
  const double coverage_objective = complete_objective(Kind::kCoverage);

  result.end_to_end.set("setup_s", median(setups), "s");
  result.end_to_end.set("job_s", objective_p50_ms / 1e3, "s");
  result.end_to_end.set(
      "objective_ratio",
      batch_objective / pairwise_upper_bound(dataset.utilities,
                                             static_cast<std::size_t>(kBatchFraction * kPoints),
                                             core::ObjectiveParams::from_alpha(0.9)),
      "ratio");
  result.end_to_end.set(
      "coverage_ratio",
      coverage_objective /
          coverage_upper_bound(dataset.utilities, core::SaturatedCoverageParams{}),
      "ratio");
  result.end_to_end.set("peak_rss_mb", daemon_rss, "MB");
  result.end_to_end.set("objective", batch_objective, "score");
  result.end_to_end.set("coverage_objective", coverage_objective, "score");

  Metrics& layers = result.per_layer;
  layers.set("serve.interactive_p50_ms", median(interactive_ms), "ms");
  layers.set("serve.interactive_tail_ms", tail.value, "ms");
  layers.set("serve.batch_p50_ms", median(batch_ms), "ms");
  layers.set("serve.miss_frac", miss_frac, "ratio");

  // Server-side breakdown of answered requests, in ms.
  const auto report_ms = [](const Offer& o) { return 1e3 * o.response.latency.report_seconds; };
  const auto solve_ms = [](const Offer& o) { return 1e3 * o.response.latency.solve_seconds; };
  const auto transport_ms = [](const Offer& o) {
    return 1e3 * ((o.received - o.sent) - o.response.latency.total_seconds);
  };
  std::vector<double> queue_ms = collect(offers, answered, [](const Offer& o) {
    return 1e3 * o.response.latency.queue_seconds;
  });
  layers.set("serve.report_ms.p50", median(collect(offers, answered, report_ms)), "ms");
  layers.set("serve.transport_ms.p50", median(collect(offers, answered, transport_ms)), "ms");
  for (const Kind kind : {Kind::kPairwise, Kind::kFacility, Kind::kCoverage, Kind::kBatch}) {
    const auto of_kind = [&](const Offer& o) { return answered(o) && o.kind == kind; };
    layers.set(std::string("serve.solve_ms.p50.") + kKindNames[static_cast<int>(kind)],
               median(collect(offers, of_kind, solve_ms)), "ms");
  }
  layers.set("serve.queue_ms.p50", subsel::percentile(queue_ms, 50), "ms");
  layers.set("serve.queue_ms.p99", subsel::percentile(queue_ms, 99), "ms");
  layers.set("serve.queue_depth_high_water",
             counter(final_stats, "queue_depth_high_water"), "count");
  layers.set("serve.degraded", static_cast<double>(degraded), "count");
  layers.set("serve.rejected", static_cast<double>(rejected), "count");
  layers.set("serve.errors", static_cast<double>(errors), "count");
  std::vector<double> lag_ms =
      collect(offers, [](const Offer&) { return true; },
              [](const Offer& o) { return 1e3 * (o.sent - o.due); });
  layers.set("harness.gen_lag_ms.p99", subsel::percentile(lag_ms, 99), "ms");

  if (options.trace) {
    // Wire parse cost of the exact request lines sent, per request.
    std::vector<std::string> lines;
    for (const Offer& offer : offers) lines.push_back(offer.request.to_json());
    const serve::ParseLimits limits;
    const double parse_start = wall_now();
    for (const std::string& line : lines) serve::parse_request(line, limits);
    layers.set("serve.parse_us", 1e6 * (wall_now() - parse_start) / lines.size(), "us");

    // One span per request (sent -> received), with the server's breakdown
    // attached as counters; the breakdown must fit inside what the client saw.
    const int traffic = result.tracer.add("serve.traffic", "traffic", -1, traffic_start,
                                          traffic_start + traffic_wall);
    double serve_self = 0.0, solve_total = 0.0;
    for (const Offer& offer : offers) {
      const int span = result.tracer.add("serve.request", offer.request.id, traffic,
                                         offer.sent, offer.received);
      const serve::LatencyBreakdown& latency = offer.response.latency;
      result.tracer.counter(span, "queue_s", latency.queue_seconds);
      result.tracer.counter(span, "solve_s", latency.solve_seconds);
      result.tracer.counter(span, "report_s", latency.report_seconds);
      result.tracer.counter(span, "total_s", latency.total_seconds);
      if (!answered(offer)) continue;
      const double parts =
          latency.queue_seconds + latency.solve_seconds + latency.report_seconds;
      result.checks.require(parts <= latency.total_seconds + 5e-4 &&
                                latency.total_seconds <= offer.received - offer.sent + 5e-4,
                            offer.request.id +
                                ": server latency breakdown does not fit the client span");
      solve_total += latency.solve_seconds;
      serve_self += (offer.received - offer.sent) - latency.solve_seconds;
    }
    layers.set("self_s.serve", serve_self, "s");
    layers.set("self_s.core", solve_total, "s");
    layers.set("harness.trace_overhead_frac",
               static_cast<double>(result.tracer.spans().size()) *
                   Tracer::calibrated_span_cost() / traffic_wall,
               "ratio");
  }

  std::filesystem::remove(prefix);
  std::filesystem::remove(prefix + ".graph");

  result.manifest.add("n", static_cast<double>(kPoints));
  result.manifest.add("dim", 64.0);
  result.manifest.add("dataset_seed", static_cast<double>(kDatasetSeed));
  result.manifest.add("average_degree", dataset.graph.average_degree());
  result.manifest.add("rate_hz", kRateHz);
  result.manifest.add("loop", "open (Poisson arrivals), latency from due time");
  result.manifest.add("requests", static_cast<double>(offers.size()));
  result.manifest.add("batch_share", 1.0 / kBatchEvery);
  result.manifest.add("interactive_k", kInteractiveFraction * kPoints);
  result.manifest.add("batch_k", kBatchFraction * kPoints);
  result.manifest.add("interactive_deadline_ms", static_cast<double>(kInteractiveDeadlineMs));
  result.manifest.add("batch_deadline_ms", static_cast<double>(kBatchDeadlineMs));
  result.manifest.add("daemon_max_concurrent", static_cast<double>(kDaemonMaxConcurrent));
  result.manifest.add("interactive_tail_percentile", tail.percentile);
  result.manifest.add("interactive_tail_beyond", static_cast<double>(tail.beyond));
  result.manifest.add("interactive_samples", static_cast<double>(tail.samples));
  result.manifest.add("batch_samples", static_cast<double>(batch_ms.size()));
  result.manifest.add("traffic_s", traffic_wall);
  return result;
}

}  // namespace perfbench
