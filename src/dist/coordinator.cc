#include "dist/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "core/shedding.h"
#include "dist/shard.h"
#include "graph/binary_io.h"
#include "net/wire.h"
#include "service/dataset_registry.h"
#include "service/job_scheduler.h"

namespace edgeshed::dist {

namespace {

bool IsTerminalJobState(uint8_t state) {
  return state >= static_cast<uint8_t>(service::JobState::kDone);
}

std::string WorkerLabel(const WorkerAddress& worker) {
  return StrFormat("%s:%d", worker.host.c_str(), worker.port);
}

}  // namespace

StatusOr<std::vector<WorkerAddress>> ParseWorkerList(const std::string& csv) {
  std::vector<WorkerAddress> workers;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    std::string entry = csv.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) {
      if (csv.empty() && workers.empty()) break;  // "" = empty list
      return Status::InvalidArgument(
          "empty worker entry in --workers (expected host:port,host:port)");
    }
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status::InvalidArgument(
          StrFormat("worker '%s' is not host:port", entry.c_str()));
    }
    WorkerAddress worker;
    worker.host = entry.substr(0, colon);
    const std::string port_str = entry.substr(colon + 1);
    int port = 0;
    for (char c : port_str) {
      if (c < '0' || c > '9') port = -1;
      if (port >= 0) port = port * 10 + (c - '0');
      if (port > 65535) port = -1;
      if (port < 0) break;
    }
    if (port <= 0) {
      return Status::InvalidArgument(
          StrFormat("worker '%s' has an invalid port", entry.c_str()));
    }
    worker.port = port;
    workers.push_back(std::move(worker));
  }
  return workers;
}

/// Everything one shard's thread needs, plus its slots of the shared result
/// (each thread writes only its own task, so no lock is required).
struct ShedCoordinator::ShardTask {
  int index = 0;
  const Shard* shard = nullptr;
  uint64_t target = 0;
  /// Preservation ratio submitted for this shard. target / shard edges in
  /// general; for a single-shard run it is the caller's exact p, so a K=1
  /// fleet is bit-identical to a single-node shed even when target/m rounds
  /// to a different double than p.
  double ratio = 0.0;
  const WorkerAddress* worker = nullptr;  // null = local execution
  std::string dataset;                    // shard snapshot name (no .esg)
  std::string output;                     // kept snapshot name (no .esg)
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  ShardOutcome outcome;
  std::vector<graph::EdgeId> kept_global;
  Status status;
};

ShedCoordinator::ShedCoordinator(CoordinatorOptions options,
                                 obs::MetricsRegistry* metrics,
                                 obs::Tracer* tracer)
    : options_(std::move(options)), metrics_(metrics), tracer_(tracer) {
  if (metrics_ != nullptr) {
    instruments_.runs = metrics_->GetCounter("dist.runs");
    instruments_.shards_completed =
        metrics_->GetCounter("dist.shards_completed");
    instruments_.shards_failed = metrics_->GetCounter("dist.shards_failed");
    instruments_.fallback_local = metrics_->GetCounter("dist.fallback_local");
    instruments_.budget_trimmed_edges =
        metrics_->GetCounter("dist.budget_trimmed_edges");
    instruments_.shard_seconds = metrics_->GetLatency("dist.shard_seconds");
    instruments_.run_seconds = metrics_->GetLatency("dist.run_seconds");
  }
}

Status ShedCoordinator::ValidateOptions() const {
  EDGESHED_RETURN_IF_ERROR(core::ValidatePreservationRatio(options_.p));
  // Fail on an unknown method up front, not per shard mid-flight.
  EDGESHED_RETURN_IF_ERROR(
      core::MakeShedderByName(options_.method, options_.seed).status());
  if (options_.shard_dir.empty()) {
    return Status::InvalidArgument("CoordinatorOptions::shard_dir is required");
  }
  if (!service::IsSafeDatasetName(options_.job_tag)) {
    return Status::InvalidArgument(
        StrFormat("job_tag '%s' is not a safe name component",
                  options_.job_tag.c_str()));
  }
  if (options_.poll_interval.count() <= 0) {
    return Status::InvalidArgument("poll_interval must be positive");
  }
  return Status::OK();
}

StatusOr<std::vector<graph::EdgeId>> ShedCoordinator::RunShardRemote(
    ShardTask& task) {
  net::RpcClientOptions client_options = options_.client;
  client_options.host = task.worker->host;
  client_options.port = task.worker->port;
  net::RpcClient client(client_options, metrics_);
  net::RpcClient::Channel channel(&client);

  net::ShedRequest request;
  request.dataset = task.dataset;
  request.method = options_.method;
  request.p = task.ratio;
  request.seed = options_.seed;
  request.deadline_ms = options_.deadline_ms;
  request.wait = false;
  request.output = task.output;

  auto submitted = channel.Shed(request);
  if (!submitted.ok()) return submitted.status();
  const uint64_t job_id = submitted->job_id;

  if (!submitted->has_result) {
    for (;;) {
      if (CancellationRequested(options_.cancel)) {
        // Best effort: stop the remote job before reporting our own abort.
        channel.Cancel(job_id);
        return options_.cancel->ToStatus();
      }
      auto status = channel.GetJobStatus(job_id);
      if (!status.ok()) return status.status();
      if (IsTerminalJobState(status->state)) break;
      std::this_thread::sleep_for(options_.poll_interval);
    }
    auto summary = channel.Wait(job_id);
    if (!summary.ok()) return summary.status();
  }

  const std::string kept_path =
      options_.shard_dir + "/" + task.output + ".esg";
  // Kept subgraphs are consumed once for the merge: map them rather than
  // copying (workers write v3 snapshots).
  auto kept = graph::LoadGraph(kept_path);
  if (!kept.ok()) return kept.status();
  return MapKeptSubgraphToGlobal(*task.shard, kept->graph);
}

StatusOr<std::vector<graph::EdgeId>> ShedCoordinator::RunShardLocal(
    ShardTask& task) {
  EDGESHED_ASSIGN_OR_RETURN(
      auto shedder, core::MakeShedderByName(options_.method, options_.seed));
  core::ShedOptions shed_options;
  shed_options.p = task.ratio;
  shed_options.cancel = options_.cancel;
  shed_options.threads = options_.threads;
  EDGESHED_ASSIGN_OR_RETURN(auto result,
                            shedder->Shed(task.shard->graph, shed_options));
  return MapLocalEdgesToGlobal(*task.shard, result.kept_edges);
}

void ShedCoordinator::RunShard(ShardTask& task) {
  Stopwatch watch;
  obs::Span span = obs::Tracer::StartSpanInTrace(
      tracer_, StrFormat("dist.shard%d", task.index), task.trace_id,
      task.parent_span_id);
  span.Annotate("edges", StrFormat("%llu", (unsigned long long)
                                               task.outcome.shard_edges));
  span.Annotate("target", StrFormat("%llu", (unsigned long long)task.target));

  StatusOr<std::vector<graph::EdgeId>> kept =
      std::vector<graph::EdgeId>();  // drop-all default
  const uint64_t shard_edges = task.shard->graph.NumEdges();
  if (task.target >= shard_edges) {
    // Keep-all: no shedding needed, never leaves the coordinator.
    kept = task.shard->global_edge_ids;
    task.outcome.worker = "local";
  } else if (task.target == 0) {
    task.outcome.worker = "local";
  } else if (task.worker != nullptr) {
    task.outcome.worker = WorkerLabel(*task.worker);
    kept = RunShardRemote(task);
    if (kept.ok()) {
      task.outcome.remote_ok = true;
    } else if (!CancellationRequested(options_.cancel) &&
               options_.local_fallback) {
      task.outcome.remote_error = kept.status().ToString();
      task.outcome.fell_back = true;
      task.outcome.worker = "local";
      span.Annotate("fallback", task.outcome.remote_error);
      if (instruments_.fallback_local != nullptr) {
        instruments_.fallback_local->Increment();
      }
      kept = RunShardLocal(task);
    }
  } else {
    task.outcome.worker = "local";
    kept = RunShardLocal(task);
  }

  task.outcome.seconds = watch.ElapsedSeconds();
  if (kept.ok()) {
    task.kept_global = *std::move(kept);
    task.outcome.kept_edges = task.kept_global.size();
    if (instruments_.shards_completed != nullptr) {
      instruments_.shards_completed->Increment();
    }
    if (instruments_.shard_seconds != nullptr) {
      instruments_.shard_seconds->Record(task.outcome.seconds);
    }
  } else {
    task.status = kept.status();
    span.Annotate("error", task.status.ToString());
    if (instruments_.shards_failed != nullptr) {
      instruments_.shards_failed->Increment();
    }
  }
}

StatusOr<DistShedResult> ShedCoordinator::Run(const graph::Graph& g) {
  EDGESHED_RETURN_IF_ERROR(ValidateOptions());
  if (instruments_.runs != nullptr) instruments_.runs->Increment();
  Stopwatch total_watch;
  obs::Span run_span = obs::Tracer::StartSpan(tracer_, "dist.run");

  DistShedResult result;
  result.target_edges = core::TargetEdgeCount(g, options_.p);

  // Phase 1: partition + shard materialization + budget apportionment.
  Stopwatch phase_watch;
  EdgePartitionOptions partition_options = options_.partition;
  if (partition_options.threads == 0) {
    partition_options.threads = options_.threads;
  }
  std::vector<Shard> shards;
  std::vector<uint64_t> targets;
  {
    obs::Span span = obs::Tracer::StartSpan(tracer_, "dist.partition");
    EDGESHED_ASSIGN_OR_RETURN(auto partition,
                              PartitionEdges(g, partition_options));
    result.partition_stats = ComputePartitionStats(g, partition);
    EDGESHED_ASSIGN_OR_RETURN(shards, BuildShards(g, partition));
    targets = core::ApportionEdgeBudget(result.target_edges,
                                        result.partition_stats.shard_edges);
    span.Annotate("shards", StrFormat("%d", partition.num_shards));
    span.Annotate("replication",
                  StrFormat("%.4f", result.partition_stats.replication_factor));
    span.Annotate("balance",
                  StrFormat("%.4f", result.partition_stats.balance_factor));
  }
  result.partition_seconds = phase_watch.ElapsedSeconds();

  const int num_shards = static_cast<int>(shards.size());
  std::vector<ShardTask> tasks(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    ShardTask& task = tasks[i];
    task.index = i;
    task.shard = &shards[i];
    task.target = targets[i];
    const uint64_t shard_edges = task.shard->graph.NumEdges();
    task.ratio = num_shards == 1 ? options_.p
                 : shard_edges == 0
                     ? 0.0
                     : static_cast<double>(task.target) /
                           static_cast<double>(shard_edges);
    if (!options_.workers.empty()) {
      task.worker = &options_.workers[i % options_.workers.size()];
    }
    task.dataset = StrFormat("%s.shard%d", options_.job_tag.c_str(), i);
    task.output = task.dataset + ".kept";
    task.trace_id = run_span.trace_id();
    task.parent_span_id = run_span.span_id();
    task.outcome.shard = i;
    task.outcome.shard_edges = task.shard->graph.NumEdges();
    task.outcome.target_edges = task.target;
  }

  // Phase 2: snapshot the shards that will actually travel to a worker.
  phase_watch.Restart();
  {
    obs::Span span = obs::Tracer::StartSpan(tracer_, "dist.snapshot");
    for (ShardTask& task : tasks) {
      const bool remote = task.worker != nullptr && task.target > 0 &&
                          task.target < task.shard->graph.NumEdges();
      if (!remote) continue;
      const std::string path =
          options_.shard_dir + "/" + task.dataset + ".esg";
      // A snapshot, so the worker's shard-dir fallback can mmap the shard
      // instead of re-parsing and re-transposing an edge list on first Get.
      EDGESHED_RETURN_IF_ERROR(
          graph::SaveBinaryGraph(task.shard->graph, path));
    }
  }
  result.snapshot_seconds = phase_watch.ElapsedSeconds();

  // Phase 3: shed every shard concurrently (one thread each; K is small).
  phase_watch.Restart();
  {
    std::vector<std::thread> threads;
    threads.reserve(num_shards);
    for (ShardTask& task : tasks) {
      threads.emplace_back([this, &task] { RunShard(task); });
    }
    for (std::thread& t : threads) t.join();
  }
  result.shed_seconds = phase_watch.ElapsedSeconds();

  if (CancellationRequested(options_.cancel)) {
    return options_.cancel->ToStatus();
  }
  for (const ShardTask& task : tasks) {
    if (!task.status.ok()) {
      return Status(task.status.code(),
                    StrFormat("shard %d failed: %s", task.index,
                              task.status.message().c_str()));
    }
  }

  // Phase 4: boundary-aware merge under the exact global budget.
  phase_watch.Restart();
  {
    obs::Span span = obs::Tracer::StartSpan(tracer_, "dist.merge");
    size_t total_kept = 0;
    for (const ShardTask& task : tasks) total_kept += task.kept_global.size();
    result.kept_edges.reserve(total_kept);
    for (ShardTask& task : tasks) {
      result.kept_edges.insert(result.kept_edges.end(),
                               task.kept_global.begin(),
                               task.kept_global.end());
      task.kept_global.clear();
      task.kept_global.shrink_to_fit();
    }
    std::sort(result.kept_edges.begin(), result.kept_edges.end());
    if (std::adjacent_find(result.kept_edges.begin(),
                           result.kept_edges.end()) !=
        result.kept_edges.end()) {
      // Single ownership guarantees disjoint shard edge sets; a duplicate
      // means a worker snapshot leaked edges from another shard.
      return Status::Internal("merge produced a duplicate kept edge");
    }
    if (result.kept_edges.size() > result.target_edges) {
      const uint64_t trimmed =
          result.kept_edges.size() - result.target_edges;
      result.kept_edges.resize(result.target_edges);
      span.Annotate("trimmed", StrFormat("%llu", (unsigned long long)trimmed));
      if (instruments_.budget_trimmed_edges != nullptr) {
        instruments_.budget_trimmed_edges->Increment(trimmed);
      }
    }
    span.Annotate("kept", StrFormat("%llu", (unsigned long long)
                                                result.kept_edges.size()));
  }
  result.merge_seconds = phase_watch.ElapsedSeconds();

  result.shards.reserve(num_shards);
  for (ShardTask& task : tasks) {
    result.shards.push_back(std::move(task.outcome));
  }
  if (instruments_.run_seconds != nullptr) {
    instruments_.run_seconds->Record(total_watch.ElapsedSeconds());
  }
  return result;
}

}  // namespace edgeshed::dist
