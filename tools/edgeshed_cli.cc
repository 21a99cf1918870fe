// edgeshed — command-line front end for the library.
//
// Run `edgeshed` with no arguments for every command's usage. The kCommands
// table at the bottom of this file is the one declaration of each command:
// its usage line is both the help text and the set of flags it accepts, so
// the two cannot drift. main() rejects any other flag or stray argument with
// exit 2 and the command's usage, exits 1 when a command returns any other
// error, and 0 on success. README.md ("Command-line tool" and the sections
// after it) walks through every command.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/degree.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "dist/coordinator.h"
#include "dist/partitioner.h"
#include "dyn/incremental_shed.h"
#include "dyn/versioned_graph.h"
#include "eval/flags.h"
#include "graph/binary_io.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/external_build.h"
#include "graph/mutation_io.h"
#include "graph/source.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/stats_server.h"
#include "obs/tracer.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

using namespace edgeshed;

namespace {

// A usage error is an InvalidArgument whose message carries this tag; main
// answers it with the command's usage and exit 2 instead of exit 1.
constexpr std::string_view kUsageTag = "usage: ";

Status UsageError(std::string_view why) {
  return Status::InvalidArgument(std::string(kUsageTag) + std::string(why));
}

bool IsUsageError(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument &&
         status.message().starts_with(kUsageTag);
}

/// Re-tags a failure to parse a flag value as a usage error.
template <typename T>
StatusOr<T> AsUsage(StatusOr<T> parsed) {
  if (!parsed.ok()) return UsageError(parsed.status().message());
  return parsed;
}

/// Shared ingest flags: --input takes a SNAP text edge list or an
/// "EDGSHED3" snapshot (sniffed by default, pinned by --format), and
/// --mmap=false copies a snapshot onto the heap instead of serving it
/// zero-copy from a file mapping (graph/source.h, DESIGN.md §14).
StatusOr<graph::LoadedGraph> LoadInput(const eval::Flags& flags) {
  graph::GraphSource source;
  source.path = flags.GetString("input", "");
  if (source.path.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  const std::string format = flags.GetString("format", "");
  if (!format.empty()) {
    EDGESHED_ASSIGN_OR_RETURN(source.format, graph::ParseGraphFormat(format));
  }
  graph::IngestOptions options;
  options.mmap = flags.GetBool("mmap", true);
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  return graph::LoadGraph(source, options);
}

/// The snapshot layout CLI output flags select (`--page_align`,
/// `--chunk_kb`).
graph::SnapshotOptions SnapshotOptionsFromFlags(const eval::Flags& flags) {
  graph::SnapshotOptions options;
  options.page_align =
      static_cast<uint64_t>(flags.GetInt("page_align", 4096));
  options.chunk_bytes =
      static_cast<uint64_t>(flags.GetInt("chunk_kb", 1024)) * 1024;
  return options;
}

/// Writes `g` as a text edge list to --output and as a v3 snapshot to
/// --binary_output, each when set.
Status WriteGraph(const eval::Flags& flags, const graph::Graph& g,
                  std::span<const uint64_t> original_ids = {}) {
  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    EDGESHED_RETURN_IF_ERROR(graph::SaveEdgeList(g, output));
    std::printf("wrote %s\n", output.c_str());
  }
  const std::string binary_output = flags.GetString("binary_output", "");
  if (!binary_output.empty()) {
    graph::SnapshotOptions options = SnapshotOptionsFromFlags(flags);
    options.original_ids = original_ids;
    EDGESHED_RETURN_IF_ERROR(
        graph::SaveBinaryGraph(g, binary_output, options));
    std::printf("wrote %s\n", binary_output.c_str());
  }
  return Status::OK();
}

/// Metrics and what reads them: a tracer whenever something consumes it
/// (--stats_port >= 0 or --trace_out; otherwise every span hook is a
/// no-op), and the stats server on --stats_port (0 = ephemeral, negative =
/// off). Members are in destruction-safe order: the server reads the rest,
/// and its handlers hold `this`, so a Telemetry never moves.
struct Telemetry {
  explicit Telemetry(const eval::Flags& flags) {
    if (flags.GetInt("stats_port", -1) >= 0 ||
        !flags.GetString("trace_out", "").empty()) {
      tracer = std::make_unique<obs::Tracer>();
    }
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Serves /metrics, /tracez and /statusz (plus /healthz) when the port
  /// is not negative.
  Status StartStatsServer(const eval::Flags& flags) {
    const int64_t port = flags.GetInt("stats_port", -1);
    if (port < 0) return Status::OK();
    obs::StatsServerOptions options;
    options.port = static_cast<int>(port);
    stats_server = std::make_unique<obs::StatsServer>(options);
    stats_server->Handle("/metrics", [this] {
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::PrometheusText(metrics)};
    });
    stats_server->Handle("/tracez", [this] {
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               tracer->TraceEventJson()};
    });
    stats_server->Handle("/statusz", [this] {
      return obs::HttpResponse{200, "text/plain; charset=utf-8",
                               metrics.TextSnapshot()};
    });
    EDGESHED_RETURN_IF_ERROR(stats_server->Start());
    std::printf("stats server on http://127.0.0.1:%d "
                "(/metrics /tracez /statusz /healthz)\n",
                stats_server->port());
    std::fflush(stdout);
    return Status::OK();
  }

  /// The end of a batch run: --trace_out dumps the trace, and --linger_ms
  /// keeps the stats endpoints up that long so external scrapers (CI smoke,
  /// a curl-ing operator) can read the final counters and traces.
  Status Finish(const eval::Flags& flags) const {
    const std::string trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) return Status::IOError("cannot write trace file: " + trace_out);
      out << tracer->TraceEventJson();
      std::printf("wrote %s (load at chrome://tracing)\n", trace_out.c_str());
    }
    const int64_t linger_ms = flags.GetInt("linger_ms", 0);
    if (linger_ms > 0 && stats_server != nullptr) {
      std::printf("lingering %lld ms for stats scrapes...\n",
                  static_cast<long long>(linger_ms));
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    return Status::OK();
  }

  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::StatsServer> stats_server;
};

Status CmdReduce(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));
  EDGESHED_ASSIGN_OR_RETURN(
      std::unique_ptr<core::EdgeShedder> shedder,
      AsUsage(core::MakeShedderByName(
          flags.GetString("method", "crr"),
          static_cast<uint64_t>(flags.GetInt("seed", 42)))));
  EDGESHED_ASSIGN_OR_RETURN(
      core::SheddingResult result,
      shedder->Reduce(input.graph, flags.GetDouble("p", 0.5)));
  graph::Graph reduced = result.BuildReducedGraph(input.graph);
  std::printf("%s: kept %s / %s edges in %.3fs (avg delta %.4f)\n",
              shedder->name().c_str(),
              FormatWithCommas(reduced.NumEdges()).c_str(),
              FormatWithCommas(input.graph.NumEdges()).c_str(),
              result.reduction_seconds, result.average_delta);
  return WriteGraph(flags, reduced);
}

Status CmdStats(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));
  const graph::Graph& g = input.graph;
  auto components = analytics::ConnectedComponents(g);
  std::printf("nodes:       %s\n", FormatWithCommas(g.NumNodes()).c_str());
  std::printf("edges:       %s\n", FormatWithCommas(g.NumEdges()).c_str());
  std::printf("avg degree:  %.3f\n", g.AverageDegree());
  std::printf("max degree:  %s\n",
              FormatWithCommas(analytics::MaxDegree(g)).c_str());
  std::printf("components:  %u (largest %s)\n", components.NumComponents(),
              components.NumComponents() == 0
                  ? "0"
                  : FormatWithCommas(
                        components.sizes[components.LargestComponent()])
                        .c_str());
  return Status::OK();
}

Status CmdAnalyze(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));
  const graph::Graph& g = input.graph;
  const std::string tasks =
      flags.GetString("tasks", "degree,components,clustering,pagerank");
  Stopwatch watch;
  for (std::string_view task : StrSplit(tasks, ',')) {
    Stopwatch task_watch;
    if (task == "degree") {
      auto histogram = analytics::DegreeDistribution(g);
      std::printf("[degree] distinct degrees: %zu (%.3fs)\n",
                  histogram.Keys().size(), task_watch.ElapsedSeconds());
    } else if (task == "components") {
      auto components = analytics::ConnectedComponents(g);
      std::printf("[components] %u components (%.3fs)\n",
                  components.NumComponents(), task_watch.ElapsedSeconds());
    } else if (task == "clustering") {
      double cc = analytics::AverageClusteringCoefficient(g);
      std::printf("[clustering] average coefficient %.4f (%.3fs)\n", cc,
                  task_watch.ElapsedSeconds());
    } else if (task == "pagerank") {
      auto scores = analytics::PageRank(g);
      const auto top = static_cast<uint64_t>(flags.GetInt("top", 10));
      auto indices = analytics::TopKIndices(scores, top);
      std::printf("[pagerank] top-%llu:",
                  static_cast<unsigned long long>(top));
      for (uint32_t u : indices) std::printf(" %u", u);
      std::printf(" (%.3fs)\n", task_watch.ElapsedSeconds());
    } else if (task == "distance") {
      auto profile = analytics::DistanceProfile(g);
      std::printf("[distance] median hop fraction at k=3: %.4f (%.3fs)\n",
                  analytics::HopPlotFraction(profile, 3),
                  task_watch.ElapsedSeconds());
    } else {
      return UsageError("unknown task: " + std::string(task));
    }
  }
  std::printf("total %.3fs\n", watch.ElapsedSeconds());
  return Status::OK();
}

Status CmdConvert(const eval::Flags& flags) {
  const std::string binary_output = flags.GetString("binary_output", "");
  const std::string output = flags.GetString("output", "");
  if (binary_output.empty() && output.empty()) {
    return UsageError("convert needs --binary_output or --output");
  }

  // --external streams a text edge list straight into a v3 snapshot with
  // bounded memory — the path for inputs too large to materialize.
  if (flags.GetBool("external", false)) {
    if (binary_output.empty() || !output.empty()) {
      return UsageError("--external converts to --binary_output only");
    }
    graph::ExternalBuildOptions options;
    options.memory_budget_bytes =
        static_cast<uint64_t>(flags.GetInt("budget_mb", 256)) << 20;
    options.temp_dir = flags.GetString("temp_dir", "");
    options.snapshot = SnapshotOptionsFromFlags(flags);
    options.threads = static_cast<int>(flags.GetInt("threads", 0));
    Stopwatch watch;
    EDGESHED_ASSIGN_OR_RETURN(
        graph::ExternalBuildStats stats,
        graph::BuildSnapshotExternal(flags.GetString("input", ""),
                                     binary_output, options));
    std::printf(
        "wrote %s in %.3fs: %s nodes, %s edges (%s input pairs), "
        "%llu+%llu spill runs, %.1f MiB spilled, %.1f MiB peak buffers\n",
        binary_output.c_str(), watch.ElapsedSeconds(),
        FormatWithCommas(stats.num_nodes).c_str(),
        FormatWithCommas(stats.num_edges).c_str(),
        FormatWithCommas(stats.input_edges).c_str(),
        static_cast<unsigned long long>(stats.edge_runs),
        static_cast<unsigned long long>(stats.reverse_runs),
        static_cast<double>(stats.spilled_bytes) / (1 << 20),
        static_cast<double>(stats.peak_buffer_bytes) / (1 << 20));
    return Status::OK();
  }

  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));
  return WriteGraph(flags, input.graph, input.original_ids);
}

Status CmdGenerate(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(
      graph::DatasetId id,
      AsUsage(service::SurrogateDatasetId(flags.GetString("dataset", "grqc"))));
  graph::DatasetOptions options;
  options.scale = flags.GetDouble("scale", 1.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 20210419));
  graph::Graph g = graph::MakeDataset(id, options);
  std::printf("generated %s surrogate: %s nodes, %s edges\n",
              graph::GetDatasetSpec(id).name.c_str(),
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());
  return WriteGraph(flags, g);
}

/// Parses one jobs-file line, "dataset method p [seed] [deadline_ms]", over
/// `spec`'s defaults. Blank lines and '#' comments yield an empty dataset
/// (caller skips them).
StatusOr<service::JobSpec> ParseJobLine(const std::string& line,
                                        service::JobSpec spec) {
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty() || stripped.front() == '#') return service::JobSpec{};
  std::istringstream in{std::string(stripped)};
  if (!(in >> spec.dataset >> spec.method >> spec.p)) {
    return Status::InvalidArgument(
        StrFormat("bad job line (want 'dataset method p [seed] "
                  "[deadline_ms]'): %s", line.c_str()));
  }
  uint64_t seed = 42;
  if (in >> seed) spec.seed = seed;
  int64_t deadline_ms = 0;
  if (in >> deadline_ms && deadline_ms != 0) {
    spec.deadline = std::chrono::milliseconds(deadline_ms);
  }
  return spec;
}

/// The in-process service `service` and `serve` share: a GraphStore holding
/// the paper surrogates and a JobScheduler over it. The scheduler is
/// declared last, so it is destroyed before the store it reads.
struct ServingStack {
  std::unique_ptr<service::GraphStore> store;
  std::unique_ptr<service::JobScheduler> scheduler;
};

/// Builds the ServingStack from the flags both commands read; `options`
/// carries each command's own scheduler settings.
StatusOr<ServingStack> StartServing(const eval::Flags& flags,
                                    Telemetry& telemetry,
                                    service::JobScheduler::Options options) {
  ServingStack stack;
  service::GraphStore::Options store_options;
  store_options.byte_budget =
      static_cast<uint64_t>(flags.GetInt("store_budget_mb", 256)) << 20;
  stack.store = std::make_unique<service::GraphStore>(
      store_options, &telemetry.metrics, telemetry.tracer.get());
  graph::DatasetOptions dataset_options;
  dataset_options.scale = flags.GetDouble("scale", 1.0);
  dataset_options.seed =
      static_cast<uint64_t>(flags.GetInt("dataset_seed", 20210419));
  EDGESHED_RETURN_IF_ERROR(
      service::RegisterSurrogateDatasets(*stack.store, dataset_options));
  options.workers = static_cast<int>(flags.GetInt("workers", 0));
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue", 1024));
  options.rank_cache_byte_budget =
      static_cast<uint64_t>(flags.GetInt("rank_cache_mb", 128)) << 20;
  stack.scheduler = std::make_unique<service::JobScheduler>(
      stack.store.get(), &telemetry.metrics, options, telemetry.tracer.get());
  return stack;
}

Status CmdService(const eval::Flags& flags) {
  // --deadline_ms applies to every spec that does not set its own deadline
  // in the jobs file; 0 leaves those specs deadline-free.
  service::JobSpec defaults;
  defaults.deadline = std::chrono::milliseconds(
      std::max<int64_t>(0, flags.GetInt("deadline_ms", 0)));
  std::vector<service::JobSpec> specs;
  const std::string jobs_path = flags.GetString("jobs", "");
  if (!jobs_path.empty()) {
    std::ifstream in(jobs_path);
    if (!in) return Status::IOError("cannot open jobs file: " + jobs_path);
    std::string line;
    while (std::getline(in, line)) {
      EDGESHED_ASSIGN_OR_RETURN(service::JobSpec spec,
                                ParseJobLine(line, defaults));
      if (!spec.dataset.empty()) specs.push_back(std::move(spec));
    }
  } else {
    // Demo batch: a method x p sweep on the smallest dataset, each spec
    // submitted twice to exercise the result cache.
    for (const char* method : {"crr", "bm2", "random"}) {
      for (double p : {0.3, 0.5, 0.7}) {
        service::JobSpec spec = defaults;
        spec.dataset = "grqc";
        spec.method = method;
        spec.p = p;
        specs.push_back(spec);
        specs.push_back(spec);
      }
    }
  }
  if (specs.empty()) return Status::InvalidArgument("no jobs to run");

  service::JobScheduler::Options options;
  // Never below the batch size: this driver submits everything up front and
  // collects results afterwards, so a smaller retention would GC records
  // before their Wait and report phantom failures.
  options.max_retained_jobs = std::max(
      specs.size(), static_cast<size_t>(flags.GetInt("retention_jobs", 1024)));
  options.job_retention =
      std::chrono::milliseconds(flags.GetInt("retention_ms", 600000));
  options.result_cache_byte_budget =
      static_cast<uint64_t>(flags.GetInt("result_cache_mb", 64)) << 20;
  Telemetry telemetry(flags);
  EDGESHED_ASSIGN_OR_RETURN(ServingStack stack,
                            StartServing(flags, telemetry, options));
  EDGESHED_RETURN_IF_ERROR(telemetry.StartStatsServer(flags));
  service::JobScheduler& scheduler = *stack.scheduler;

  Stopwatch watch;
  std::vector<std::pair<service::JobId, const service::JobSpec*>> submitted;
  submitted.reserve(specs.size());
  int failures = 0;
  int rejected = 0;
  for (const service::JobSpec& spec : specs) {
    auto id = scheduler.Submit(spec);
    if (!id.ok()) {
      std::cerr << "submit failed (" << spec.dataset << " " << spec.method
                << " p=" << spec.p << "): " << id.status() << "\n";
      ++rejected;
      continue;
    }
    submitted.emplace_back(*id, &spec);
  }

  for (const auto& [id, spec] : submitted) {
    auto result = scheduler.Wait(id);
    auto status = scheduler.GetStatus(id);
    std::string outcome;
    if (result.ok()) {
      outcome = StrFormat(
          "kept=%8s%s", FormatWithCommas((*result)->kept_edges.size()).c_str(),
          status.ok() && status->deduplicated ? "  (cached)" : "");
    } else {
      ++failures;
      outcome = result.status().ToString();
    }
    std::printf("job %3llu %-12s %-15s p=%.2f %s\n",
                static_cast<unsigned long long>(id), spec->dataset.c_str(),
                spec->method.c_str(), spec->p, outcome.c_str());
  }
  scheduler.Shutdown();
  std::printf("\n%zu jobs on %d workers in %.3fs (%d failed, %d rejected)\n\n",
              submitted.size(), scheduler.workers(), watch.ElapsedSeconds(),
              failures, rejected);
  std::fputs(telemetry.metrics.TextSnapshot().c_str(), stdout);

  EDGESHED_RETURN_IF_ERROR(telemetry.Finish(flags));
  if (failures > 0 || rejected > 0) {
    return Status::Internal(
        StrFormat("%d job(s) failed, %d rejected", failures, rejected));
  }
  return Status::OK();
}

std::atomic<bool> g_signal_stop{false};

void HandleStopSignal(int) { g_signal_stop.store(true); }

/// Registers --edge_list=name=path[,name=path...] entries in `store`.
Status RegisterEdgeListFlag(service::GraphStore& store,
                            const std::string& edge_lists) {
  for (std::string_view entry : StrSplit(edge_lists, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == entry.size()) {
      return Status::InvalidArgument(
          StrFormat("bad --edge_list entry (want name=path): %.*s",
                    static_cast<int>(entry.size()), entry.data()));
    }
    EDGESHED_RETURN_IF_ERROR(service::RegisterEdgeListDataset(
        store, std::string(entry.substr(0, eq)),
        std::string(entry.substr(eq + 1))));
  }
  return Status::OK();
}

/// Parses --tenants=name:weight[:quota],... into scheduler tenant configs.
Status ParseTenantsFlag(const std::string& tenants,
                        std::map<std::string, service::TenantConfig>* out) {
  for (std::string_view entry : StrSplit(tenants, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    const std::vector<std::string_view> parts = StrSplit(entry, ':');
    const auto number = [&parts](size_t i) {
      return i < parts.size() ? std::atol(std::string(parts[i]).c_str()) : 0;
    };
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty() ||
        number(1) < 1 || number(2) < 0) {
      return Status::InvalidArgument(StrFormat(
          "bad --tenants entry (want name:weight[:quota], weight >= 1, "
          "quota >= 0): %.*s",
          static_cast<int>(entry.size()), entry.data()));
    }
    (*out)[std::string(parts[0])] = {static_cast<uint32_t>(number(1)),
                                     static_cast<size_t>(number(2))};
  }
  return Status::OK();
}

Status CmdServe(const eval::Flags& flags) {
  service::JobScheduler::Options options;
  EDGESHED_RETURN_IF_ERROR(
      ParseTenantsFlag(flags.GetString("tenants", ""), &options.tenants));
  options.degrade.enabled = flags.GetBool("degrade", false);
  Telemetry telemetry(flags);
  EDGESHED_ASSIGN_OR_RETURN(ServingStack stack,
                            StartServing(flags, telemetry, options));
  EDGESHED_RETURN_IF_ERROR(
      RegisterEdgeListFlag(*stack.store, flags.GetString("edge_list", "")));
  // Fleet-worker mode: resolve unknown dataset names to shard snapshots in
  // --shard_dir and allow ShedRequest::output to write kept subgraphs there.
  const std::string shard_dir = flags.GetString("shard_dir", "");
  if (!shard_dir.empty()) {
    service::InstallShardDirFallback(*stack.store, shard_dir,
                                     flags.GetBool("mmap", true));
  }

  net::RpcServerOptions server_options;
  server_options.port = static_cast<int>(flags.GetInt("port", 0));
  server_options.loopback_only = !flags.GetBool("public", false);
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max_connections", 64));
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max_inflight", 8));
  server_options.dispatch_threads =
      static_cast<int>(flags.GetInt("dispatch_threads", 4));
  server_options.idle_timeout =
      std::chrono::milliseconds(flags.GetInt("idle_timeout_ms", 60000));
  server_options.degrade_enabled = options.degrade.enabled;
  server_options.max_pending =
      static_cast<size_t>(flags.GetInt("max_pending", 0));
  server_options.output_dir = shard_dir;
  net::RpcServer server(stack.store.get(), stack.scheduler.get(),
                        &telemetry.metrics, server_options,
                        telemetry.tracer.get());
  EDGESHED_RETURN_IF_ERROR(server.Start());
  std::printf("rpc server on %s:%d (max_connections=%zu max_inflight=%zu)\n",
              server_options.loopback_only ? "127.0.0.1" : "0.0.0.0",
              server.port(), server_options.max_connections,
              server_options.max_inflight);
  EDGESHED_RETURN_IF_ERROR(telemetry.StartStatsServer(flags));
  std::fflush(stdout);

  // Serve until a stop signal (or --serve_ms for bounded runs in scripts).
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const int64_t serve_ms = flags.GetInt("serve_ms", 0);
  const auto started_at = std::chrono::steady_clock::now();
  while (!g_signal_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (serve_ms > 0 && std::chrono::steady_clock::now() - started_at >=
                            std::chrono::milliseconds(serve_ms)) {
      break;
    }
  }

  std::printf("draining...\n");
  server.Stop();
  stack.scheduler->Shutdown();
  std::fputs(telemetry.metrics.TextSnapshot().c_str(), stdout);
  return Status::OK();
}

/// Appends the --insert or --delete flag's "u:v,u:v,..." entries to
/// `out`. Whitespace around entries is tolerated; validation beyond u32
/// syntax (self-loops, duplicates, liveness) is the server's job so errors
/// name one authority.
Status ParseEdgePairsFlag(const eval::Flags& flags, const char* flag,
                          std::vector<graph::Edge>* out) {
  const std::string value = flags.GetString(flag, "");
  for (std::string_view entry : StrSplit(value, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    unsigned long long u = 0;
    unsigned long long v = 0;
    char trailing = '\0';
    if (std::sscanf(std::string(entry).c_str(), "%llu:%llu%c", &u, &v,
                    &trailing) != 2 ||
        u > UINT32_MAX || v > UINT32_MAX) {
      return UsageError(
          StrFormat("bad --%s entry (want u:v with u32 ids): %.*s", flag,
                    static_cast<int>(entry.size()), entry.data()));
    }
    out->push_back({static_cast<uint32_t>(u), static_cast<uint32_t>(v)});
  }
  return Status::OK();
}

/// `--op=apply`: one ApplyMutationsRequest per batch, so a mutation file's
/// `---` separators keep their batch-atomicity over the wire; inline
/// --insert/--delete flags form one extra batch.
Status ClientApply(const eval::Flags& flags, net::RpcClient& client) {
  std::vector<graph::MutationBatch> batches;
  const std::string mutations_path = flags.GetString("mutations", "");
  if (!mutations_path.empty()) {
    EDGESHED_ASSIGN_OR_RETURN(batches,
                              graph::ParseMutationFile(mutations_path));
  }
  graph::MutationBatch inline_batch;
  EDGESHED_RETURN_IF_ERROR(
      ParseEdgePairsFlag(flags, "insert", &inline_batch.inserts));
  EDGESHED_RETURN_IF_ERROR(
      ParseEdgePairsFlag(flags, "delete", &inline_batch.deletes));
  if (!inline_batch.empty()) batches.push_back(std::move(inline_batch));
  if (batches.empty()) {
    return UsageError("--op=apply needs --mutations and/or --insert/--delete");
  }
  for (size_t i = 0; i < batches.size(); ++i) {
    net::ApplyMutationsRequest request;
    request.dataset = flags.GetString("dataset", "grqc");
    for (const graph::Edge& e : batches[i].inserts) {
      request.inserts.emplace_back(e.u, e.v);
    }
    for (const graph::Edge& e : batches[i].deletes) {
      request.deletes.emplace_back(e.u, e.v);
    }
    auto response = client.ApplyMutations(request);
    if (!response.ok()) {
      return Status(response.status().code(),
                    StrFormat("batch %zu: %s", i + 1,
                              response.status().message().c_str()));
    }
    std::printf("applied batch=%zu version=%llu live=%llu "
                "overlay=+%llu/-%llu compacting=%u\n",
                i + 1,
                static_cast<unsigned long long>(response->version),
                static_cast<unsigned long long>(response->live_edges),
                static_cast<unsigned long long>(response->overlay_inserted),
                static_cast<unsigned long long>(response->overlay_deleted),
                response->compacting);
  }
  return Status::OK();
}

/// One finished remote job; `kept=` is what CI smoke compares against the
/// same reduction run in-process, and a degraded answer says so.
void PrintResult(uint64_t job_id, const net::ResultSummary& r) {
  std::string degraded;
  if (r.degrade_kind != 0) {
    degraded = StrFormat(" (degraded: method=%s p=%.2f)",
                         r.applied_method.c_str(), r.applied_p);
  }
  std::printf("job=%llu kept=%llu total_delta=%.6f avg_delta=%.6f "
              "reduction=%.3fs%s%s\n",
              static_cast<unsigned long long>(job_id),
              static_cast<unsigned long long>(r.kept_edges), r.total_delta,
              r.average_delta, r.reduction_seconds,
              r.deduplicated ? " (cached)" : "", degraded.c_str());
}

Status CmdClient(const eval::Flags& flags) {
  net::RpcClientOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<int>(flags.GetInt("port", 0));
  if (options.port <= 0) return UsageError("--port is required");
  options.recv_timeout =
      std::chrono::milliseconds(flags.GetInt("timeout_ms", 600000));
  options.max_attempts = static_cast<int>(flags.GetInt("retries", 3)) + 1;
  net::RpcClient client(options);

  const std::string op = flags.GetString("op", "shed");
  if (op == "ping") {
    EDGESHED_ASSIGN_OR_RETURN(uint64_t echoed, client.Ping(20210419));
    std::printf("pong token=%llu\n", static_cast<unsigned long long>(echoed));
    return Status::OK();
  }
  if (op == "list") {
    EDGESHED_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              client.ListDatasets());
    for (const std::string& name : names) std::printf("%s\n", name.c_str());
    return Status::OK();
  }
  if (op == "shed") {
    net::ShedRequest request;
    request.dataset = flags.GetString("dataset", "grqc");
    request.method = flags.GetString("method", "crr");
    request.p = flags.GetDouble("p", 0.5);
    request.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    request.deadline_ms =
        static_cast<uint64_t>(flags.GetInt("deadline_ms", 0));
    request.wait = !flags.GetBool("no_wait", false);
    request.tenant = flags.GetString("tenant", "");
    request.priority = flags.GetBool("priority", false) ? 1 : 0;
    EDGESHED_ASSIGN_OR_RETURN(net::ShedResponse response,
                              client.Shed(request));
    if (!response.has_result) {
      std::printf("submitted job=%llu\n",
                  static_cast<unsigned long long>(response.job_id));
      return Status::OK();
    }
    PrintResult(response.job_id, response.result);
    return Status::OK();
  }
  if (op == "apply") return ClientApply(flags, client);

  const auto job_id = static_cast<uint64_t>(flags.GetInt("job_id", 0));
  if (op == "wait") {
    EDGESHED_ASSIGN_OR_RETURN(net::ResultSummary summary,
                              client.Wait(job_id));
    PrintResult(job_id, summary);
    return Status::OK();
  }
  if (op == "status") {
    EDGESHED_ASSIGN_OR_RETURN(net::GetStatusResponse status,
                              client.GetJobStatus(job_id));
    const std::string_view state = service::JobStateToString(
        static_cast<service::JobState>(status.state));
    auto code = net::StatusCodeFromWireCode(status.code);
    const std::string_view code_name =
        StatusCodeToString(code.ok() ? *code : StatusCode::kOk);
    std::printf("job=%llu state=%.*s status=%.*s%s%s queue=%.3fs run=%.3fs\n",
                static_cast<unsigned long long>(job_id),
                static_cast<int>(state.size()), state.data(),
                static_cast<int>(code_name.size()), code_name.data(),
                status.message.empty() ? "" : ": ", status.message.c_str(),
                status.queue_seconds, status.run_seconds);
    return Status::OK();
  }
  if (op == "cancel") {
    EDGESHED_RETURN_IF_ERROR(client.Cancel(job_id));
    std::printf("cancelled job=%llu\n",
                static_cast<unsigned long long>(job_id));
    return Status::OK();
  }
  return UsageError("unknown --op: " + op);
}

Status CmdMutate(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));
  const std::string mutations_path = flags.GetString("mutations", "");
  if (mutations_path.empty()) return UsageError("--mutations is required");
  const bool reshed = flags.GetBool("reshed", false);
  const std::string output = flags.GetString("output", "");
  if (!output.empty() && !reshed) {
    return UsageError("--output writes the kept edge list; it needs --reshed");
  }
  EDGESHED_ASSIGN_OR_RETURN(std::vector<graph::MutationBatch> batches,
                            graph::ParseMutationFile(mutations_path));

  dyn::VersionedGraph::Options graph_options;
  graph_options.compact_ratio = flags.GetDouble("compact_ratio", 0.10);
  graph_options.auto_compact = flags.GetBool("auto_compact", true);
  auto versioned = std::make_shared<dyn::VersionedGraph>(
      std::move(input.graph), graph_options);

  std::unique_ptr<dyn::ShedSession> session;
  if (reshed) {
    dyn::DynamicShedOptions shed_options;
    shed_options.p = flags.GetDouble("p", 0.5);
    shed_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    shed_options.dirty_hops =
        static_cast<uint32_t>(flags.GetInt("dirty_hops", 0));
    shed_options.decay_half_life = flags.GetDouble("decay_half_life", 0.0);
    shed_options.threads = static_cast<int>(flags.GetInt("threads", 0));
    session = std::make_unique<dyn::ShedSession>(versioned, shed_options);
  }

  // One parseable line per re-shed; `kept=` is what CI smoke compares
  // against the remote path.
  std::vector<graph::Edge> kept;
  auto reshed_once = [&](size_t batch_index) -> Status {
    if (session == nullptr) return Status::OK();
    EDGESHED_ASSIGN_OR_RETURN(auto result, session->Reshed());
    std::printf("batch=%zu version=%llu kept=%zu full_rank=%d dirty=%llu "
                "avg_delta=%.6f reshed=%.3fs\n",
                batch_index,
                static_cast<unsigned long long>(result.version),
                result.kept.size(), result.full_rank ? 1 : 0,
                static_cast<unsigned long long>(result.dirty_vertices),
                result.average_delta, result.seconds);
    kept = std::move(result.kept);
    return Status::OK();
  };
  EDGESHED_RETURN_IF_ERROR(reshed_once(0));

  for (size_t i = 0; i < batches.size(); ++i) {
    auto version = versioned->ApplyBatch(std::move(batches[i]));
    if (!version.ok()) {
      return Status(version.status().code(),
                    StrFormat("batch %zu: %s", i + 1,
                              version.status().message().c_str()));
    }
    auto snap = versioned->Snapshot();
    std::printf("applied batch=%zu version=%llu live=%s overlay=+%zu/-%zu "
                "ratio=%.4f\n",
                i + 1, static_cast<unsigned long long>(*version),
                FormatWithCommas(snap->NumEdges()).c_str(),
                snap->inserted().size(), snap->deleted_ids().size(),
                snap->DeltaRatio());
    EDGESHED_RETURN_IF_ERROR(reshed_once(i + 1));
  }
  versioned->WaitForCompaction();
  auto snap = versioned->Snapshot();
  std::printf("final version=%llu live=%s overlay=+%zu/-%zu\n",
              static_cast<unsigned long long>(versioned->CurrentVersion()),
              FormatWithCommas(snap->NumEdges()).c_str(),
              snap->inserted().size(), snap->deleted_ids().size());

  // Unlike WriteGraph's callers, --output is the kept set and
  // --binary_output the mutated graph.
  if (!output.empty()) {
    EDGESHED_ASSIGN_OR_RETURN(
        graph::Graph reduced,
        graph::Graph::FromEdges(static_cast<graph::NodeId>(snap->NumNodes()),
                                kept));
    EDGESHED_RETURN_IF_ERROR(graph::SaveEdgeList(reduced, output));
    std::printf("wrote %s\n", output.c_str());
  }
  const std::string binary_output = flags.GetString("binary_output", "");
  if (!binary_output.empty()) {
    EDGESHED_ASSIGN_OR_RETURN(graph::Graph materialized, snap->Materialize());
    EDGESHED_RETURN_IF_ERROR(graph::SaveBinaryGraph(
        materialized, binary_output, SnapshotOptionsFromFlags(flags)));
    std::printf("wrote %s\n", binary_output.c_str());
  }
  return Status::OK();
}

Status CmdCoordinate(const eval::Flags& flags) {
  EDGESHED_ASSIGN_OR_RETURN(graph::LoadedGraph input, LoadInput(flags));

  dist::CoordinatorOptions options;
  EDGESHED_ASSIGN_OR_RETURN(
      options.workers,
      AsUsage(dist::ParseWorkerList(flags.GetString("workers", ""))));
  EDGESHED_ASSIGN_OR_RETURN(
      options.partition.kind,
      AsUsage(dist::ParsePartitionerKind(
          flags.GetString("partitioner", "hdrf"))));
  options.partition.shards = static_cast<int>(flags.GetInt("shards", 2));
  options.partition.hdrf_lambda = flags.GetDouble("hdrf_lambda", 1.1);
  options.partition.seed =
      static_cast<uint64_t>(flags.GetInt("partition_seed", 42));
  options.method = flags.GetString("method", "crr");
  options.p = flags.GetDouble("p", 0.5);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.shard_dir = flags.GetString("shard_dir", "");
  if (options.shard_dir.empty()) return UsageError("--shard_dir is required");
  options.job_tag = flags.GetString("job_tag", "fleet");
  options.deadline_ms = static_cast<uint64_t>(flags.GetInt("deadline_ms", 0));
  options.poll_interval = std::chrono::milliseconds(flags.GetInt("poll_ms",
                                                                 50));
  options.client.recv_timeout =
      std::chrono::milliseconds(flags.GetInt("timeout_ms", 600000));
  options.client.max_attempts =
      static_cast<int>(flags.GetInt("retries", 3)) + 1;
  options.local_fallback = !flags.GetBool("no_fallback", false);
  options.threads = static_cast<int>(flags.GetInt("threads", 0));

  Telemetry telemetry(flags);
  EDGESHED_RETURN_IF_ERROR(telemetry.StartStatsServer(flags));
  dist::ShedCoordinator coordinator(options, &telemetry.metrics,
                                    telemetry.tracer.get());
  Stopwatch watch;
  EDGESHED_ASSIGN_OR_RETURN(dist::DistShedResult result,
                            coordinator.Run(input.graph));

  std::printf("%s x%d over %zu worker(s), method=%s p=%.2f\n",
              std::string(dist::PartitionerKindToString(
                              options.partition.kind)).c_str(),
              options.partition.shards, options.workers.size(),
              options.method.c_str(), options.p);
  std::printf("partition: balance=%.4f replication=%.4f cut_vertices=%s\n",
              result.partition_stats.balance_factor,
              result.partition_stats.replication_factor,
              FormatWithCommas(result.partition_stats.cut_vertices).c_str());
  for (const dist::ShardOutcome& shard : result.shards) {
    std::printf("shard %d: %-21s edges=%-9s kept=%-9s %.3fs%s%s%s\n",
                shard.shard, shard.worker.c_str(),
                FormatWithCommas(shard.shard_edges).c_str(),
                FormatWithCommas(shard.kept_edges).c_str(), shard.seconds,
                shard.remote_ok ? " (remote)" : "",
                shard.fell_back ? " (fell back: " : "",
                shard.fell_back ? (shard.remote_error + ")").c_str() : "");
  }
  std::printf("kept %s / %s edges (target %s) in %.3fs "
              "(partition %.3fs snapshot %.3fs shed %.3fs merge %.3fs)\n",
              FormatWithCommas(result.kept_edges.size()).c_str(),
              FormatWithCommas(input.graph.NumEdges()).c_str(),
              FormatWithCommas(result.target_edges).c_str(),
              watch.ElapsedSeconds(), result.partition_seconds,
              result.snapshot_seconds, result.shed_seconds,
              result.merge_seconds);

  if (flags.Has("output") || flags.Has("binary_output")) {
    EDGESHED_RETURN_IF_ERROR(
        WriteGraph(flags, result.BuildReducedGraph(input.graph)));
  }
  return telemetry.Finish(flags);
}

// ---------------------------------------------------------------------------
// Command table

/// Flag groups several commands share, each read by one helper.
enum FlagGroup : unsigned {
  kInput = 1u << 0,           // LoadInput
  kSnapshotOut = 1u << 1,     // SnapshotOptionsFromFlags
  kServing = 1u << 2,         // StartServing
  kBatchTelemetry = 1u << 3,  // Telemetry, including Finish
};
constexpr std::string_view kFlagGroups[] = {
    " --input=G.txt|G.esg [--format=auto|text|snapshot] [--mmap=false]"
    " [--threads=N]",
    " [--page_align=4096] [--chunk_kb=1024]",
    " [--workers=N] [--queue=1024] [--rank_cache_mb=128]"
    " [--store_budget_mb=256] [--scale=1.0] [--dataset_seed=20210419]",
    " [--stats_port=P] [--trace_out=trace.json] [--linger_ms=T]",
};

struct Command {
  std::string_view name;
  std::string_view summary;
  /// The command's own flags; Usage() appends its shared groups.
  std::string_view flags;
  unsigned groups;
  Status (*run)(const eval::Flags&);

  std::string Usage() const {
    std::string usage(flags);
    for (size_t i = 0; i < std::size(kFlagGroups); ++i) {
      if ((groups & (1u << i)) != 0) usage += kFlagGroups[i];
    }
    return usage;
  }
};

constexpr Command kCommands[] = {
    {"generate",
     "Writes a surrogate of a paper dataset as a text edge list.",
     "--dataset=grqc|hepph|enron|livejournal [--scale=1.0] "
     "[--seed=20210419] [--output=G.txt]",
     0, CmdGenerate},
    {"convert",
     "Re-encodes a graph; --external streams text into a snapshot out of core.",
     "[--output=G.txt] [--binary_output=G.esg] "
     "[--external --budget_mb=256 [--temp_dir=DIR]]",
     kInput | kSnapshotOut, CmdConvert},
    {"reduce",
     "Sheds a graph down to ratio p and writes the kept graph.",
     "--method=crr|crr-rank|bm2|random|local-degree|spanning-forest "
     "--p=0.5 [--seed=42] [--output=R.txt] [--binary_output=R.esg]",
     kInput | kSnapshotOut, CmdReduce},
    {"analyze",
     "Runs analytics tasks on a graph.",
     "[--tasks=degree,components,clustering,pagerank,distance] [--top=10]",
     kInput, CmdAnalyze},
    {"stats", "Prints node, edge, degree and component counts.", "", kInput,
     CmdStats},
    {"service",
     "Runs a batch of jobs ('dataset method p [seed] [deadline_ms]' lines).",
     "[--jobs=jobs.txt] [--deadline_ms=D] [--retention_jobs=1024] "
     "[--retention_ms=600000] [--result_cache_mb=64]",
     kServing | kBatchTelemetry, CmdService},
    {"serve",
     "Serves shedding over RPC until SIGINT/SIGTERM or --serve_ms.",
     "[--port=0] [--public] [--max_connections=64] [--max_inflight=8] "
     "[--max_pending=N] [--dispatch_threads=4] [--idle_timeout_ms=60000] "
     "[--degrade] [--tenants=name:weight[:quota],...] "
     "[--edge_list=name=path,...] [--shard_dir=DIR] [--mmap=false] "
     "[--stats_port=P] [--serve_ms=T]",
     kServing, CmdServe},
    {"client",
     "Sends one RPC to a running server.",
     "--port=P [--op=shed|ping|list|wait|status|cancel|apply] "
     "[--host=127.0.0.1] [--timeout_ms=600000] [--retries=3] "
     "[--dataset=grqc] [--method=crr] [--p=0.5] [--seed=42] "
     "[--deadline_ms=T] [--tenant=NAME] [--priority] [--no_wait] "
     "[--job_id=N] [--mutations=M.txt] [--insert=u:v,...] "
     "[--delete=u:v,...]",
     0, CmdClient},
    {"mutate",
     "Replays mutations ('+ u v' / '- u v' lines, '---' between batches).",
     "--mutations=M.txt [--reshed] [--p=0.5] [--seed=42] [--dirty_hops=0] "
     "[--decay_half_life=0] [--compact_ratio=0.1] [--auto_compact=false] "
     "[--output=K.txt] [--binary_output=G2.esg]",
     kInput | kSnapshotOut, CmdMutate},
    {"coordinate",
     "Sheds K shards on --workers (or locally), merges to the global budget.",
     "--shard_dir=DIR [--workers=host:port,...] [--shards=2] "
     "[--partitioner=hdrf|dbh|hash] [--hdrf_lambda=1.1] "
     "[--partition_seed=42] [--method=crr] [--p=0.5] [--seed=42] "
     "[--deadline_ms=T] [--timeout_ms=600000] [--retries=3] [--poll_ms=50] "
     "[--job_tag=fleet] [--no_fallback] [--output=R.txt] "
     "[--binary_output=R.esg]",
     kInput | kSnapshotOut | kBatchTelemetry, CmdCoordinate},
};

/// Prints the command's summary, then `edgeshed <name> <usage>` wrapped
/// between flags at 80 columns.
void PrintUsage(const Command& command) {
  std::fprintf(stderr, "  %.*s\n", static_cast<int>(command.summary.size()),
               command.summary.data());
  const std::string usage = command.Usage();
  const std::string name = "    edgeshed " + std::string(command.name);
  std::string line = name;
  for (std::string_view word : StrSplit(usage, ' ')) {
    if (word.empty()) continue;
    if (line.size() + 1 + word.size() > 79 && line != name) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line = "       ";
    }
    line += ' ';
    line += word;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Rejects flags `command` does not declare (every `--name` token of its
/// usage line declares one) and arguments after its name.
Status CheckArguments(const Command& command, const eval::Flags& flags) {
  const std::string usage = command.Usage();
  std::set<std::string> declared;
  for (size_t at = usage.find("--"); at != std::string::npos;
       at = usage.find("--", at)) {
    at += 2;
    declared.insert(usage.substr(at, usage.find_first_of(" =]", at) - at));
  }
  for (const std::string& name : flags.Names()) {
    if (!declared.contains(name)) {
      return UsageError(StrFormat("unknown flag --%s for %s", name.c_str(),
                                  std::string(command.name).c_str()));
    }
  }
  if (flags.positional().size() > 1) {
    return UsageError("unexpected argument '" + flags.positional()[1] + "'");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const std::string command_name =
      flags.positional().empty() ? "" : flags.positional()[0];
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (candidate.name == command_name) command = &candidate;
  }
  if (command == nullptr) {
    if (!command_name.empty()) {
      std::fprintf(stderr, "unknown command: %s\n", command_name.c_str());
    }
    std::fprintf(stderr, "usage: edgeshed <command> [flags]\n");
    for (const Command& candidate : kCommands) PrintUsage(candidate);
    return 2;
  }

  Status status = CheckArguments(*command, flags);
  if (status.ok()) status = command->run(flags);
  if (status.ok()) return 0;
  if (!IsUsageError(status)) {
    std::cerr << status << "\n";
    return 1;
  }
  std::fprintf(stderr, "%s\nusage:\n",
               status.message().substr(kUsageTag.size()).c_str());
  PrintUsage(*command);
  return 2;
}
