// Sharded shed fleet bench (ISSUE 6, DESIGN.md §11).
//
// Measures the coordinated path against single-node shedding on one skewed
// R-MAT graph: for each streaming partitioner (hash, dbh, hdrf) and fleet
// width K in {2, 4}, K in-process RpcServer workers share a snapshot
// directory and a ShedCoordinator runs the full partition → snapshot →
// remote shed → merge pipeline. Reported per configuration:
//
//   - partition quality (balance factor, replication factor, cut vertices)
//   - end-to-end wall clock (median of --repeats) and speedup vs the
//     single-node reduction of the same method/p/seed
//   - kept-edge overlap |kept_dist ∩ kept_single| / target — the price the
//     fleet pays for shedding shards independently
//
// Emits machine-readable medians to BENCH_dist.json in the same shape as
// BENCH_hotpath.json so tools/compare_bench.py can diff two runs.
//
// Usage:
//   bench_dist_fleet [--out=BENCH_dist.json] [--repeats=3] [--smoke]
//                    [--rev=<git sha>] [--p=0.5,0.8] [--method=crr]
//
// --p takes a comma-separated list of preservation ratios; each produces a
// full table (op names carry a `_p50`-style suffix). Overlap is a function
// of p — tighter budgets amplify the cost of shard-local ranking — so the
// default sweeps a tight and a loose budget. --smoke shrinks the graph so
// CI finishes in seconds; --rev defaults to $EDGESHED_GIT_REV, then
// "unknown".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "dist/coordinator.h"
#include "dist/partitioner.h"
#include "eval/flags.h"
#include "graph/generators/generators.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

namespace edgeshed::bench {
namespace {

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

struct DistResult {
  std::string graph;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  std::string op;
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  // Partition quality and fidelity, absent (negative) for the single-node
  // baseline rows.
  double balance = -1.0;
  double replication = -1.0;
  double overlap = -1.0;
  double speedup = -1.0;
};

/// One in-process fleet worker wired like `edgeshed serve --shard_dir=DIR`.
struct Worker {
  explicit Worker(const std::string& shard_dir) {
    store = std::make_unique<service::GraphStore>(
        service::GraphStoreOptions{}, &metrics);
    service::InstallShardDirFallback(*store, shard_dir);
    service::JobScheduler::Options scheduler_options;
    scheduler_options.workers = 2;
    scheduler = std::make_unique<service::JobScheduler>(
        store.get(), &metrics, scheduler_options);
    net::RpcServerOptions server_options;
    server_options.output_dir = shard_dir;
    server = std::make_unique<net::RpcServer>(store.get(), scheduler.get(),
                                              &metrics, server_options);
    Status started = server->Start();
    EDGESHED_CHECK(started.ok()) << started.ToString();
  }

  obs::MetricsRegistry metrics;
  std::unique_ptr<service::GraphStore> store;
  std::unique_ptr<service::JobScheduler> scheduler;
  std::unique_ptr<net::RpcServer> server;
};

double Overlap(const std::vector<graph::EdgeId>& dist_kept,
               const std::vector<graph::EdgeId>& single_kept,
               uint64_t target) {
  std::vector<graph::EdgeId> sorted_single = single_kept;
  std::sort(sorted_single.begin(), sorted_single.end());
  std::vector<graph::EdgeId> common;
  std::set_intersection(dist_kept.begin(), dist_kept.end(),
                        sorted_single.begin(), sorted_single.end(),
                        std::back_inserter(common));
  return target == 0 ? 1.0
                     : static_cast<double>(common.size()) /
                           static_cast<double>(target);
}

int Main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_dist.json");
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3).value());
  const bool smoke = flags.GetBool("smoke", false);
  const std::string p_csv = flags.GetString("p", "0.5,0.8");
  std::vector<double> p_values;
  for (std::string_view token : StrSplit(p_csv, ',')) {
    const std::string entry(token);
    const double value = std::atof(entry.c_str());
    EDGESHED_CHECK(value > 0.0 && value < 1.0)
        << "--p entry '" << entry << "' must be in (0, 1)";
    p_values.push_back(value);
  }
  const std::string method = flags.GetString("method", "crr");
  const char* rev_env = std::getenv("EDGESHED_GIT_REV");
  const std::string rev =
      flags.GetString("rev", rev_env != nullptr ? rev_env : "unknown");

  std::printf("edgeshed dist fleet bench: threads=%d repeats=%d%s\n",
              DefaultThreadCount(), repeats, smoke ? " (smoke)" : "");

  Rng rng(1);
  const graph::Graph g = smoke
                             ? graph::RMat(11, 8, 0.57, 0.19, 0.19, rng)
                             : graph::RMat(13, 12, 0.57, 0.19, 0.19, rng);
  const std::string graph_name = smoke ? "rmat_s11" : "rmat_s13";
  std::printf("%s: %llu nodes, %llu edges\n", graph_name.c_str(),
              static_cast<unsigned long long>(g.NumNodes()),
              static_cast<unsigned long long>(g.NumEdges()));

  std::vector<DistResult> results;

  const char* tmpdir_env = std::getenv("TMPDIR");
  const std::string shard_dir =
      std::string(tmpdir_env != nullptr ? tmpdir_env : "/tmp") +
      "/edgeshed_bench_fleet";
  std::filesystem::create_directories(shard_dir);

  // Two method columns per table: the full stochastic method (timings, and
  // the raw overlap it can actually reach) and CRR's deterministic Phase-1
  // core `crr-rank` (the fidelity yardstick — any overlap lost there is the
  // partitioner's doing, not the method's rewiring randomness).
  const std::vector<std::string> methods =
      method == "crr" ? std::vector<std::string>{"crr", "crr-rank"}
                      : std::vector<std::string>{method};

  struct Config {
    double p;
    std::string m;
  };
  std::vector<Config> configs;
  for (const double p : p_values) {
    for (const std::string& m : methods) configs.push_back({p, m});
  }

  for (const auto& [p, m] : configs) {
    const std::string p_tag =
        StrFormat("p%02d", static_cast<int>(p * 100.0 + 0.5));
    // --- Single-node baseline: the same method/p/seed in one process. ---
    auto shedder = core::MakeShedderByName(m, /*seed=*/42);
    EDGESHED_CHECK(shedder.ok()) << shedder.status().ToString();
    std::vector<graph::EdgeId> single_kept;
    std::vector<double> single_samples;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch watch;
      auto reduced = (*shedder)->Reduce(g, p);
      EDGESHED_CHECK(reduced.ok()) << reduced.status().ToString();
      single_samples.push_back(watch.ElapsedSeconds());
      single_kept = std::move(reduced->kept_edges);
    }
    DistResult baseline;
    baseline.graph = graph_name;
    baseline.nodes = g.NumNodes();
    baseline.edges = g.NumEdges();
    baseline.op = "single_node_" + m + "_" + p_tag;
    baseline.median_seconds = Median(single_samples);
    baseline.min_seconds =
        *std::min_element(single_samples.begin(), single_samples.end());
    baseline.max_seconds =
        *std::max_element(single_samples.begin(), single_samples.end());
    results.push_back(baseline);
    std::printf("  %-34s median=%.4fs\n", baseline.op.c_str(),
                baseline.median_seconds);

    // --- Self-overlap ceiling: the same method at a different seed. Any
    // distributed overlap number can only be judged against this — a
    // stochastic method cannot overlap a differently-randomized run of
    // itself by more. ---
    {
      auto other = core::MakeShedderByName(m, /*seed=*/43);
      EDGESHED_CHECK(other.ok());
      auto reduced = (*other)->Reduce(g, p);
      EDGESHED_CHECK(reduced.ok()) << reduced.status().ToString();
      std::sort(reduced->kept_edges.begin(), reduced->kept_edges.end());
      DistResult ceiling;
      ceiling.graph = graph_name;
      ceiling.nodes = g.NumNodes();
      ceiling.edges = g.NumEdges();
      ceiling.op = "self_overlap_" + m + "_" + p_tag;
      ceiling.balance = 0.0;  // marks the extended fields as present
      ceiling.replication = 0.0;
      ceiling.speedup = 0.0;
      ceiling.overlap = Overlap(reduced->kept_edges, single_kept,
                                reduced->kept_edges.size());
      results.push_back(ceiling);
      std::printf("  %-34s overlap=%.4f (seed 42 vs 43)\n",
                  ceiling.op.c_str(), ceiling.overlap);
    }

    for (const dist::PartitionerKind kind :
         {dist::PartitionerKind::kHash, dist::PartitionerKind::kDbh,
          dist::PartitionerKind::kHdrf}) {
      const std::string kind_name(dist::PartitionerKindToString(kind));
      for (const int shards : {2, 4}) {
        // A fresh fleet per configuration so worker-side caches never
        // carry timings across rows.
        std::vector<std::unique_ptr<Worker>> workers;
        std::vector<dist::WorkerAddress> addresses;
        for (int i = 0; i < shards; ++i) {
          workers.push_back(std::make_unique<Worker>(shard_dir));
          addresses.push_back({"127.0.0.1", workers.back()->server->port()});
        }

        dist::CoordinatorOptions options;
        options.workers = addresses;
        options.partition.kind = kind;
        options.partition.shards = shards;
        options.method = m;
        options.p = p;
        options.seed = 42;
        options.shard_dir = shard_dir;
        options.poll_interval = std::chrono::milliseconds(5);

        std::vector<double> samples;
        dist::DistShedResult last;
        for (int r = 0; r < repeats; ++r) {
          // Vary the job tag per repeat so the scheduler's result cache
          // never answers for a repeat (timings stay honest).
          dist::CoordinatorOptions run_options = options;
          run_options.job_tag =
              StrFormat("bench_%s_%s_k%d_%s_r%d", m.c_str(),
                        kind_name.c_str(), shards, p_tag.c_str(), r);
          dist::ShedCoordinator coordinator(run_options);
          Stopwatch watch;
          auto result = coordinator.Run(g);
          EDGESHED_CHECK(result.ok()) << result.status().ToString();
          samples.push_back(watch.ElapsedSeconds());
          for (const dist::ShardOutcome& shard : result->shards) {
            EDGESHED_CHECK(shard.remote_ok) << "shard fell back in bench";
          }
          last = std::move(*result);
        }

        DistResult row;
        row.graph = graph_name;
        row.nodes = g.NumNodes();
        row.edges = g.NumEdges();
        row.op = StrFormat("coordinate_%s_%s_k%d_%s", m.c_str(),
                           kind_name.c_str(), shards, p_tag.c_str());
        row.median_seconds = Median(samples);
        row.min_seconds = *std::min_element(samples.begin(), samples.end());
        row.max_seconds = *std::max_element(samples.begin(), samples.end());
        row.balance = last.partition_stats.balance_factor;
        row.replication = last.partition_stats.replication_factor;
        row.overlap =
            Overlap(last.kept_edges, single_kept, last.target_edges);
        row.speedup = baseline.median_seconds / row.median_seconds;
        results.push_back(row);
        std::printf(
            "  %-34s median=%.4fs speedup=%.2fx overlap=%.4f "
            "balance=%.4f replication=%.4f\n",
            row.op.c_str(), row.median_seconds, row.speedup, row.overlap,
            row.balance, row.replication);
      }
    }
  }

  std::FILE* json = std::fopen(out.c_str(), "w");
  EDGESHED_CHECK(json != nullptr) << "cannot write " << out;
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"schema\": \"edgeshed-bench-dist-v1\",\n");
  std::fprintf(json, "  \"git_rev\": \"%s\",\n", rev.c_str());
  std::fprintf(json, "  \"threads\": %d,\n", DefaultThreadCount());
  std::fprintf(json, "  \"repeats\": %d,\n", repeats);
  std::fprintf(json, "  \"method\": \"%s\",\n", method.c_str());
  std::fprintf(json, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const DistResult& r = results[i];
    std::fprintf(json,
                 "    {\"graph\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"op\": \"%s\", \"median_seconds\": %.6f, "
                 "\"min_seconds\": %.6f, \"max_seconds\": %.6f",
                 r.graph.c_str(), static_cast<unsigned long long>(r.nodes),
                 static_cast<unsigned long long>(r.edges), r.op.c_str(),
                 r.median_seconds, r.min_seconds, r.max_seconds);
    if (r.balance >= 0.0) {
      std::fprintf(json,
                   ", \"balance_factor\": %.6f, \"replication_factor\": "
                   "%.6f, \"kept_overlap\": %.6f, \"speedup\": %.6f",
                   r.balance, r.replication, r.overlap, r.speedup);
    }
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s (%zu series, rev=%s)\n", out.c_str(), results.size(),
              rev.c_str());
  std::error_code ec;
  std::filesystem::remove_all(shard_dir, ec);
  return 0;
}

}  // namespace
}  // namespace edgeshed::bench

int main(int argc, char** argv) { return edgeshed::bench::Main(argc, argv); }
