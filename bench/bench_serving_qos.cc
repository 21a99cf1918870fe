// Serving-QoS load-test bench (ISSUE 8, DESIGN.md §13).
//
// Closed-loop load against one in-process RpcServer + JobScheduler wired
// exactly like `edgeshed serve --tenants=gold:4,bronze:1 --degrade`, in
// three phases:
//
//   1. Fairness: N client threads per tenant (gold weight 4, bronze weight
//      1) each run a closed loop of Shed-with-wait RPCs over a persistent
//      Channel for a fixed wall-clock window against a saturated 2-worker
//      scheduler. Reported: per-tenant throughput and the achieved
//      gold/bronze ratio (target: the 4.0 weight ratio).
//   2. Overload + degradation: 2x max_inflight concurrent CRR requests hit
//      a degrade-enabled server with one scheduler worker. Reported: OK /
//      rejected / degraded counts and the median latency. The acceptance
//      bar is zero client-visible ResourceExhausted — pressure is answered
//      with a recorded cheaper tier, not an error.
//   3. No-pressure latency: one client, sequential Shed-with-wait requests
//      against an idle server; p50/p95/p99 from the server's
//      `net.rpc_seconds` log2 histogram (obs::LatencyQuantileSeconds).
//
// Emits machine-readable rows to BENCH_serving.json (schema
// edgeshed-bench-serving-v1, same row shape as BENCH_hotpath.json) so
// tools/compare_bench.py can diff two runs and gate the latency
// percentiles.
//
// Usage:
//   bench_serving_qos [--out=BENCH_serving.json] [--smoke] [--seconds=3]
//                     [--clients=4] [--latency_jobs=60] [--method=crr]
//                     [--rev=<git sha>]
//
// --smoke shrinks the graph and the windows so CI finishes in seconds;
// --rev defaults to $EDGESHED_GIT_REV, then "unknown".

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "eval/flags.h"
#include "graph/generators/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

namespace edgeshed::bench {
namespace {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

struct ServingResult {
  std::string graph;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  std::string op;
  double median_seconds = 0.0;
  // Phase-specific extras; negative = absent from the JSON row.
  double jobs_per_sec = -1.0;
  int64_t ok = -1;
  int64_t rejected = -1;
  int64_t degraded = -1;
};

/// One in-process serving stack wired like `edgeshed serve`.
struct QosServer {
  QosServer(const graph::Graph& g,
            service::JobScheduler::Options scheduler_options,
            net::RpcServerOptions server_options) {
    store = std::make_unique<service::GraphStore>(
        service::GraphStoreOptions{}, &metrics);
    Status registered = store->Register(
        "bench", [g] { return StatusOr<graph::Graph>(g); });
    EDGESHED_CHECK(registered.ok()) << registered.ToString();
    scheduler = std::make_unique<service::JobScheduler>(
        store.get(), &metrics, scheduler_options);
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

service::JobScheduler::Options TwoTenantScheduler(int workers,
                                                  bool degrade) {
  service::JobScheduler::Options options;
  options.workers = workers;
  options.tenants["gold"] = {/*weight=*/4, /*max_running=*/0};
  options.tenants["bronze"] = {/*weight=*/1, /*max_running=*/0};
  options.degrade.enabled = degrade;
  return options;
}

net::RpcClientOptions ClientOptions(int port) {
  net::RpcClientOptions options;
  options.port = port;
  options.max_attempts = 1;  // the bench counts raw outcomes, no retries
  return options;
}

/// Per-thread closed-loop worker state for the fairness phase.
struct LoopCounters {
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> rejected{0};
  std::atomic<int64_t> failed{0};
};

int Main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_serving.json");
  const bool smoke = flags.GetBool("smoke", false);
  // The fairness window needs enough completed jobs for the DRR ratio to
  // wash out the FCFS warmup while the queues first fill; on the full-size
  // graph a CRR job costs ~0.5s of worker time, so 10s ~= 40+ completions.
  const double seconds =
      static_cast<double>(flags.GetInt("seconds", smoke ? 1 : 10).value());
  const int clients = static_cast<int>(flags.GetInt("clients", 4).value());
  const int latency_jobs =
      static_cast<int>(flags.GetInt("latency_jobs", smoke ? 20 : 60).value());
  const std::string method = flags.GetString("method", "crr");
  const char* rev_env = std::getenv("EDGESHED_GIT_REV");
  const std::string rev =
      flags.GetString("rev", rev_env != nullptr ? rev_env : "unknown");

  std::printf("edgeshed serving QoS bench: clients=%d/tenant window=%.0fs%s\n",
              clients, seconds, smoke ? " (smoke)" : "");

  Rng rng(1);
  const graph::Graph g = smoke ? graph::RMat(9, 8, 0.57, 0.19, 0.19, rng)
                               : graph::RMat(11, 8, 0.57, 0.19, 0.19, rng);
  const std::string graph_name = smoke ? "rmat_s9" : "rmat_s11";
  std::printf("%s: %llu nodes, %llu edges\n", graph_name.c_str(),
              static_cast<unsigned long long>(g.NumNodes()),
              static_cast<unsigned long long>(g.NumEdges()));

  std::vector<ServingResult> results;
  auto row = [&](const std::string& op) {
    ServingResult r;
    r.graph = graph_name;
    r.nodes = g.NumNodes();
    r.edges = g.NumEdges();
    r.op = op;
    return r;
  };

  // --- Phase 1: fairness under saturation. -------------------------------
  {
    net::RpcServerOptions server_options;
    server_options.max_inflight = static_cast<size_t>(4 * clients);
    server_options.dispatch_threads = 2 * clients + 2;
    service::JobScheduler::Options scheduler_options =
        TwoTenantScheduler(/*workers=*/2, /*degrade=*/false);
    // Fair-share arbitration only shows under backlog: with the rank cache
    // on, repeat CRR jobs on one dataset finish in microseconds and the
    // queues never fill. Off, every job re-ranks — service time dominates
    // the client round trip and the DRR weights become visible.
    scheduler_options.rank_cache_byte_budget = 0;
    QosServer qos(g, scheduler_options, server_options);

    const auto window =
        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000.0));
    const auto deadline = std::chrono::steady_clock::now() + window;
    LoopCounters gold_counts, bronze_counts;
    std::vector<std::thread> threads;
    Stopwatch watch;
    for (int tenant_idx = 0; tenant_idx < 2; ++tenant_idx) {
      const std::string tenant = tenant_idx == 0 ? "gold" : "bronze";
      LoopCounters* counts = tenant_idx == 0 ? &gold_counts : &bronze_counts;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, tenant, counts, tenant_idx, c] {
          net::RpcClient client(ClientOptions(qos.server->port()));
          net::RpcClient::Channel channel(&client);
          // Seeds are disjoint per thread so neither the result cache nor
          // coalescing can answer for a repeat — every loop is real work.
          uint64_t seed =
              1000000ull * static_cast<uint64_t>(tenant_idx * clients + c);
          while (std::chrono::steady_clock::now() < deadline) {
            net::ShedRequest request;
            request.dataset = "bench";
            request.method = method;
            request.p = 0.5;
            request.seed = ++seed;
            request.wait = true;
            request.deadline_ms = 30000;
            request.tenant = tenant;
            auto response = channel.Shed(request);
            if (response.ok()) {
              counts->ok.fetch_add(1, std::memory_order_relaxed);
            } else if (response.status().code() ==
                       StatusCode::kResourceExhausted) {
              counts->rejected.fetch_add(1, std::memory_order_relaxed);
            } else {
              counts->failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = watch.ElapsedSeconds();
    EDGESHED_CHECK(gold_counts.failed.load() == 0 &&
                   bronze_counts.failed.load() == 0)
        << "fairness phase saw non-overload failures";

    const double gold_tput =
        static_cast<double>(gold_counts.ok.load()) / elapsed;
    const double bronze_tput =
        static_cast<double>(bronze_counts.ok.load()) / elapsed;
    const double total_tput = gold_tput + bronze_tput;
    for (const auto& [name, tput, counts] :
         {std::tuple<std::string, double, LoopCounters*>{"gold", gold_tput,
                                                         &gold_counts},
          {"bronze", bronze_tput, &bronze_counts}}) {
      ServingResult r = row("fair_share_" + name + "_" + method);
      r.median_seconds = tput > 0.0 ? 1.0 / tput : 0.0;  // secs per job
      r.jobs_per_sec = tput;
      r.ok = counts->ok.load();
      r.rejected = counts->rejected.load();
      results.push_back(r);
      std::printf("  %-34s %.1f jobs/s (ok=%lld rejected=%lld)\n",
                  r.op.c_str(), tput, static_cast<long long>(r.ok),
                  static_cast<long long>(r.rejected));
    }
    // The DRR is work-conserving: a backlogged tenant is *guaranteed* its
    // weighted share, and capacity its closed-loop clients leave idle
    // (round-trip turnaround) is redistributed — so judge gold against its
    // 4/5 entitlement, not the raw gold/bronze ratio.
    const double gold_share = total_tput > 0.0 ? gold_tput / total_tput : 0.0;
    std::printf(
        "  fairness: gold share=%.0f%% (entitled 80%%), "
        "gold/bronze ratio=%.2f (weights 4:1)\n",
        100.0 * gold_share,
        bronze_tput > 0.0 ? gold_tput / bronze_tput : 0.0);
  }

  // --- Phase 2: overload answered by degradation, not rejection. ---------
  {
    net::RpcServerOptions server_options;
    server_options.max_inflight = 2;
    server_options.dispatch_threads = 2 * clients + 2;
    server_options.degrade_enabled = true;
    QosServer qos(g, TwoTenantScheduler(/*workers=*/1, /*degrade=*/true),
                  server_options);

    // 2x max_inflight concurrent requests per tenant pair: every one past
    // the soft cap is admitted under pressure instead of rejected.
    const int burst = static_cast<int>(2 * server_options.max_inflight);
    std::atomic<int64_t> ok{0}, rejected{0}, degraded{0};
    std::vector<double> latencies(static_cast<size_t>(2 * burst), 0.0);
    std::vector<std::thread> threads;
    for (int i = 0; i < 2 * burst; ++i) {
      threads.emplace_back([&, i] {
        net::RpcClient client(ClientOptions(qos.server->port()));
        net::ShedRequest request;
        request.dataset = "bench";
        request.method = method;
        request.p = 0.5;
        request.seed = 7000 + static_cast<uint64_t>(i);
        request.wait = true;
        request.deadline_ms = 30000;
        request.tenant = i % 2 == 0 ? "gold" : "bronze";
        Stopwatch watch;
        auto response = client.Shed(request);
        latencies[static_cast<size_t>(i)] = watch.ElapsedSeconds();
        if (response.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          if (response->result.degrade_kind != 0) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (response.status().code() ==
                   StatusCode::kResourceExhausted) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    ServingResult r = row("overload_2x_" + method);
    r.median_seconds = Median(latencies);
    r.ok = ok.load();
    r.rejected = rejected.load();
    r.degraded = degraded.load();
    results.push_back(r);
    std::printf(
        "  %-34s median=%.4fs ok=%lld rejected=%lld degraded=%lld\n",
        r.op.c_str(), r.median_seconds, static_cast<long long>(r.ok),
        static_cast<long long>(r.rejected),
        static_cast<long long>(r.degraded));
    EDGESHED_CHECK(rejected.load() == 0)
        << "degrade-enabled server rejected " << rejected.load()
        << " in-quota requests at 2x max_inflight";
    std::printf("  net.degraded_admitted=%llu net.degraded_applied=%llu\n",
                static_cast<unsigned long long>(
                    qos.metrics.CounterValue("net.degraded_admitted")),
                static_cast<unsigned long long>(
                    qos.metrics.CounterValue("net.degraded_applied")));
  }

  // --- Phase 3: single-tenant no-pressure latency percentiles. -----------
  {
    net::RpcServerOptions server_options;
    QosServer qos(g, TwoTenantScheduler(/*workers=*/2, /*degrade=*/false),
                  server_options);
    net::RpcClient client(ClientOptions(qos.server->port()));
    net::RpcClient::Channel channel(&client);
    for (int i = 0; i < latency_jobs; ++i) {
      net::ShedRequest request;
      request.dataset = "bench";
      request.method = method;
      request.p = 0.5;
      request.seed = 90000 + static_cast<uint64_t>(i);
      request.wait = true;
      request.deadline_ms = 30000;
      auto response = channel.Shed(request);
      EDGESHED_CHECK(response.ok()) << response.status().ToString();
    }
    const std::vector<uint64_t> buckets =
        qos.metrics.GetLatency("net.rpc_seconds")->BucketCounts();
    for (const auto& [tag, q] :
         {std::pair<std::string, double>{"p50", 0.50},
          {"p95", 0.95},
          {"p99", 0.99}}) {
      ServingResult r = row("shed_wait_" + tag + "_" + method);
      r.median_seconds = obs::LatencyQuantileSeconds(buckets, q);
      results.push_back(r);
      std::printf("  %-34s %.4fs\n", r.op.c_str(), r.median_seconds);
    }
  }

  std::FILE* json = std::fopen(out.c_str(), "w");
  EDGESHED_CHECK(json != nullptr) << "cannot write " << out;
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"schema\": \"edgeshed-bench-serving-v1\",\n");
  std::fprintf(json, "  \"git_rev\": \"%s\",\n", rev.c_str());
  std::fprintf(json, "  \"clients\": %d,\n", clients);
  std::fprintf(json, "  \"window_seconds\": %.0f,\n", seconds);
  std::fprintf(json, "  \"method\": \"%s\",\n", method.c_str());
  std::fprintf(json, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ServingResult& r = results[i];
    std::fprintf(json,
                 "    {\"graph\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"op\": \"%s\", \"median_seconds\": %.6f",
                 r.graph.c_str(), static_cast<unsigned long long>(r.nodes),
                 static_cast<unsigned long long>(r.edges), r.op.c_str(),
                 r.median_seconds);
    if (r.jobs_per_sec >= 0.0) {
      std::fprintf(json, ", \"jobs_per_sec\": %.3f", r.jobs_per_sec);
    }
    if (r.ok >= 0) {
      std::fprintf(json, ", \"ok\": %lld", static_cast<long long>(r.ok));
    }
    if (r.rejected >= 0) {
      std::fprintf(json, ", \"rejected\": %lld",
                   static_cast<long long>(r.rejected));
    }
    if (r.degraded >= 0) {
      std::fprintf(json, ", \"degraded\": %lld",
                   static_cast<long long>(r.degraded));
    }
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s (%zu series, rev=%s)\n", out.c_str(), results.size(),
              rev.c_str());
  return 0;
}

}  // namespace
}  // namespace edgeshed::bench

int main(int argc, char** argv) { return edgeshed::bench::Main(argc, argv); }
