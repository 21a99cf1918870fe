// Hot-path performance-regression suite (ISSUE 2, extended by ISSUE 7).
//
// Times the ingest-to-shed pipeline stages — edge-list load, CSR build,
// betweenness ranking (classic and hybrid fast path), CRR and BM2 reduction —
// on generated R-MAT and Barabási–Albert graphs at two sizes, and emits
// machine-readable medians to BENCH_hotpath.json. tools/compare_bench.py
// diffs two such files and flags >10% regressions; .github/workflows/ci.yml
// runs the --smoke variant on every push.
//
// Every op gets one untimed warm-up iteration so the first timed sample does
// not pay one-off costs (page faults, lazy allocations) that later samples
// skip. The (crr_reduce, crr_reduce_traced) observability-overhead pair is
// interleaved within each round — bare, traced, bare, traced — so slow drift
// (frequency scaling, cache pollution from other ops) lands on both series
// equally instead of inverting the pair.
//
// Beyond timings the suite enforces two quality gates in-process:
//   - the hybrid kernel must produce bit-identical exact scores to the
//     classic kernel (cheap, once per run);
//   - the fast-ranking CRR path (hybrid kernel + adaptive waves) must keep a
//     set of edges that overlaps the classic full-ranking CRR at least as
//     well as classic CRR overlaps a reseeded rerun of itself (the
//     self-overlap ceiling, same pattern as bench_dist_fleet), minus a small
//     noise margin.
//
// Usage:
//   bench_perf_suite [--out=BENCH_hotpath.json] [--repeats=5] [--smoke]
//                    [--rev=<git sha>] [--p=0.5]
//
// --smoke shrinks the graphs so the whole suite finishes in seconds (CI);
// --rev defaults to $EDGESHED_GIT_REV, then "unknown".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "analytics/betweenness.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "eval/flags.h"
#include "graph/edge_list_io.h"
#include "graph/generators/generators.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace edgeshed::bench {
namespace {

struct BenchResult {
  std::string graph;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  std::string op;
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  /// Adaptive-wave count for ranking ops; -1 means not applicable.
  int64_t waves = -1;
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

BenchResult MakeResult(const std::string& graph_name, const graph::Graph& g,
                       const std::string& op,
                       const std::vector<double>& samples) {
  BenchResult result;
  result.graph = graph_name;
  result.nodes = g.NumNodes();
  result.edges = g.NumEdges();
  result.op = op;
  result.median_seconds = Median(samples);
  result.min_seconds = *std::min_element(samples.begin(), samples.end());
  result.max_seconds = *std::max_element(samples.begin(), samples.end());
  std::printf("  %-24s %-24s median=%.4fs min=%.4fs max=%.4fs\n",
              graph_name.c_str(), op.c_str(), result.median_seconds,
              result.min_seconds, result.max_seconds);
  return result;
}

/// Times `body` `repeats` times (after one untimed warm-up) and records
/// median/min/max under `op`. Returns a reference to the recorded result so
/// callers can annotate it (wave counts).
template <typename Body>
BenchResult& TimeOp(const std::string& graph_name, const graph::Graph& g,
                    const std::string& op, int repeats, Body&& body,
                    std::vector<BenchResult>* results) {
  body();  // warm-up, untimed
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    body();
    samples.push_back(watch.ElapsedSeconds());
  }
  results->push_back(MakeResult(graph_name, g, op, samples));
  return results->back();
}

/// Times an overhead pair by interleaving the two bodies within each round:
/// base, instrumented, base, instrumented. Any monotone environmental drift
/// across the run is shared by both series, so the pair's ratio reflects the
/// instrumentation cost rather than which series happened to run second.
template <typename BaseBody, typename InstrumentedBody>
void TimeOpPair(const std::string& graph_name, const graph::Graph& g,
                const std::string& base_op, const std::string& instrumented_op,
                int repeats, BaseBody&& base, InstrumentedBody&& instrumented,
                std::vector<BenchResult>* results) {
  base();          // warm-up, untimed
  instrumented();  // warm-up, untimed
  std::vector<double> base_samples;
  std::vector<double> instrumented_samples;
  base_samples.reserve(static_cast<size_t>(repeats));
  instrumented_samples.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    {
      Stopwatch watch;
      base();
      base_samples.push_back(watch.ElapsedSeconds());
    }
    {
      Stopwatch watch;
      instrumented();
      instrumented_samples.push_back(watch.ElapsedSeconds());
    }
  }
  results->push_back(MakeResult(graph_name, g, base_op, base_samples));
  results->push_back(
      MakeResult(graph_name, g, instrumented_op, instrumented_samples));
}

/// Raw (shuffled, un-canonicalized) edge soup for the CSR-build benchmark,
/// so GraphBuilder::Build sees realistic messy input.
std::vector<graph::Edge> ShuffledRawEdges(const graph::Graph& g,
                                          uint64_t seed) {
  std::vector<graph::Edge> raw(g.edges().begin(), g.edges().end());
  Rng rng(seed);
  rng.Shuffle(&raw);
  for (size_t i = 0; i < raw.size(); i += 2) {
    std::swap(raw[i].u, raw[i].v);  // exercise canonicalization
  }
  return raw;
}

/// |a ∩ b| / |a| over kept-edge id sets.
double KeptOverlap(const std::vector<graph::EdgeId>& a,
                   const std::vector<graph::EdgeId>& b) {
  if (a.empty()) return 1.0;
  std::unordered_set<graph::EdgeId> set_a(a.begin(), a.end());
  size_t hits = 0;
  for (graph::EdgeId e : b) hits += set_a.count(e);
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

/// The sampling level both ranking ops and both e2e CRR variants share, so
/// classic-vs-hybrid and full-vs-fast comparisons are apples to apples.
analytics::BetweennessOptions BenchSampling() {
  analytics::BetweennessOptions options;
  options.exact_node_threshold = 1024;
  options.sample_sources = 96;
  return options;
}

void BenchGraph(const std::string& name, const graph::Graph& g, int repeats,
                double p, std::vector<BenchResult>* results) {
  std::printf("%s: %llu nodes, %llu edges\n", name.c_str(),
              static_cast<unsigned long long>(g.NumNodes()),
              static_cast<unsigned long long>(g.NumEdges()));

  // --- load_edge_list: full ingest (read + parse + remap + CSR build). ---
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/edgeshed_bench_" + name + ".txt";
  Status save = graph::SaveEdgeList(g, path);
  EDGESHED_CHECK(save.ok()) << save.ToString();
  TimeOp(name, g, "load_edge_list", repeats,
         [&]() {
           auto loaded = graph::LoadEdgeList(path);
           EDGESHED_CHECK(loaded.ok()) << loaded.status().ToString();
           EDGESHED_CHECK_EQ(loaded->graph.NumEdges(), g.NumEdges());
         },
         results);
  std::remove(path.c_str());

  // --- csr_build: GraphBuilder::Build on shuffled raw edges. ---
  const std::vector<graph::Edge> raw = ShuffledRawEdges(g, /*seed=*/7);
  TimeOp(name, g, "csr_build", repeats,
         [&]() {
           graph::GraphBuilder builder;
           builder.ReserveEdges(raw.size());
           for (const graph::Edge& e : raw) builder.AddEdge(e.u, e.v);
           graph::Graph built = builder.Build();
           EDGESHED_CHECK_EQ(built.NumEdges(), g.NumEdges());
         },
         results);

  // --- betweenness_rank: classic single-pass Brandes over every sampled
  // source + full edge ranking sort. The historical baseline series. ---
  analytics::BetweennessOptions classic = BenchSampling();
  classic.kernel = analytics::BetweennessOptions::Kernel::kClassic;
  TimeOp(name, g, "betweenness_rank", repeats,
         [&]() {
           auto ranked = analytics::EdgesByBetweennessDescending(g, classic);
           EDGESHED_CHECK_EQ(ranked.size(), g.NumEdges());
         },
         results);

  // --- betweenness_rank_hybrid: the ranking fast path — direction-
  // optimizing kernel plus adaptive pivot waves — at the same sampling
  // level. CI pairs this against betweenness_rank so the fast path can
  // never silently regress past the classic kernel. ---
  analytics::BetweennessOptions fast = BenchSampling();
  const analytics::BetweennessOptions fast_defaults =
      analytics::BetweennessOptions::FastRanking();
  fast.kernel = fast_defaults.kernel;
  fast.hybrid_alpha = fast_defaults.hybrid_alpha;
  fast.wave_size = fast_defaults.wave_size;
  fast.wave_stability = fast_defaults.wave_stability;
  fast.wave_top_k = fast_defaults.wave_top_k;
  uint64_t hybrid_waves = 0;
  BenchResult& hybrid_result =
      TimeOp(name, g, "betweenness_rank_hybrid", repeats,
             [&]() {
               analytics::BetweennessScores scores =
                   analytics::Betweenness(g, fast);
               EDGESHED_CHECK_EQ(scores.edge.size(), g.NumEdges());
               hybrid_waves = scores.waves;
             },
             results);
  hybrid_result.waves = static_cast<int64_t>(hybrid_waves);

  // --- crr_reduce / crr_reduce_traced: random init isolates the Phase-2
  // swap loop (ranking is timed separately above). The traced variant wraps
  // the same reduction in a live Tracer span and typed-metrics recording,
  // mirroring what the service layer (JobScheduler) adds per job; the pair
  // feeds tools/compare_bench.py --overhead-pair. Interleaved so drift does
  // not invert the comparison. ---
  core::CrrOptions crr_options;
  crr_options.init_mode = core::CrrOptions::InitMode::kRandom;
  crr_options.seed = 42;
  const core::Crr crr(crr_options);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Counter* traced_jobs = metrics.GetCounter("bench.jobs");
  obs::LatencySeries* traced_seconds = metrics.GetLatency("bench.run_seconds");
  TimeOpPair(name, g, "crr_reduce", "crr_reduce_traced", repeats,
             [&]() {
               auto result = crr.Reduce(g, p);
               EDGESHED_CHECK(result.ok()) << result.status().ToString();
             },
             [&]() {
               obs::Span span = obs::Tracer::StartSpan(&tracer, "run");
               span.Annotate("graph", name);
               auto result = crr.Reduce(g, p);
               EDGESHED_CHECK(result.ok()) << result.status().ToString();
               span.Annotate("ok", "true");
               span.End();
               traced_seconds->Record(result->reduction_seconds);
               traced_jobs->Increment();
             },
             results);

  // --- crr_reduce_e2e: the full reduction a service job pays on a rank-
  // cache miss — Phase-1 betweenness ranking (fast path) plus the Phase-2
  // swap loop. This is the series the ISSUE-7 >5x gate reads. ---
  core::CrrOptions e2e_options;
  e2e_options.seed = 42;
  e2e_options.betweenness = fast;
  const core::Crr crr_e2e(e2e_options);
  std::vector<graph::EdgeId> fast_kept;
  TimeOp(name, g, "crr_reduce_e2e", repeats,
         [&]() {
           auto result = crr_e2e.Reduce(g, p);
           EDGESHED_CHECK(result.ok()) << result.status().ToString();
           fast_kept = std::move(result->kept_edges);
         },
         results);

  // --- bm2_reduce. ---
  const core::Bm2 bm2;
  TimeOp(name, g, "bm2_reduce", repeats,
         [&]() {
           auto result = bm2.Reduce(g, p);
           EDGESHED_CHECK(result.ok()) << result.status().ToString();
         },
         results);

  // --- Preservation-quality gate for the fast path (not a timed series).
  // Classic full-ranking CRR is the reference; a reseeded classic run gives
  // the self-overlap ceiling — CRR's own seed sensitivity. The fast path
  // must overlap the reference at least that well, minus a noise margin. ---
  core::CrrOptions reference_options;
  reference_options.seed = 42;
  reference_options.betweenness = classic;
  auto reference = core::Crr(reference_options).Reduce(g, p);
  EDGESHED_CHECK(reference.ok()) << reference.status().ToString();
  core::CrrOptions reseeded_options = reference_options;
  reseeded_options.seed = 43;
  auto reseeded = core::Crr(reseeded_options).Reduce(g, p);
  EDGESHED_CHECK(reseeded.ok()) << reseeded.status().ToString();
  const double ceiling =
      KeptOverlap(reference->kept_edges, reseeded->kept_edges);
  const double fast_overlap = KeptOverlap(reference->kept_edges, fast_kept);
  std::printf("  %-24s kept-overlap fast=%.4f ceiling=%.4f\n", name.c_str(),
              fast_overlap, ceiling);
  EDGESHED_CHECK_GE(fast_overlap, ceiling - 0.05)
      << "fast-ranking CRR lost preservation quality on " << name;
}

/// The hybrid kernel promises bit-identical scores to the classic kernel;
/// a score drift would silently change every ranking the fast path emits,
/// so the suite re-verifies the contract on every run.
void CheckHybridMatchesClassic() {
  Rng rng(11);
  graph::Graph g = graph::BarabasiAlbert(600, 4, rng);
  analytics::BetweennessOptions classic = analytics::BetweennessOptions::Exact();
  classic.kernel = analytics::BetweennessOptions::Kernel::kClassic;
  analytics::BetweennessOptions hybrid = classic;
  hybrid.kernel = analytics::BetweennessOptions::Kernel::kHybrid;
  const analytics::BetweennessScores a = analytics::Betweenness(g, classic);
  const analytics::BetweennessScores b = analytics::Betweenness(g, hybrid);
  for (size_t i = 0; i < a.node.size(); ++i) {
    EDGESHED_CHECK(a.node[i] == b.node[i]) << "node score drift at " << i;
  }
  for (size_t i = 0; i < a.edge.size(); ++i) {
    EDGESHED_CHECK(a.edge[i] == b.edge[i]) << "edge score drift at " << i;
  }
  std::printf("hybrid kernel bit-identical to classic on BA(600,4)\n");
}

void WriteJson(const std::string& path, const std::string& rev, int repeats,
               const std::vector<BenchResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  EDGESHED_CHECK(out != nullptr) << "cannot write " << path;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"edgeshed-bench-hotpath-v1\",\n");
  std::fprintf(out, "  \"git_rev\": \"%s\",\n", rev.c_str());
  std::fprintf(out, "  \"threads\": %d,\n", DefaultThreadCount());
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"graph\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"op\": \"%s\", \"median_seconds\": %.6f, "
                 "\"min_seconds\": %.6f, \"max_seconds\": %.6f",
                 r.graph.c_str(), static_cast<unsigned long long>(r.nodes),
                 static_cast<unsigned long long>(r.edges), r.op.c_str(),
                 r.median_seconds, r.min_seconds, r.max_seconds);
    if (r.waves >= 0) {
      std::fprintf(out, ", \"waves\": %lld",
                   static_cast<long long>(r.waves));
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu series, threads=%d, rev=%s)\n", path.c_str(),
              results.size(), DefaultThreadCount(), rev.c_str());
}

int Main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_hotpath.json");
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5).value());
  const bool smoke = flags.GetBool("smoke", false);
  const double p = flags.GetDouble("p", 0.5).value();
  const char* rev_env = std::getenv("EDGESHED_GIT_REV");
  const std::string rev =
      flags.GetString("rev", rev_env != nullptr ? rev_env : "unknown");

  std::printf("edgeshed hot-path perf suite: threads=%d repeats=%d%s\n",
              DefaultThreadCount(), repeats, smoke ? " (smoke)" : "");

  CheckHybridMatchesClassic();

  // Two families, two sizes each; smoke shrinks everything so CI stays in
  // seconds. R-MAT stands in for skewed social graphs, BA for heavy-tailed
  // collaboration networks (DESIGN.md §3).
  std::vector<BenchResult> results;
  {
    Rng rng(1);
    graph::Graph g = smoke ? graph::RMat(10, 8, 0.57, 0.19, 0.19, rng)
                           : graph::RMat(13, 16, 0.57, 0.19, 0.19, rng);
    BenchGraph(smoke ? "rmat_s10" : "rmat_s13", g, repeats, p, &results);
  }
  {
    Rng rng(2);
    graph::Graph g = smoke ? graph::RMat(12, 8, 0.57, 0.19, 0.19, rng)
                           : graph::RMat(15, 16, 0.57, 0.19, 0.19, rng);
    BenchGraph(smoke ? "rmat_s12" : "rmat_s15", g, repeats, p, &results);
  }
  {
    Rng rng(3);
    graph::Graph g = smoke ? graph::BarabasiAlbert(4000, 6, rng)
                           : graph::BarabasiAlbert(20000, 8, rng);
    BenchGraph(smoke ? "ba_4k" : "ba_20k", g, repeats, p, &results);
  }
  {
    Rng rng(4);
    graph::Graph g = smoke ? graph::BarabasiAlbert(12000, 6, rng)
                           : graph::BarabasiAlbert(80000, 8, rng);
    BenchGraph(smoke ? "ba_12k" : "ba_80k", g, repeats, p, &results);
  }

  WriteJson(out, rev, repeats, results);
  return 0;
}

}  // namespace
}  // namespace edgeshed::bench

int main(int argc, char** argv) { return edgeshed::bench::Main(argc, argv); }
