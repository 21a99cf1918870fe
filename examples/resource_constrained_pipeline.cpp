// Resource-constrained pipeline (the paper's motivating setting): pick the
// edge-preservation ratio p from an explicit memory budget, reduce with the
// fast method (BM2), and run a batch of analyses that would be painful on
// the full graph. Demonstrates the "reduce once, analyze many times"
// amortization the paper argues for.
//
// Usage:
//   resource_constrained_pipeline [--budget_mb=8] [--dataset_scale=0.25]

#include <algorithm>
#include <cstdio>

#include "analytics/degree.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/bm2.h"
#include "eval/flags.h"
#include "graph/datasets.h"

using namespace edgeshed;

namespace {

/// Rough in-memory footprint of a CSR graph: two 64-bit adjacency/incidence
/// entries per edge direction plus offsets.
double GraphMegabytes(uint64_t nodes, uint64_t edges) {
  const double bytes = 8.0 * (static_cast<double>(nodes) + 1) +
                       (4.0 + 8.0) * 2.0 * static_cast<double>(edges) +
                       8.0 * static_cast<double>(edges);
  return bytes / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const double budget_mb = flags.GetDouble("budget_mb", 8.0).value();

  graph::DatasetOptions options;
  options.scale = flags.GetDouble("dataset_scale", 0.25).value();
  graph::Graph g =
      graph::MakeDataset(graph::DatasetId::kEmailEnron, options);

  const double full_mb = GraphMegabytes(g.NumNodes(), g.NumEdges());
  std::printf("input graph: %s nodes, %s edges (~%.1f MiB as CSR)\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str(), full_mb);
  std::printf("memory budget: %.1f MiB\n", budget_mb);

  // Choose p so the reduced graph fits the budget (clamped to the paper's
  // range [0.1, 0.9]).
  double p = std::clamp(budget_mb / full_mb, 0.1, 0.9);
  std::printf("chosen edge preservation ratio p = %.2f\n\n", p);

  core::Bm2 bm2;
  Stopwatch reduce_watch;
  auto reduction = bm2.Reduce(g, p);
  if (!reduction.ok()) {
    std::fprintf(stderr, "%s\n", reduction.status().ToString().c_str());
    return 1;
  }
  graph::Graph reduced = reduction->BuildReducedGraph(g);
  std::printf("BM2 reduced the graph to %s edges (~%.1f MiB) in %.3fs\n\n",
              FormatWithCommas(reduced.NumEdges()).c_str(),
              GraphMegabytes(reduced.NumNodes(), reduced.NumEdges()),
              reduce_watch.ElapsedSeconds());

  // Run the analysis batch on both graphs and compare wall time.
  auto run_batch = [](const graph::Graph& target) {
    Stopwatch watch;
    volatile double sink = 0.0;
    sink += analytics::PageRank(target)[0];
    sink += static_cast<double>(analytics::MaxDegree(target));
    analytics::DistanceProfileOptions distance_options;
    distance_options.sample_sources = 128;
    distance_options.exact_node_threshold = 1024;
    Histogram profile = analytics::DistanceProfile(target, distance_options);
    sink += analytics::HopPlotFraction(profile, 4);
    (void)sink;
    return watch.ElapsedSeconds();
  };

  const double full_seconds = run_batch(g);
  const double reduced_seconds = run_batch(reduced);
  std::printf("analysis batch (PageRank + degrees + distance profile):\n");
  std::printf("  full graph   : %8.3f s\n", full_seconds);
  std::printf("  reduced graph: %8.3f s  (%.1fx faster)\n", reduced_seconds,
              full_seconds / std::max(1e-9, reduced_seconds));
  std::printf("\nreduce once (%.3fs), then every further analysis pass "
              "enjoys the speedup.\n",
              reduction->reduction_seconds);
  return 0;
}
