// Reproduces Fig. 8: node betweenness centrality versus vertex degree,
// original vs reduced graphs at p = 0.5. For each original-degree bucket we
// report the mean betweenness of its vertices (reduced-graph betweenness
// rescaled by 1/p^2 for CRR/BM2, since both path endpoints survive with
// probability ~p; UDS maps each vertex to its supernode's betweenness).
//
// Paper shape to reproduce: CRR/BM2 estimate low-degree vertices well and
// get noisier at high degrees, but beat UDS across the board.

#include <cmath>
#include <map>

#include "bench/bench_util.h"

using namespace edgeshed;

namespace {

/// Geometric degree buckets: 1-1, 2-3, 4-7, 8-15, ...
int64_t Bucket(uint64_t degree) {
  int64_t bucket = 0;
  while (degree > 1) {
    degree >>= 1;
    ++bucket;
  }
  return bucket;
}

std::map<int64_t, double> MeanByDegreeBucket(
    const graph::Graph& original, const std::vector<double>& value_per_node) {
  std::map<int64_t, std::pair<double, uint64_t>> sums;
  for (graph::NodeId u = 0; u < original.NumNodes(); ++u) {
    if (original.Degree(u) == 0) continue;
    auto& [sum, count] = sums[Bucket(original.Degree(u))];
    sum += value_per_node[u];
    ++count;
  }
  std::map<int64_t, double> means;
  for (const auto& [bucket, entry] : sums) {
    means[bucket] = entry.first / static_cast<double>(entry.second);
  }
  return means;
}

}  // namespace

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const double p = flags.GetDouble("p", 0.5).value();
  bench::PrintBenchHeader("Fig. 8 — betweenness centrality vs vertex degree",
                          config);
  analytics::BetweennessOptions betweenness =
      bench::BenchBetweenness(config.full);

  struct Target {
    graph::DatasetId id;
    double scale;
  };
  const Target targets[] = {
      {graph::DatasetId::kCaGrQc, 0.5},
      {graph::DatasetId::kCaHepPh, 0.1},
      {graph::DatasetId::kEmailEnron, 0.05},
  };
  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);

  for (const Target& target : targets) {
    graph::Graph g = bench::LoadScaled(target.id, config, target.scale);
    const auto& spec = graph::GetDatasetSpec(target.id);
    auto original_scores = analytics::Betweenness(g, betweenness).node;

    auto crr_result = crr.Reduce(g, p);
    auto bm2_result = bm2.Reduce(g, p);
    auto uds_result = uds.Summarize(g, p);
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    EDGESHED_CHECK(uds_result.ok());

    const double rescale = 1.0 / (p * p);
    auto scale_scores = [&](const graph::Graph& reduced) {
      auto scores = analytics::Betweenness(reduced, betweenness).node;
      for (double& s : scores) s *= rescale;
      return scores;
    };
    auto crr_scores = scale_scores(crr_result->BuildReducedGraph(g));
    auto bm2_scores = scale_scores(bm2_result->BuildReducedGraph(g));
    // UDS: each vertex inherits its supernode's betweenness.
    auto summary_scores =
        analytics::Betweenness(uds_result->summary_graph, betweenness).node;
    std::vector<double> uds_scores(g.NumNodes());
    for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
      uds_scores[u] = summary_scores[uds_result->supernode_of[u]];
    }

    auto original_mean = MeanByDegreeBucket(g, original_scores);
    auto crr_mean = MeanByDegreeBucket(g, crr_scores);
    auto bm2_mean = MeanByDegreeBucket(g, bm2_scores);
    auto uds_mean = MeanByDegreeBucket(g, uds_scores);

    TablePrinter table(spec.name + ", p = " + FormatDouble(p, 1) +
                       " — mean betweenness by original-degree bucket");
    table.SetHeader({"degree bucket", "original", "CRR est.", "BM2 est.",
                     "UDS est."});
    for (const auto& [bucket, value] : original_mean) {
      const int64_t lo = int64_t{1} << bucket;
      const int64_t hi = (int64_t{1} << (bucket + 1)) - 1;
      table.AddRow({std::to_string(lo) + "-" + std::to_string(hi),
                    FormatDouble(value, 1),
                    FormatDouble(crr_mean.contains(bucket) ? crr_mean[bucket]
                                                           : 0.0, 1),
                    FormatDouble(bm2_mean.contains(bucket) ? bm2_mean[bucket]
                                                           : 0.0, 1),
                    FormatDouble(uds_mean.contains(bucket) ? uds_mean[bucket]
                                                           : 0.0, 1)});
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Fig. 8): CRR/BM2 track low-degree "
              "betweenness accurately, noisier at high degrees; UDS "
              "deviates everywhere due to supernode aggregation.\n");
  return 0;
}
