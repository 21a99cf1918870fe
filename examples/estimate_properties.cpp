// Property estimation (the abstract's workflow): reduce once, then answer
// questions about the ORIGINAL graph from the reduced one via the
// estimate/ module — without ever touching the original again.
//
// Usage:
//   estimate_properties [--p=0.5] [--scale=0.5] [--method=bm2|crr|random]

#include <cstdio>
#include <memory>

#include "analytics/approx_neighborhood.h"
#include "analytics/clustering.h"
#include "analytics/degree.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "core/random_shedding.h"
#include "common/strings.h"
#include "estimate/estimators.h"
#include "eval/flags.h"
#include "graph/datasets.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const double p = flags.GetDouble("p", 0.5).value();
  const std::string method = flags.GetString("method", "bm2");

  graph::DatasetOptions options;
  options.scale = flags.GetDouble("scale", 0.5).value();
  graph::Graph g = graph::MakeDataset(graph::DatasetId::kCaGrQc, options);

  std::unique_ptr<core::EdgeShedder> shedder;
  if (method == "crr") {
    shedder = std::make_unique<core::Crr>();
  } else if (method == "random") {
    shedder = std::make_unique<core::RandomShedding>();
  } else {
    shedder = std::make_unique<core::Bm2>();
  }
  auto result = shedder->Reduce(g, p);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  graph::Graph reduced = result->BuildReducedGraph(g);
  std::printf("reduced with %s at p = %.2f: %s of %s edges kept\n\n",
              shedder->name().c_str(), p,
              FormatWithCommas(reduced.NumEdges()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());

  // Ground truth (a user under resource constraints would not compute
  // these — we do, to show the estimators' accuracy).
  auto triangles_of = [](const graph::Graph& target) {
    auto per_node = analytics::TrianglesPerNode(target);
    uint64_t total = 0;
    for (uint64_t t : per_node) total += t;
    return static_cast<double>(total) / 3.0;
  };
  const double true_edges = static_cast<double>(g.NumEdges());
  const double true_avg_degree = g.AverageDegree();
  const double true_triangles = triangles_of(g);
  const double true_diameter =
      analytics::ApproximateNeighborhoodFunction(g).EffectiveDiameter();

  std::printf("%-28s %14s %14s %10s\n", "property", "estimated", "true",
              "ratio");
  auto row = [](const char* name, double estimated, double truth) {
    std::printf("%-28s %14.2f %14.2f %9.3f\n", name, estimated, truth,
                truth == 0 ? 0.0 : estimated / truth);
  };
  row("|E|", estimate::EstimatedEdgeCount(reduced, p), true_edges);
  row("average degree", estimate::EstimatedAverageDegree(reduced, p),
      true_avg_degree);
  row("triangles (p^-3)", estimate::EstimatedTriangleCount(reduced, p),
      true_triangles);
  row("effective diameter (raw G')",
      analytics::ApproximateNeighborhoodFunction(reduced).EffectiveDiameter(),
      true_diameter);

  Histogram truth_hist = analytics::DegreeDistribution(g);
  Histogram smoothed =
      estimate::EstimatedDegreeHistogramSmoothed(reduced, p);
  std::printf("\ndegree-distribution KS distance (smoothed estimator): "
              "%.4f\n",
              Histogram::KsDistance(truth_hist, smoothed));
  std::printf("\nnote: the p^-3 triangle correction assumes independent "
              "edge survival;\nselective shedders (crr/bm2) keep triangles "
              "at above-p^3 rates, so prefer\n--method=random when unbiased "
              "motif counts are the goal.\n");
  return 0;
}
