// Streaming scenario (extension, DESIGN.md §6 / paper §I edge computing):
// edges arrive one at a time on a constrained device; the StreamingShedder
// maintains a budgeted reduced graph on the fly. We periodically compare
// its degree-discrepancy and degree-distribution fidelity against an
// offline random sample of the same prefix.
//
// Usage:
//   streaming_window [--p=0.3] [--nodes=5000] [--checkpoints=5]

#include <cstdio>

#include "analytics/degree.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/random_shedding.h"
#include "eval/flags.h"
#include "graph/generators/generators.h"
#include "graph/graph_builder.h"
#include "stream/streaming_shedder.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const double p = flags.GetDouble("p", 0.3).value();
  const auto nodes = static_cast<graph::NodeId>(flags.GetInt("nodes", 5000).value());
  const auto checkpoints =
      static_cast<uint64_t>(flags.GetInt("checkpoints", 5).value());

  // The "stream": edges of a preferential-attachment graph in generation
  // order — old hubs keep acquiring new spokes, as in a growing social
  // network.
  Rng rng(14);
  graph::Graph full = graph::BarabasiAlbert(nodes, 4, rng);
  std::vector<graph::Edge> arrivals(full.edges().begin(), full.edges().end());
  rng.Shuffle(&arrivals);

  stream::StreamingShedder shedder(p);
  std::printf("streaming %s edges at p = %.2f "
              "(budget tracks round(p * seen))\n\n",
              FormatWithCommas(arrivals.size()).c_str(), p);
  std::printf("%12s %10s %10s %16s %18s\n", "edges seen", "kept", "budget",
              "stream avgΔ", "offline-rand avgΔ");

  const uint64_t step = arrivals.size() / checkpoints;
  uint64_t next_checkpoint = step;
  graph::GraphBuilder prefix_builder;
  prefix_builder.ReserveNodes(nodes);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    shedder.AddEdge(arrivals[i].u, arrivals[i].v);
    prefix_builder.AddEdge(arrivals[i].u, arrivals[i].v);
    if (i + 1 == next_checkpoint || i + 1 == arrivals.size()) {
      next_checkpoint += step;
      // Offline comparison on the same prefix.
      graph::GraphBuilder copy = prefix_builder;  // builder is copyable
      graph::Graph prefix = copy.Build();
      auto offline = core::RandomShedding(7).Reduce(prefix, p);
      EDGESHED_CHECK(offline.ok());
      std::printf("%12s %10s %10s %16.4f %18.4f\n",
                  FormatWithCommas(shedder.EdgesSeen()).c_str(),
                  FormatWithCommas(shedder.kept_edges().size()).c_str(),
                  FormatWithCommas(shedder.Budget()).c_str(),
                  shedder.AverageDelta(), offline->average_delta);
    }
  }

  // Final fidelity check against the complete graph.
  graph::Graph snapshot = shedder.SnapshotGraph();
  Histogram original = analytics::DegreeDistribution(full);
  Histogram estimated = analytics::EstimatedDegreeDistribution(snapshot, p);
  std::printf("\nfinal degree-distribution KS distance vs full graph: %.4f\n",
              Histogram::KsDistance(original, estimated));
  std::printf("one pass, O(|V| + p|E|) memory — the full graph never had to "
              "exist on this device.\n");
  return 0;
}
