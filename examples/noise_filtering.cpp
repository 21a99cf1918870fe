// Noise filtering (the paper's fourth motivation for graph reduction):
// real datasets carry spurious links; selective shedding drops low-value
// edges first. We plant a community-structured graph, inject random noise
// edges, shed with CRR and BM2, and measure which method sheds the noise —
// an instructive split: betweenness ranking can mistake cross-community
// noise for bridges, while degree-capacity constraints evict it.
//
// Usage:
//   noise_filtering [--nodes=2000] [--noise_fraction=0.3] [--p=0.6]

#include <cstdio>
#include <unordered_set>

#include "common/random.h"
#include "common/strings.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "eval/flags.h"
#include "graph/generators/generators.h"
#include "graph/graph_builder.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const auto nodes =
      static_cast<graph::NodeId>(flags.GetInt("nodes", 2000).value());
  const double noise_fraction = flags.GetDouble("noise_fraction", 0.3).value();
  const double p = flags.GetDouble("p", 0.6).value();

  // Ground truth: 8 dense communities, sparse in between.
  Rng rng(2026);
  graph::Graph clean =
      graph::PlantedPartition(nodes, 8, 24.0 / nodes, 0.0, rng);

  // Inject uniform random noise edges (cross-community, mostly).
  const auto noise_target = static_cast<uint64_t>(
      noise_fraction * static_cast<double>(clean.NumEdges()));
  graph::GraphBuilder builder;
  builder.ReserveNodes(nodes);
  for (const graph::Edge& e : clean.edges()) builder.AddEdge(e.u, e.v);
  std::unordered_set<uint64_t> noise_keys;
  uint64_t injected = 0;
  while (injected < noise_target) {
    auto u = static_cast<graph::NodeId>(rng.UniformU64(nodes));
    auto v = static_cast<graph::NodeId>(rng.UniformU64(nodes));
    if (u == v || clean.HasEdge(u, v)) continue;
    uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                   std::max(u, v);
    if (!noise_keys.insert(key).second) continue;
    builder.AddEdge(u, v);
    ++injected;
  }
  graph::Graph noisy = builder.Build();
  std::printf("clean graph: %s edges; injected %s noise edges (%.0f%%)\n",
              FormatWithCommas(clean.NumEdges()).c_str(),
              FormatWithCommas(injected).c_str(), noise_fraction * 100);

  const double noise_rate_before =
      static_cast<double>(injected) / static_cast<double>(noisy.NumEdges());
  std::printf("noise share before shedding: %5.1f%%\n\n",
              noise_rate_before * 100);

  // Shed with each method and measure the noise share of the kept edges.
  auto noise_share = [&](const core::SheddingResult& result) {
    uint64_t kept_noise = 0;
    for (graph::EdgeId id : result.kept_edges) {
      const graph::Edge& e = noisy.edge(id);
      uint64_t key = (static_cast<uint64_t>(e.u) << 32) | e.v;
      if (noise_keys.contains(key)) ++kept_noise;
    }
    return static_cast<double>(kept_noise) /
           static_cast<double>(result.kept_edges.size());
  };
  core::Crr crr;
  core::Bm2 bm2;
  for (const core::EdgeShedder* shedder :
       {static_cast<const core::EdgeShedder*>(&crr),
        static_cast<const core::EdgeShedder*>(&bm2)}) {
    auto reduction = shedder->Reduce(noisy, p);
    if (!reduction.ok()) {
      std::fprintf(stderr, "%s\n", reduction.status().ToString().c_str());
      return 1;
    }
    const double after = noise_share(*reduction);
    std::printf("%-4s kept %s edges, noise share %5.1f%% (%s)\n",
                shedder->name().c_str(),
                FormatWithCommas(reduction->kept_edges.size()).c_str(),
                after * 100,
                after < noise_rate_before ? "filtered noise" : "kept noise");
  }
  std::printf(
      "\nwhy the methods differ: uniform cross-community noise looks like\n"
      "bridges to betweenness, so CRR's Phase 1 can hold on to it (its\n"
      "rewiring phase only evens out degrees); BM2's capacity constraints\n"
      "b(u) = round(p*deg) evict edges at saturated vertices instead. The\n"
      "paper's noise-filtering motivation (§I) applies to degree-inflating\n"
      "noise, which both methods suppress via expected-degree targets.\n");
  return 0;
}
