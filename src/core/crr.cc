#include "core/crr.h"

#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/discrepancy.h"
#include "core/swap_chain.h"

namespace edgeshed::core {

namespace {

/// Phase-2 working entry: an edge id with its endpoints cached flat, so each
/// swap attempt touches one 16-byte record instead of chasing the id into
/// the graph's edge array (a guaranteed cache miss per draw on big graphs).
struct CachedEdge {
  graph::EdgeId id;
  graph::Edge edge;
  graph::NodeId u() const { return edge.u; }
  graph::NodeId v() const { return edge.v; }
};

std::vector<CachedEdge> CacheEndpoints(const graph::Graph& g,
                                       const graph::EdgeId* ids,
                                       uint64_t count) {
  std::vector<CachedEdge> cached(count);
  ParallelFor(0, count, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      cached[i] = CachedEdge{ids[i], g.edge(ids[i])};
    }
  });
  return cached;
}

}  // namespace

uint64_t Crr::StepsFor(const graph::Graph& g, double p) const {
  if (options_.steps_override.has_value()) return *options_.steps_override;
  const double kP = p * static_cast<double>(g.NumEdges());
  const double steps = options_.steps_multiplier * kP;
  return steps <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(steps));
}

StatusOr<SheddingResult> Crr::Shed(const graph::Graph& g,
                                   const ShedOptions& shed_options) const {
  const double p = shed_options.p;
  const CancellationToken* cancel = shed_options.cancel;
  EDGESHED_RETURN_IF_ERROR(ValidatePreservationRatio(p));
  Stopwatch total_watch;
  SheddingResult result;
  const uint64_t num_edges = g.NumEdges();
  const uint64_t target = TargetEdgeCount(g, p);
  Rng rng(shed_options.seed.value_or(options_.seed));

  // ---- Phase 1: rank edges and keep the top round(p|E|). ----
  Stopwatch phase1_watch;
  double betweenness_seconds = 0.0;
  std::vector<graph::EdgeId> ranked;
  if (options_.init_mode == CrrOptions::InitMode::kBetweenness) {
    analytics::BetweennessOptions betweenness = options_.betweenness;
    betweenness.cancel = cancel;
    if (shed_options.threads > 0) betweenness.threads = shed_options.threads;
    if (shed_options.rank_provider != nullptr) {
      StatusOr<EdgeRanking> ranking = shed_options.rank_provider(g, betweenness);
      if (!ranking.ok()) return ranking.status();
      if (ranking->ids.size() != num_edges) {
        return Status::Internal(
            "rank provider returned a ranking of the wrong size");
      }
      ranked = std::move(ranking->ids);
      betweenness_seconds = ranking->seconds;
    } else {
      Stopwatch betweenness_watch;
      ranked = analytics::EdgesByBetweennessDescending(g, betweenness);
      betweenness_seconds = betweenness_watch.ElapsedSeconds();
    }
  } else {
    ranked.resize(num_edges);
    std::iota(ranked.begin(), ranked.end(), graph::EdgeId{0});
    rng.Shuffle(&ranked);
  }
  if (CancellationRequested(cancel)) return cancel->ToStatus();
  std::vector<CachedEdge> kept = CacheEndpoints(g, ranked.data(), target);
  std::vector<CachedEdge> excluded =
      CacheEndpoints(g, ranked.data() + target, num_edges - target);
  const double phase1_seconds = phase1_watch.ElapsedSeconds();

  DegreeDiscrepancy discrepancy(g, p);
  for (const CachedEdge& e : kept) {
    discrepancy.AddEdge(e.u(), e.v());
  }

  // ---- Phase 2: random swap attempts between E' and E \ E'. ----
  EDGESHED_ASSIGN_OR_RETURN(
      const SwapChainStats phase2,
      RunSwapChain(kept.data(), kept.size(), excluded.data(), excluded.size(),
                   StepsFor(g, p), options_.accept_zero_delta_swaps, &rng,
                   &discrepancy, cancel,
                   [](CachedEdge& removal, CachedEdge& addition) {
                     std::swap(removal, addition);
                   }));

  // Kept ids are unique, so marking them in an |E|-bit map and scanning it
  // in id order lists them ascending in O(|E|/64) words, with no sort.
  std::vector<uint64_t> kept_bits((num_edges + 63) / 64, 0);
  for (const CachedEdge& e : kept) {
    kept_bits[e.id >> 6] |= uint64_t{1} << (e.id & 63);
  }
  result.kept_edges.reserve(kept.size());
  for (size_t word = 0; word < kept_bits.size(); ++word) {
    for (uint64_t bits = kept_bits[word]; bits != 0; bits &= bits - 1) {
      result.kept_edges.push_back(word * 64 + std::countr_zero(bits));
    }
  }
  result.total_delta = discrepancy.TotalDelta();
  result.average_delta = discrepancy.AverageDelta();
  result.reduction_seconds = total_watch.ElapsedSeconds();
  result.stats = {
      {"phase1_seconds", phase1_seconds},
      {"phase2_seconds", phase2.seconds},
      {"betweenness_seconds", betweenness_seconds},
      {"steps", static_cast<double>(phase2.steps)},
      {"swaps_accepted", static_cast<double>(phase2.swaps_accepted)},
  };
  return result;
}

}  // namespace edgeshed::core
