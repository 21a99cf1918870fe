#ifndef EDGESHED_ANALYTICS_BETWEENNESS_H_
#define EDGESHED_ANALYTICS_BETWEENNESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "graph/graph.h"

namespace edgeshed::analytics {

/// Controls for Brandes betweenness centrality.
struct BetweennessOptions {
  /// Run the exact algorithm (every vertex a source) when |V| <= this.
  /// Above it, uniformly sampled sources are used with unbiased rescaling —
  /// the laptop-scale substitution documented in DESIGN.md §3.
  uint64_t exact_node_threshold = uint64_t{1} << 14;
  /// Number of source pivots when sampling.
  uint64_t sample_sources = 256;
  /// Seed for pivot sampling.
  uint64_t seed = 13;
  /// Worker threads (0 = DefaultThreadCount()).
  int threads = 0;
  /// Optional cooperative cancellation, polled once per BFS *level* inside
  /// every sweep, so even a single sweep on a large graph aborts within
  /// milliseconds of a trip. When it trips, the returned scores are
  /// meaningless — the caller must check the token and discard them.
  const CancellationToken* cancel = nullptr;

  /// Which per-source sweep kernel to run. Both are level-synchronous with
  /// canonically ordered (ascending vertex id) frontiers, which makes their
  /// floating-point accumulation sequences — and therefore their scores —
  /// bit-identical to each other (DESIGN.md §12).
  ///  * kClassic: top-down push on every level, both directions of the sweep.
  ///  * kHybrid: direction-optimizing — a level is processed bottom-up (pull
  ///    over the still-unvisited candidates / the previous level) whenever
  ///    that side's summed degree is the cheaper one to scan.
  enum class Kernel { kClassic, kHybrid };
  Kernel kernel = Kernel::kHybrid;
  /// Hybrid switch threshold: a forward level goes bottom-up when
  /// deg(frontier) > hybrid_alpha * deg(unvisited). 1.0 is the break-even
  /// cost model (betweenness pulls cannot early-exit, so unlike plain BFS
  /// there is no asymmetry factor to bake in).
  double hybrid_alpha = 1.0;

  /// Adaptive pivot scheduling (sampled mode only). When wave_size > 0 the
  /// sampled sources are processed in fixed consecutive waves of this size
  /// and the run stops early once the top-k edge *ranking* — what CRR
  /// Phase 1 consumes — stabilizes between consecutive waves. The wave
  /// schedule and the stop decision depend only on the options and the
  /// deterministic merged partials, never on the thread count, so scores
  /// stay bit-identical for every EDGESHED_THREADS value. 0 = single pass.
  uint64_t wave_size = 0;
  /// Stop once |top-k(wave i) ∩ top-k(wave i-1)| / k >= this. Values > 1
  /// never stop early (useful for testing wave bookkeeping).
  double wave_stability = 0.95;
  /// k for the stability check; 0 = auto (|E|/2, at least 256) — the slice a
  /// balanced (p = 0.5) CRR reduction consumes from the ranking. Smaller k
  /// watches a more elite slice and stops later; larger k stops sooner.
  uint64_t wave_top_k = 0;

  /// Forces exact computation regardless of size.
  static BetweennessOptions Exact() {
    BetweennessOptions options;
    options.exact_node_threshold = static_cast<uint64_t>(-1);
    return options;
  }

  /// The ranking fast path: hybrid kernel plus adaptive pivot waves. This is
  /// what CRR Phase 1 runs by default (DESIGN.md §12).
  static BetweennessOptions FastRanking() {
    BetweennessOptions options;
    options.kernel = Kernel::kHybrid;
    options.wave_size = 8;
    options.wave_stability = 0.85;
    return options;
  }
};

/// Node and edge betweenness centrality, computed together in one Brandes
/// pass (Brandes 2001: O(|V||E|) time, O(|V|+|E|) space per source).
///
/// Convention: scores count each unordered (s,t) pair once (the directed
/// double-count is halved). Sampled mode rescales by |V|/sources so values
/// estimate the exact ones; rankings — which is what both CRR and the
/// paper's Fig. 8 consume — converge quickly.
///
/// Parallelism and determinism: the sources are split into a fixed number
/// of contiguous stripes whose layout depends only on the source count, each
/// stripe with its own accumulators, merged per index in stripe order. A
/// wave that spans at least as many stripes as there are threads sweeps its
/// stripes in parallel, each in source order. A wave inside fewer stripes —
/// FastRanking's waves of 8 sit inside one 16-source stripe — sweeps up to
/// `threads` of its sources at once into private scratch, then folds them
/// into their stripes in source order: the same additions in the same
/// order. The adaptive-wave stop decision reads only merged partials, so
/// scores are bit-identical for every thread count (DESIGN.md "Parallel hot
/// path", §12). The classic and hybrid kernels share one canonical
/// accumulation order and are bit-identical to each other.
struct BetweennessScores {
  std::vector<double> node;  // indexed by NodeId
  std::vector<double> edge;  // indexed by EdgeId
  /// Source sweeps actually executed (== the source count unless an
  /// adaptive-wave run stopped early).
  uint64_t sources_processed = 0;
  /// Waves executed; 1 for non-wave runs on non-empty graphs.
  uint64_t waves = 0;
};

BetweennessScores Betweenness(const graph::Graph& g,
                              const BetweennessOptions& options = {});

/// The adaptive-wave stability check's top-k selection: an m-bit set
/// (bit e of word e/64) marking the min(k, m) edges that rank first by
/// (score descending, edge id ascending) — every edge scoring above the
/// k-th highest score plus the lowest-id ties at it. `scores` must be
/// non-negative and free of NaN. A parallel radix select over the scores'
/// bit patterns; the set does not depend on `threads` (0 =
/// DefaultThreadCount()).
std::vector<uint64_t> TopKEdgeMask(std::span<const double> scores, uint64_t k,
                                   int threads = 0);

/// Edge ids of `g` sorted by non-increasing betweenness (ties broken by
/// edge id for determinism). Convenience for CRR Phase 1.
std::vector<graph::EdgeId> EdgesByBetweennessDescending(
    const graph::Graph& g, const BetweennessOptions& options = {});

}  // namespace edgeshed::analytics

#endif  // EDGESHED_ANALYTICS_BETWEENNESS_H_
