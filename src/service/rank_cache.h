#ifndef EDGESHED_SERVICE_RANK_CACHE_H_
#define EDGESHED_SERVICE_RANK_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "common/byte_lru.h"
#include "common/statusor.h"
#include "core/shedding.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace edgeshed::service {

/// Configuration for RankCache.
struct RankCacheOptions {
  /// Approximate cap on summed ranking bytes (|E| ids per entry).
  uint64_t byte_budget = 128ull << 20;
};

/// Thread-safe LRU cache of Phase-1 edge rankings, shared across shedding
/// jobs (DESIGN.md §12).
///
/// BENCH_hotpath.json shows the betweenness ranking dominating every CRR
/// job; yet the ranking depends only on the graph and the estimator options
/// — not on the preservation ratio `p` or the swap seed — so N jobs against
/// one dataset at different `p` were paying for N identical rankings. This
/// cache keys rankings by (dataset, dataset generation, estimator-options
/// fingerprint) and hands the scheduler a `core::RankProvider` view, so
/// those N jobs share exactly one betweenness pass.
///
/// Storage, coalescing and eviction are the shared ByteLru
/// (common/byte_lru.h): concurrent misses on a key share one compute
/// (`rank_cache_wait_hit`). A failed compute here is always the caller's
/// own cancellation or deadline, so it is never cached nor shared — the
/// next waiter ranks afresh.
///
/// Invalidation: the dataset generation (GraphStore::Generation, bumped by
/// GraphStore::Replace) is part of the key, so replacing a dataset makes
/// every cached ranking for it unreachable immediately; the stale entries
/// age out through the LRU.
///
/// Provenance: a fresh compute returns `computed = true` with the measured
/// wall-clock; a hit (waited or not) returns `computed = false` and
/// `seconds = 0.0` exactly, so per-job `betweenness_seconds` stats stay
/// honest — exactly one job reports ranking time for a shared ranking.
///
/// Metrics (when a registry is supplied): `scheduler.rank_cache_hit`,
/// `scheduler.rank_cache_wait_hit`, `scheduler.rank_cache_miss`,
/// `scheduler.rank_cache_compute_failed`, `scheduler.rank_cache_evicted`
/// counters; `scheduler.rank_cache_bytes` / `scheduler.rank_cache_entries`
/// gauges; `scheduler.rank_cache_compute_seconds` latency. When a tracer is
/// supplied each fresh compute records a `rank_cache.compute` span under
/// the calling thread's ambient span (a job's `run` span in the scheduler).
class RankCache {
 public:
  using Options = RankCacheOptions;

  explicit RankCache(RankCacheOptions options = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     obs::Tracer* tracer = nullptr);

  RankCache(const RankCache&) = delete;
  RankCache& operator=(const RankCache&) = delete;

  /// Returns the ranking for (`dataset`, `generation`, `options`), running
  /// analytics::EdgesByBetweennessDescending(g, options) on a miss.
  /// `options.cancel` governs only this caller's compute; a tripped token
  /// surfaces as its ToStatus() and the result is discarded, never cached.
  StatusOr<core::EdgeRanking> GetOrCompute(
      const std::string& dataset, uint64_t generation, const graph::Graph& g,
      const analytics::BetweennessOptions& options);

  size_t entries() const { return lru_.entries(); }
  uint64_t bytes() const { return lru_.bytes(); }
  uint64_t byte_budget() const { return lru_.byte_budget(); }

  /// Cache key for a (dataset, generation, estimator options) triple.
  /// Covers every option that can change scores or the early-stop point;
  /// `threads` and `cancel` are deliberately excluded — results are
  /// bit-identical across thread counts, and the token is per-caller.
  static std::string Key(const std::string& dataset, uint64_t generation,
                         const analytics::BetweennessOptions& options);

 private:
  using Ranking = std::shared_ptr<const std::vector<graph::EdgeId>>;

  obs::Tracer* const tracer_;  // may be null
  ByteLru<Ranking> lru_;
};

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_RANK_CACHE_H_
