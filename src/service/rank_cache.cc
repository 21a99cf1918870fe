#include "service/rank_cache.h"

#include <utility>

#include "common/strings.h"

namespace edgeshed::service {

namespace {

ByteLruInstruments RankCacheInstruments(obs::MetricsRegistry* metrics) {
  ByteLruInstruments instruments;
  if (metrics == nullptr) return instruments;
  instruments.hit = metrics->GetCounter("scheduler.rank_cache_hit");
  instruments.wait_hit = metrics->GetCounter("scheduler.rank_cache_wait_hit");
  instruments.miss = metrics->GetCounter("scheduler.rank_cache_miss");
  instruments.failed =
      metrics->GetCounter("scheduler.rank_cache_compute_failed");
  instruments.evicted = metrics->GetCounter("scheduler.rank_cache_evicted");
  instruments.bytes = metrics->GetGauge("scheduler.rank_cache_bytes");
  instruments.entries = metrics->GetGauge("scheduler.rank_cache_entries");
  instruments.compute_seconds =
      metrics->GetLatency("scheduler.rank_cache_compute_seconds");
  return instruments;
}

}  // namespace

RankCache::RankCache(RankCacheOptions options, obs::MetricsRegistry* metrics,
                     obs::Tracer* tracer)
    : tracer_(tracer),
      lru_(options.byte_budget,
           [](const std::string& key, const Ranking& ranking) {
             return key.size() + ranking->size() * sizeof(graph::EdgeId);
           },
           RankCacheInstruments(metrics)) {}

std::string RankCache::Key(const std::string& dataset, uint64_t generation,
                           const analytics::BetweennessOptions& options) {
  // %a renders exact double bits, so near-equal thresholds never collide.
  return StrFormat(
      "%s|g%llu|x%llu|s%llu|seed%llu|k%d|a%a|w%llu|st%a|tk%llu",
      dataset.c_str(), static_cast<unsigned long long>(generation),
      static_cast<unsigned long long>(options.exact_node_threshold),
      static_cast<unsigned long long>(options.sample_sources),
      static_cast<unsigned long long>(options.seed),
      static_cast<int>(options.kernel), options.hybrid_alpha,
      static_cast<unsigned long long>(options.wave_size),
      options.wave_stability,
      static_cast<unsigned long long>(options.wave_top_k));
}

StatusOr<core::EdgeRanking> RankCache::GetOrCompute(
    const std::string& dataset, uint64_t generation, const graph::Graph& g,
    const analytics::BetweennessOptions& options) {
  core::EdgeRanking ranking;  // a hit: computed=false, seconds=0.0 exactly
  auto shared = lru_.GetOrCompute(
      Key(dataset, generation, options),
      [&]() -> StatusOr<Ranking> {
        ranking.computed = true;
        obs::Span span = obs::Tracer::StartSpan(tracer_, "rank_cache.compute");
        span.Annotate("dataset", dataset);
        std::vector<graph::EdgeId> ids =
            analytics::EdgesByBetweennessDescending(g, options);
        const bool cancelled = CancellationRequested(options.cancel);
        span.Annotate("ok", cancelled ? "false" : "true");
        if (cancelled) return options.cancel->ToStatus();
        return std::make_shared<const std::vector<graph::EdgeId>>(
            std::move(ids));
      },
      options.cancel, &ranking.seconds);
  if (!shared.ok()) return shared.status();
  ranking.ids = **shared;
  return ranking;
}

}  // namespace edgeshed::service
