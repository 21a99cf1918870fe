#include "analytics/betweenness.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>

#include "common/parallel.h"
#include "common/random.h"

namespace edgeshed::analytics {

namespace {

// Dense bitmap helpers (one bit per vertex). The visited bitmap keeps the
// hot membership test of the bottom-up sweep inside ~|V|/8 bytes — L1/L2
// resident even when the int32 dist array is not.
inline bool TestBit(const std::vector<uint64_t>& bits, graph::NodeId v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}
inline void SetBit(std::vector<uint64_t>& bits, graph::NodeId v) {
  bits[v >> 6] |= uint64_t{1} << (v & 63);
}
inline void ClearBit(std::vector<uint64_t>& bits, graph::NodeId v) {
  bits[v >> 6] &= ~(uint64_t{1} << (v & 63));
}

/// Scratch for one Brandes source sweep, reset by every sweep. A sweep's
/// dist/sigma/delta/coeff stay valid after it returns, which is what lets
/// FoldSweeps replay its accumulation later.
struct SweepScratch {
  std::vector<int32_t> dist;
  std::vector<double> sigma;   // shortest-path counts
  std::vector<double> delta;   // dependency accumulator
  std::vector<double> coeff;   // (1 + delta[w]) / sigma[w], per level
  std::vector<graph::NodeId> order;       // concatenated BFS levels
  std::vector<uint64_t> level_offsets;    // order[level_offsets[l]..[l+1])
  std::vector<uint64_t> level_degrees;    // summed degree per level
  std::vector<graph::NodeId> candidates;  // still-unvisited, ascending
  std::vector<uint64_t> visited_bits;
  std::vector<uint64_t> frontier_bits;

  void Reserve(uint64_t num_nodes) {
    dist.reserve(num_nodes);
    sigma.reserve(num_nodes);
    delta.reserve(num_nodes);
    coeff.reserve(num_nodes);
    order.reserve(num_nodes);
    candidates.reserve(num_nodes);
  }
};

/// One source stripe's accumulator pair. It persists across sweeps and
/// adaptive waves and is allocated on the stripe's first sweep, so a stripe
/// a run never reaches never pays the O(|V|+|E|) zero-fill.
struct Partial {
  std::vector<double> node;
  std::vector<double> edge;

  void Ensure(uint64_t num_nodes, uint64_t num_edges) {
    if (node.empty()) {
      node.assign(num_nodes, 0.0);
      edge.assign(num_edges, 0.0);
    }
  }
};

/// One level-synchronous Brandes sweep from `source`. With an accumulator
/// (`acc` non-null) it adds the source's edge and node dependencies to it;
/// without one it only leaves dist/sigma/delta/coeff in the scratch for
/// FoldSweeps. Returns false when the cancellation token tripped (polled
/// once per BFS level, both directions); the partials are then garbage and
/// the caller must discard the whole run.
///
/// Canonical ordering contract: every level of the forward BFS is kept
/// sorted by ascending vertex id (top-down levels are rebuilt ascending
/// from a discovery bitmap; bottom-up levels are built ascending by
/// construction), and
/// both directions accumulate sigma — and, in the reverse pass, delta — for
/// a fixed vertex in ascending neighbor order. Every floating-point sum
/// therefore adds the same terms in the same order no matter which
/// direction processed a level, which is what makes the classic and hybrid
/// kernels bit-identical (DESIGN.md §12).
bool BrandesFromSource(const graph::Graph& g, graph::NodeId source,
                       const BetweennessOptions& options,
                       SweepScratch* scratch, Partial* acc) {
  const uint64_t n = g.NumNodes();
  const uint64_t words = (n + 63) / 64;
  const bool hybrid = options.kernel == BetweennessOptions::Kernel::kHybrid;
  auto& dist = scratch->dist;
  auto& sigma = scratch->sigma;
  auto& delta = scratch->delta;
  auto& coeff = scratch->coeff;
  auto& order = scratch->order;
  auto& level_offsets = scratch->level_offsets;
  auto& level_degrees = scratch->level_degrees;
  auto& candidates = scratch->candidates;
  auto& visited = scratch->visited_bits;
  auto& frontier_bits = scratch->frontier_bits;

  dist.assign(n, -1);
  sigma.assign(n, 0.0);
  delta.assign(n, 0.0);
  coeff.resize(n);
  order.clear();
  level_offsets.clear();
  level_degrees.clear();
  candidates.clear();
  visited.assign(words, 0);
  frontier_bits.assign(words, 0);
  bool candidates_valid = false;

  dist[source] = 0;
  sigma[source] = 1.0;
  SetBit(visited, source);
  order.push_back(source);
  level_offsets.push_back(0);
  level_offsets.push_back(1);
  level_degrees.push_back(g.Degree(source));
  uint64_t unvisited_degree = g.TotalDegree() - level_degrees[0];

  // ---- Forward pass: level-synchronous BFS with per-level direction
  // choice. A level's successors are discovered top-down (push from the
  // frontier) or bottom-up (pull over the unvisited candidates), whichever
  // side's summed degree is cheaper to scan. ----
  size_t level = 0;
  while (level_offsets[level] < level_offsets[level + 1]) {
    if (CancellationRequested(options.cancel)) return false;
    const uint64_t begin = level_offsets[level];
    const uint64_t end = level_offsets[level + 1];
    const int32_t next_level = static_cast<int32_t>(level) + 1;
    const bool bottom_up =
        hybrid && static_cast<double>(level_degrees[level]) >
                      options.hybrid_alpha * static_cast<double>(unvisited_degree);
    uint64_t next_degree = 0;
    if (!bottom_up) {
      // Top-down: scan the (sorted) frontier; discover and accumulate sigma
      // in one pass, marking new vertices in a scratch bitmap. The new level
      // is then rebuilt in ascending id order by scanning the bitmap words —
      // O(|V|/64 + level) instead of an O(level log level) sort, and the
      // same canonical order either way.
      for (uint64_t i = begin; i < end; ++i) {
        const graph::NodeId u = order[i];
        const double sigma_u = sigma[u];
        for (graph::NodeId v : g.Neighbors(u)) {
          if (!TestBit(visited, v)) {
            SetBit(visited, v);
            SetBit(frontier_bits, v);
            dist[v] = next_level;
            next_degree += g.Degree(v);
          }
          if (dist[v] == next_level) sigma[v] += sigma_u;
        }
      }
      for (uint64_t word = 0; word < words; ++word) {
        uint64_t bits = frontier_bits[word];
        frontier_bits[word] = 0;
        while (bits != 0) {
          const int bit = std::countr_zero(bits);
          bits &= bits - 1;
          order.push_back(static_cast<graph::NodeId>(word * 64 +
                                                     static_cast<uint64_t>(bit)));
        }
      }
    } else {
      // Bottom-up: every unvisited candidate pulls from the frontier. The
      // frontier membership test runs against a dense bitmap so the inner
      // loop touches |V|/8 bytes instead of the 4-byte-per-vertex dist
      // array; sigma is summed locally in ascending neighbor order.
      for (uint64_t i = begin; i < end; ++i) SetBit(frontier_bits, order[i]);
      if (!candidates_valid) {
        for (graph::NodeId v = 0; v < n; ++v) {
          if (!TestBit(visited, v)) candidates.push_back(v);
        }
        candidates_valid = true;
      }
      size_t keep = 0;
      for (const graph::NodeId v : candidates) {
        if (TestBit(visited, v)) continue;  // discovered by an earlier level
        double s = 0.0;
        bool reached = false;
        for (graph::NodeId u : g.Neighbors(v)) {
          if (TestBit(frontier_bits, u)) {
            s += sigma[u];
            reached = true;
          }
        }
        if (reached) {
          SetBit(visited, v);
          dist[v] = next_level;
          sigma[v] = s;
          order.push_back(v);  // candidates ascend, so the level ascends
          next_degree += g.Degree(v);
        } else {
          candidates[keep++] = v;
        }
      }
      candidates.resize(keep);
      for (uint64_t i = begin; i < end; ++i) {
        ClearBit(frontier_bits, order[i]);
      }
    }
    level_offsets.push_back(order.size());
    level_degrees.push_back(next_degree);
    unvisited_degree -= next_degree;
    ++level;
  }
  // Levels 0..level-1 are non-empty; level_offsets[level+1] closes the last
  // (empty) one.

  // ---- Reverse pass: dependency accumulation, level-synchronous and
  // direction-optimized the same way. For each level l (descending), the
  // per-successor coefficient (1+delta[w])/sigma[w] is computed once into a
  // dense array; pushing from level l and pulling into level l-1 then
  // produce bit-identical sums (same terms, same ascending-w order per
  // target), so the direction choice is purely a cost decision. ----
  for (size_t l = level; l-- > 1;) {
    if (CancellationRequested(options.cancel)) return false;
    const uint64_t w_begin = level_offsets[l];
    const uint64_t w_end = level_offsets[l + 1];
    for (uint64_t i = w_begin; i < w_end; ++i) {
      const graph::NodeId w = order[i];
      coeff[w] = (1.0 + delta[w]) / sigma[w];
    }
    const bool pull = hybrid && level_degrees[l - 1] < level_degrees[l];
    const int32_t succ_level = static_cast<int32_t>(l);
    if (!pull) {
      for (uint64_t i = w_begin; i < w_end; ++i) {
        const graph::NodeId w = order[i];
        const double cw = coeff[w];
        const auto neighbors = g.Neighbors(w);
        const auto incident = g.IncidentEdges(w);
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const graph::NodeId v = neighbors[j];
          if (dist[v] + 1 != succ_level) continue;  // not a predecessor
          const double contribution = sigma[v] * cw;
          delta[v] += contribution;
          if (acc != nullptr) acc->edge[incident[j]] += contribution;
        }
      }
    } else {
      for (uint64_t i = level_offsets[l - 1]; i < w_begin; ++i) {
        const graph::NodeId v = order[i];
        const double sigma_v = sigma[v];
        const auto neighbors = g.Neighbors(v);
        const auto incident = g.IncidentEdges(v);
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const graph::NodeId w = neighbors[j];
          if (dist[w] != succ_level) continue;  // not a successor
          const double contribution = sigma_v * coeff[w];
          delta[v] += contribution;
          if (acc != nullptr) acc->edge[incident[j]] += contribution;
        }
      }
    }
  }
  if (acc == nullptr) return true;
  for (uint64_t i = 1; i < order.size(); ++i) {  // skip the source itself
    const graph::NodeId w = order[i];
    acc->node[w] += delta[w];
  }
  return true;
}

/// Adds the sweeps of one batch of sources, in source order, to their
/// stripes' accumulators: sweeps[i] holds the finished sweep of the batch's
/// i-th source and targets[i] is that source's stripe. Each edge with endpoint
/// levels one apart gets sigma[pred] * coeff[succ] and each reached
/// non-source vertex gets delta — the same products BrandesFromSource adds
/// when it accumulates itself. Every index is owned by one range, and
/// within it the sweeps are added in batch (= source) order, so a stripe's
/// accumulator sees the same additions in the same order as if its sources
/// had been swept one after another into it.
void FoldSweeps(const graph::Graph& g, std::span<const SweepScratch> sweeps,
                std::span<Partial* const> targets, int threads) {
  constexpr uint64_t kFoldLead = 16;
  const std::span<const graph::Edge> edges = g.edges();
  ParallelFor(
      0, edges.size(),
      [&](uint64_t begin, uint64_t end) {
        for (size_t i = 0; i < sweeps.size(); ++i) {
          const int32_t* dist = sweeps[i].dist.data();
          const double* sigma = sweeps[i].sigma.data();
          const double* coeff = sweeps[i].coeff.data();
          double* acc = targets[i]->edge.data();
          for (uint64_t e = begin; e < end; ++e) {
            // Graph::FromEdges numbers edges in (u, v) order, so the upper
            // endpoint's rows are the random access; fetch them ahead.
            if (e + kFoldLead < end) {
              const graph::NodeId ahead = edges[e + kFoldLead].v;
              __builtin_prefetch(dist + ahead);
              __builtin_prefetch(sigma + ahead);
              __builtin_prefetch(coeff + ahead);
            }
            const graph::NodeId u = edges[e].u;
            const graph::NodeId v = edges[e].v;
            if (dist[u] + 1 == dist[v]) {
              acc[e] += sigma[u] * coeff[v];
            } else if (dist[v] + 1 == dist[u]) {
              acc[e] += sigma[v] * coeff[u];
            }
          }
        }
      },
      threads);
  ParallelFor(
      0, g.NumNodes(),
      [&](uint64_t begin, uint64_t end) {
        for (size_t i = 0; i < sweeps.size(); ++i) {
          const int32_t* dist = sweeps[i].dist.data();
          const double* delta = sweeps[i].delta.data();
          double* acc = targets[i]->node.data();
          for (uint64_t w = begin; w < end; ++w) {
            if (dist[w] > 0) acc[w] += delta[w];
          }
        }
      },
      threads);
}

}  // namespace

std::vector<uint64_t> TopKEdgeMask(std::span<const double> scores, uint64_t k,
                                   int threads) {
  const uint64_t m = scores.size();
  const uint64_t words = (m + 63) / 64;
  std::vector<uint64_t> mask(words, 0);
  k = std::min(k, m);
  if (k == 0) return mask;

  // Chunks are whole 64-edge words, so each owns its slice of the mask;
  // their number grows with m so a small ranking checks in one chunk and
  // zero-fills one 256-bin histogram per pass.
  constexpr uint64_t kWordsPerChunk = 256;  // 16Ki edges
  constexpr uint64_t kMaxChunks = 64;
  const uint64_t chunks =
      std::clamp<uint64_t>(words / kWordsPerChunk, 1, kMaxChunks);
  std::vector<uint64_t> bounds(chunks + 1);
  for (uint64_t c = 0; c <= chunks; ++c) {
    bounds[c] = std::min(m, words * c / chunks * 64);
  }
  // Non-negative doubles order like their bit patterns; clearing the sign
  // bit folds -0.0 onto +0.0, which compare equal as scores.
  auto key = [&scores](uint64_t e) {
    return std::bit_cast<uint64_t>(scores[e]) & ~(uint64_t{1} << 63);
  };

  // Most-significant digit first: each pass histograms the next 8-bit digit
  // of the keys whose decided digits equal the threshold's, then walks the
  // buckets from the top until they hold the `need` keys still missing. The
  // passes stop at the last digit or once that bucket holds exactly `need`
  // keys. Then every key whose decided digits exceed the threshold's is in
  // the top k, and so are the lowest-id `need` keys that match them.
  using Histogram = std::array<uint64_t, 256>;
  std::vector<Histogram> histograms(chunks);
  uint64_t threshold = 0;
  uint64_t decided = 0;  // the key bits already fixed in threshold
  uint64_t need = k;
  uint64_t digit = 0;
  for (int shift = 56; shift >= 0; shift -= 8) {
    ParallelForEach(
        0, chunks,
        [&](uint64_t c) {
          Histogram& histogram = histograms[c];
          histogram.fill(0);
          for (uint64_t e = bounds[c]; e < bounds[c + 1]; ++e) {
            const uint64_t bits = key(e);
            if ((bits & decided) == threshold) {
              ++histogram[(bits >> shift) & 0xff];
            }
          }
        },
        threads, /*grain=*/1);
    uint64_t count = 0;
    for (digit = 256; digit-- > 0;) {
      count = 0;
      for (const Histogram& histogram : histograms) count += histogram[digit];
      if (count >= need) break;
      need -= count;
    }
    threshold |= digit << shift;
    decided |= uint64_t{0xff} << shift;
    if (count == need) break;
  }

  // The last pass counted each chunk's keys that match the threshold; a
  // chunk takes the ties the chunks before it left over.
  std::vector<uint64_t> tie_quota(chunks);
  for (uint64_t c = 0; c < chunks; ++c) {
    tie_quota[c] = std::min(need, histograms[c][digit]);
    need -= tie_quota[c];
  }
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        uint64_t ties = tie_quota[c];
        for (uint64_t e = bounds[c]; e < bounds[c + 1]; ++e) {
          const uint64_t bits = key(e) & decided;
          if (bits < threshold) continue;
          if (bits == threshold) {
            if (ties == 0) continue;
            --ties;
          }
          mask[e >> 6] |= uint64_t{1} << (e & 63);
        }
      },
      threads, /*grain=*/1);
  return mask;
}

BetweennessScores Betweenness(const graph::Graph& g,
                              const BetweennessOptions& options) {
  const uint64_t n = g.NumNodes();
  const uint64_t m = g.NumEdges();
  BetweennessScores scores;
  scores.node.assign(n, 0.0);
  scores.edge.assign(m, 0.0);
  if (n == 0) return scores;

  std::vector<graph::NodeId> sources;
  bool sampled = false;
  if (n <= options.exact_node_threshold || options.sample_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), graph::NodeId{0});
  } else {
    Rng rng(options.seed);
    for (uint64_t index : rng.SampleIndices(n, options.sample_sources)) {
      sources.push_back(static_cast<graph::NodeId>(index));
    }
    sampled = true;
  }

  // Striped reduction instead of a global merge mutex: the sources are split
  // into a fixed number of contiguous partitions, each with its own
  // accumulator pair, so sweep threads never contend. The partition count
  // depends only on the source count — never on the thread count — and the
  // partials are summed per index in ascending partition order below, so the
  // floating-point accumulation order (and therefore every bit of the
  // result) is identical for any EDGESHED_THREADS value.
  constexpr uint64_t kMaxPartials = 16;
  constexpr uint64_t kMinSourcesPerPartial = 4;
  const uint64_t num_partials = std::clamp<uint64_t>(
      sources.size() / kMinSourcesPerPartial, 1, kMaxPartials);
  std::vector<Partial> partials(num_partials);
  const int threads =
      options.threads > 0 ? options.threads : DefaultThreadCount();
  // Sweep scratch: the per-stripe path gives stripe p sweeps[p], the
  // concurrent path the i-th source of a batch sweeps[i].
  const uint64_t max_batch = static_cast<uint64_t>(threads);
  std::vector<SweepScratch> sweeps(std::max(num_partials, max_batch));

  // Adaptive pivot waves (sampled mode only): the sources are processed in
  // fixed consecutive slices; after each wave the partials are merged
  // deterministically and the run stops once the top-k edge ranking agrees
  // with the previous wave's. The stripe layout is computed from the *full*
  // source count, so an early stop changes how many sources each partial
  // swept but never the accumulation order of the ones it did.
  const uint64_t total = sources.size();
  auto stripe_first = [&](uint64_t part) {
    return total * part / num_partials;
  };
  auto stripe_of = [&](uint64_t i) {
    uint64_t part = 0;
    while (stripe_first(part + 1) <= i) ++part;
    return part;
  };
  const uint64_t wave_size =
      (sampled && options.wave_size > 0) ? options.wave_size : total;
  const uint64_t wave_top_k =
      options.wave_top_k > 0
          ? options.wave_top_k
          : std::max<uint64_t>(256, m / 2);
  uint64_t processed = 0;
  uint64_t waves_run = 0;
  std::vector<uint64_t> prev_top_k;
  std::vector<double> wave_merged;
  std::vector<graph::NodeId> batch;
  std::vector<Partial*> targets;

  while (processed < total) {
    const uint64_t wave_begin = processed;
    const uint64_t wave_end = std::min(total, wave_begin + wave_size);
    const uint64_t active_stripes =
        stripe_of(wave_end - 1) - stripe_of(wave_begin) + 1;
    if (active_stripes >= static_cast<uint64_t>(threads)) {
      // Enough stripes to keep every thread busy: each stripe sweeps its
      // share of the wave in source order straight into its accumulator.
      ParallelForEach(
          0, num_partials,
          [&](uint64_t part) {
            const uint64_t first = std::max(stripe_first(part), wave_begin);
            const uint64_t last = std::min(stripe_first(part + 1), wave_end);
            if (first >= last) return;
            partials[part].Ensure(n, m);
            for (uint64_t i = first; i < last; ++i) {
              // Cancellation is polled per BFS level inside the sweep; a
              // tripped token abandons the partition and the caller
              // discards the whole run.
              if (!BrandesFromSource(g, sources[i], options, &sweeps[part],
                                     &partials[part])) {
                return;
              }
            }
          },
          threads, /*grain=*/1);
    } else {
      // Fewer stripes than threads (FastRanking's waves of 8 sit inside one
      // 16-source stripe): sweep the next `threads` sources at once, each
      // into its own scratch, then fold the batch into its stripes in
      // source order. An isolated source adds nothing on either path, so a
      // batch skips it rather than spend a thread on it.
      for (uint64_t next = wave_begin; next < wave_end;) {
        batch.clear();
        targets.clear();
        for (; next < wave_end && batch.size() < max_batch; ++next) {
          if (g.Degree(sources[next]) == 0) continue;
          Partial& partial = partials[stripe_of(next)];
          partial.Ensure(n, m);
          batch.push_back(sources[next]);
          targets.push_back(&partial);
        }
        if (batch.empty()) break;
        // Size the scratch here, not in the workers: memory a short-lived
        // worker allocates lands in its own malloc arena and stays resident
        // there after the run frees it.
        for (size_t i = 0; i < batch.size(); ++i) sweeps[i].Reserve(n);
        ParallelForEach(
            0, batch.size(),
            [&](uint64_t i) {
              BrandesFromSource(g, batch[i], options, &sweeps[i], nullptr);
            },
            threads, /*grain=*/1);
        if (CancellationRequested(options.cancel)) return scores;
        FoldSweeps(g, std::span(sweeps).first(batch.size()), targets,
                   threads);
      }
    }
    if (CancellationRequested(options.cancel)) return scores;
    processed = wave_end;
    ++waves_run;
    if (processed >= total) break;
    // Stability check against the previous wave's merged ranking. The merge
    // is per-index in ascending partition order — deterministic — and the
    // ranking comparison is the overlap of two top-k edge sets. While only
    // one stripe has swept, the merge would equal that stripe's partial
    // (0.0 + x == x), so the check reads the partial itself.
    const auto swept = [](const Partial& partial) {
      return !partial.edge.empty();
    };
    std::span<const double> merged;
    if (std::count_if(partials.begin(), partials.end(), swept) == 1) {
      merged = std::find_if(partials.begin(), partials.end(), swept)->edge;
    } else {
      wave_merged.assign(m, 0.0);
      ParallelFor(
          0, m,
          [&](uint64_t begin, uint64_t end) {
            for (const Partial& partial : partials) {
              if (!swept(partial)) continue;
              for (uint64_t e = begin; e < end; ++e) {
                wave_merged[e] += partial.edge[e];
              }
            }
          },
          threads);
      merged = wave_merged;
    }
    std::vector<uint64_t> top_k = TopKEdgeMask(merged, wave_top_k, threads);
    if (!prev_top_k.empty()) {
      uint64_t overlap = 0;
      for (size_t w = 0; w < top_k.size(); ++w) {
        overlap += std::popcount(prev_top_k[w] & top_k[w]);
      }
      if (static_cast<double>(overlap) /
              static_cast<double>(std::min(wave_top_k, m)) >=
          options.wave_stability) {
        break;
      }
    }
    prev_top_k = std::move(top_k);
  }

  const double rescale =
      sampled ? static_cast<double>(n) / static_cast<double>(processed) : 1.0;

  // Range-partitioned merge: each index is owned by exactly one chunk, and
  // partials are added in fixed partition order (lazily allocated partials
  // that never ran a sweep stay empty and contribute nothing). Halve the
  // directed double count and apply the sampling rescale in the same pass.
  const double factor = 0.5 * rescale;
  ParallelFor(
      0, n,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t u = begin; u < end; ++u) {
          double acc = 0.0;
          for (const Partial& partial : partials) {
            if (!partial.node.empty()) acc += partial.node[u];
          }
          scores.node[u] = acc * factor;
        }
      },
      threads);
  ParallelFor(
      0, m,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t e = begin; e < end; ++e) {
          double acc = 0.0;
          for (const Partial& partial : partials) {
            if (!partial.edge.empty()) acc += partial.edge[e];
          }
          scores.edge[e] = acc * factor;
        }
      },
      threads);
  scores.sources_processed = processed;
  scores.waves = waves_run;
  return scores;
}

std::vector<graph::EdgeId> EdgesByBetweennessDescending(
    const graph::Graph& g, const BetweennessOptions& options) {
  BetweennessScores scores = Betweenness(g, options);
  std::vector<graph::EdgeId> ids(g.NumEdges());
  std::iota(ids.begin(), ids.end(), graph::EdgeId{0});
  // Cancelled: skip the sort, the ranking is garbage either way and the
  // caller must check the token before trusting it.
  if (CancellationRequested(options.cancel)) return ids;
  ParallelSort(ids.begin(), ids.end(),
               [&scores](graph::EdgeId a, graph::EdgeId b) {
                 if (scores.edge[a] != scores.edge[b]) {
                   return scores.edge[a] > scores.edge[b];
                 }
                 return a < b;
               },
               options.threads);
  return ids;
}

}  // namespace edgeshed::analytics
