#include "analytics/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <bit>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_set>

#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::analytics {
namespace {

using ::edgeshed::testing::Clique;
using ::edgeshed::testing::Cycle;
using ::edgeshed::testing::Path;
using ::edgeshed::testing::Star;
using ::edgeshed::testing::TwoTrianglesWithBridge;

TEST(BetweennessTest, PathOfThreeNodeScores) {
  auto scores = Betweenness(Path(3), BetweennessOptions::Exact());
  EXPECT_DOUBLE_EQ(scores.node[0], 0.0);
  EXPECT_DOUBLE_EQ(scores.node[1], 1.0);  // the single (0,2) pair
  EXPECT_DOUBLE_EQ(scores.node[2], 0.0);
}

TEST(BetweennessTest, PathOfThreeEdgeScores) {
  auto g = Path(3);
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  // Each edge carries its endpoint pair plus the (0,2) pair.
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(scores.edge[e], 2.0);
  }
}

TEST(BetweennessTest, PathOfFiveMiddleDominates) {
  auto scores = Betweenness(Path(5), BetweennessOptions::Exact());
  // Node 2 mediates pairs (0,3),(0,4),(1,3),(1,4) = 4.
  EXPECT_DOUBLE_EQ(scores.node[2], 4.0);
  EXPECT_DOUBLE_EQ(scores.node[1], 3.0);
  EXPECT_DOUBLE_EQ(scores.node[0], 0.0);
}

TEST(BetweennessTest, StarCenter) {
  const int n = 8;
  auto scores = Betweenness(Star(n), BetweennessOptions::Exact());
  // Center mediates all C(n-1, 2) leaf pairs.
  EXPECT_DOUBLE_EQ(scores.node[0], (n - 1) * (n - 2) / 2.0);
  for (int u = 1; u < n; ++u) EXPECT_DOUBLE_EQ(scores.node[u], 0.0);
}

TEST(BetweennessTest, StarEdges) {
  const int n = 8;
  auto g = Star(n);
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  // Each spoke carries its own pair plus (n-2) leaf pairs.
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(scores.edge[e], static_cast<double>(n - 1));
  }
}

TEST(BetweennessTest, CliqueNodesAreZero) {
  auto scores = Betweenness(Clique(6), BetweennessOptions::Exact());
  for (double s : scores.node) EXPECT_DOUBLE_EQ(s, 0.0);
  // Every edge carries exactly its endpoint pair.
  for (double s : scores.edge) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(BetweennessTest, CycleSplitsPaths) {
  auto scores = Betweenness(Cycle(4), BetweennessOptions::Exact());
  // Each opposite pair has two shortest paths; each mediates 1/2.
  for (double s : scores.node) EXPECT_DOUBLE_EQ(s, 0.5);
}

TEST(BetweennessTest, BridgeHasMaximumEdgeScore) {
  auto g = TwoTrianglesWithBridge();
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  graph::EdgeId bridge = g.FindEdge(2, 3);
  ASSERT_NE(bridge, graph::kInvalidEdge);
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e != bridge) {
      EXPECT_LT(scores.edge[e], scores.edge[bridge]);
    }
  }
  // 3x3 cross pairs all cross the bridge, plus its endpoint pair is (2,3).
  EXPECT_DOUBLE_EQ(scores.edge[bridge], 9.0);
}

TEST(BetweennessTest, BridgeEndpointsHaveMaxNodeScore) {
  auto g = TwoTrianglesWithBridge();
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  EXPECT_GT(scores.node[2], scores.node[0]);
  EXPECT_DOUBLE_EQ(scores.node[2], scores.node[3]);
}

TEST(BetweennessTest, DisconnectedGraphIsFine) {
  auto g = edgeshed::testing::MustBuild(6, {{0, 1}, {1, 2}, {3, 4}});
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  EXPECT_DOUBLE_EQ(scores.node[1], 1.0);
  EXPECT_DOUBLE_EQ(scores.node[4], 0.0);
}

TEST(BetweennessTest, EmptyGraph) {
  graph::Graph g;
  auto scores = Betweenness(g);
  EXPECT_TRUE(scores.node.empty());
  EXPECT_TRUE(scores.edge.empty());
}

TEST(BetweennessTest, ThreadCountDoesNotChangeResult) {
  Rng rng(31);
  graph::Graph g = graph::ErdosRenyi(200, 800, rng);
  BetweennessOptions one = BetweennessOptions::Exact();
  one.threads = 1;
  BetweennessOptions many = BetweennessOptions::Exact();
  many.threads = 4;
  auto a = Betweenness(g, one);
  auto b = Betweenness(g, many);
  ASSERT_EQ(a.node.size(), b.node.size());
  ASSERT_EQ(a.edge.size(), b.edge.size());
  for (size_t i = 0; i < a.node.size(); ++i) {
    ASSERT_EQ(a.node[i], b.node[i]) << "node " << i;
  }
  for (size_t i = 0; i < a.edge.size(); ++i) {
    ASSERT_EQ(a.edge[i], b.edge[i]) << "edge " << i;
  }
}

TEST(BetweennessTest, SampledEstimatesRankHubsHighly) {
  Rng rng(32);
  graph::Graph g = graph::BarabasiAlbert(2000, 3, rng);
  auto exact = Betweenness(g, BetweennessOptions::Exact());

  BetweennessOptions sampled_options;
  sampled_options.exact_node_threshold = 1;  // force sampling
  sampled_options.sample_sources = 256;
  auto sampled = Betweenness(g, sampled_options);

  auto top_nodes = [](const std::vector<double>& scores, size_t k) {
    std::vector<uint32_t> ids(scores.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                      ids.end(), [&](uint32_t a, uint32_t b) {
                        return scores[a] > scores[b];
                      });
    ids.resize(k);
    return ids;
  };
  auto exact_top = top_nodes(exact.node, 10);
  auto sampled_top = top_nodes(sampled.node, 40);
  std::unordered_set<uint32_t> sampled_set(sampled_top.begin(),
                                           sampled_top.end());
  int hits = 0;
  for (uint32_t u : exact_top) hits += sampled_set.contains(u);
  EXPECT_GE(hits, 6);  // sampled ranking finds most true top nodes
}

TEST(BetweennessTest, SampledMagnitudeIsUnbiasedScale) {
  Rng rng(33);
  graph::Graph g = graph::ErdosRenyi(1000, 4000, rng);
  auto exact = Betweenness(g, BetweennessOptions::Exact());
  BetweennessOptions sampled_options;
  sampled_options.exact_node_threshold = 1;
  sampled_options.sample_sources = 500;
  auto sampled = Betweenness(g, sampled_options);
  double exact_sum = 0;
  double sampled_sum = 0;
  for (double s : exact.node) exact_sum += s;
  for (double s : sampled.node) sampled_sum += s;
  EXPECT_NEAR(sampled_sum / exact_sum, 1.0, 0.15);
}

TEST(EdgesByBetweennessTest, DescendingAndComplete) {
  auto g = TwoTrianglesWithBridge();
  auto order = EdgesByBetweennessDescending(g, BetweennessOptions::Exact());
  EXPECT_EQ(order.size(), g.NumEdges());
  EXPECT_EQ(order[0], g.FindEdge(2, 3));  // bridge first
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(scores.edge[order[i - 1]], scores.edge[order[i]]);
  }
}

TEST(EdgesByBetweennessTest, TiesBrokenByEdgeId) {
  auto g = Clique(5);  // all edges tie
  auto order = EdgesByBetweennessDescending(g, BetweennessOptions::Exact());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// ---- Direction-optimizing hybrid kernel (DESIGN.md §12) ----

void ExpectBitIdentical(const BetweennessScores& a,
                        const BetweennessScores& b) {
  ASSERT_EQ(a.node.size(), b.node.size());
  ASSERT_EQ(a.edge.size(), b.edge.size());
  for (size_t i = 0; i < a.node.size(); ++i) {
    ASSERT_EQ(a.node[i], b.node[i]) << "node " << i;
  }
  for (size_t i = 0; i < a.edge.size(); ++i) {
    ASSERT_EQ(a.edge[i], b.edge[i]) << "edge " << i;
  }
  EXPECT_EQ(a.sources_processed, b.sources_processed);
}

TEST(HybridKernelTest, ExactScoresBitIdenticalToClassic) {
  Rng rng(41);
  std::vector<graph::Graph> graphs;
  graphs.push_back(Path(7));
  graphs.push_back(Star(9));
  graphs.push_back(Clique(6));
  graphs.push_back(Cycle(10));
  graphs.push_back(TwoTrianglesWithBridge());
  graphs.push_back(graph::ErdosRenyi(300, 1200, rng));
  graphs.push_back(graph::BarabasiAlbert(500, 3, rng));
  for (size_t i = 0; i < graphs.size(); ++i) {
    BetweennessOptions classic = BetweennessOptions::Exact();
    classic.kernel = BetweennessOptions::Kernel::kClassic;
    BetweennessOptions hybrid = BetweennessOptions::Exact();
    hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    ExpectBitIdentical(Betweenness(graphs[i], classic),
                       Betweenness(graphs[i], hybrid));
  }
}

TEST(HybridKernelTest, SampledScoresBitIdenticalToClassic) {
  Rng rng(42);
  graph::Graph g = graph::BarabasiAlbert(3000, 3, rng);
  BetweennessOptions classic;
  classic.exact_node_threshold = 1;  // force sampling
  classic.sample_sources = 128;
  classic.kernel = BetweennessOptions::Kernel::kClassic;
  BetweennessOptions hybrid = classic;
  hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
  ExpectBitIdentical(Betweenness(g, classic), Betweenness(g, hybrid));
}

TEST(HybridKernelTest, AggressiveSwitchThresholdStaysBitIdentical) {
  // hybrid_alpha only moves the push/pull break-even point; any value must
  // produce the same bits because both directions share one canonical
  // accumulation order.
  Rng rng(43);
  graph::Graph g = graph::ErdosRenyi(800, 6400, rng);
  BetweennessOptions base = BetweennessOptions::Exact();
  base.kernel = BetweennessOptions::Kernel::kClassic;
  for (double alpha : {0.05, 1.0, 20.0}) {
    BetweennessOptions hybrid = BetweennessOptions::Exact();
    hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
    hybrid.hybrid_alpha = alpha;
    SCOPED_TRACE(::testing::Message() << "alpha " << alpha);
    ExpectBitIdentical(Betweenness(g, base), Betweenness(g, hybrid));
  }
}

TEST(HybridKernelTest, CancelledBeforeStartReturnsZeroedScores) {
  Rng rng(44);
  graph::Graph g = graph::BarabasiAlbert(1000, 4, rng);
  CancellationToken token;
  token.Cancel();
  BetweennessOptions options = BetweennessOptions::Exact();
  options.cancel = &token;
  auto scores = Betweenness(g, options);
  ASSERT_EQ(scores.node.size(), g.NumNodes());
  for (double s : scores.node) EXPECT_EQ(s, 0.0);
  for (double s : scores.edge) EXPECT_EQ(s, 0.0);
}

// ---- Adaptive pivot waves (DESIGN.md §12) ----

TEST(AdaptiveWaveTest, NeverStoppingWaveRunMatchesSinglePass) {
  Rng rng(45);
  graph::Graph g = graph::BarabasiAlbert(2500, 3, rng);
  BetweennessOptions single;
  single.exact_node_threshold = 1;
  single.sample_sources = 96;
  BetweennessOptions waves = single;
  waves.wave_size = 16;
  waves.wave_stability = 2.0;  // > 1: never stop early
  auto a = Betweenness(g, single);
  auto b = Betweenness(g, waves);
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.waves, 1u);
  EXPECT_EQ(b.waves, 6u);  // ceil(96 / 16)
  EXPECT_EQ(b.sources_processed, 96u);
}

TEST(AdaptiveWaveTest, StopsEarlyOnceRankingStabilizes) {
  Rng rng(46);
  graph::Graph g = graph::BarabasiAlbert(4000, 3, rng);
  BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 256;
  options.wave_size = 32;
  options.wave_stability = 0.9;
  auto scores = Betweenness(g, options);
  EXPECT_LT(scores.sources_processed, 256u);
  EXPECT_LT(scores.waves, 8u);
  EXPECT_GE(scores.waves, 2u);  // the stop needs a previous wave to compare

  // The early stop must not cost ranking quality beyond what sampling
  // already costs: compare the early-stopped ranking against the same
  // sampled run with waves disabled, over the top half of the edges (the
  // slice a p=0.5 CRR reduction consumes, and the auto wave_top_k slice).
  // Sampling noise itself dominates the wave truncation, so the two
  // rankings agree well above chance (~0.5 for a random half).
  BetweennessOptions full = options;
  full.wave_size = 0;
  auto full_rank = EdgesByBetweennessDescending(g, full);
  auto fast = EdgesByBetweennessDescending(g, options);
  const size_t slice = g.NumEdges() / 2;
  std::unordered_set<graph::EdgeId> full_top(full_rank.begin(),
                                             full_rank.begin() + slice);
  size_t hits = 0;
  for (size_t i = 0; i < slice; ++i) hits += full_top.contains(fast[i]);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(slice), 0.8);
}

TEST(AdaptiveWaveTest, RescaleUsesProcessedSourceCount) {
  // An early-stopped run must rescale by n/processed, not n/sample_sources,
  // to stay an unbiased estimate of the exact magnitudes.
  Rng rng(47);
  graph::Graph g = graph::ErdosRenyi(1500, 6000, rng);
  BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 512;
  options.wave_size = 64;
  options.wave_stability = 0.85;
  auto sampled = Betweenness(g, options);
  auto exact = Betweenness(g, BetweennessOptions::Exact());
  double exact_sum = 0.0;
  double sampled_sum = 0.0;
  for (double s : exact.node) exact_sum += s;
  for (double s : sampled.node) sampled_sum += s;
  EXPECT_NEAR(sampled_sum / exact_sum, 1.0, 0.2);
}

TEST(AdaptiveWaveTest, WavesOnlyEngageWhenSampling) {
  // Below the exact threshold every source runs; a wave request is ignored.
  auto g = TwoTrianglesWithBridge();
  BetweennessOptions options = BetweennessOptions::FastRanking();
  auto scores = Betweenness(g, options);
  EXPECT_EQ(scores.waves, 1u);
  EXPECT_EQ(scores.sources_processed, g.NumNodes());
  ExpectBitIdentical(scores, Betweenness(g, BetweennessOptions::Exact()));
}

TEST(AdaptiveWaveTest, WaveScheduleIsThreadCountInvariant) {
  Rng rng(48);
  graph::Graph g = graph::BarabasiAlbert(3000, 3, rng);
  BetweennessOptions one;
  one.exact_node_threshold = 1;
  one.sample_sources = 192;
  one.wave_size = 24;
  one.wave_stability = 0.9;
  one.threads = 1;
  const BetweennessScores a = Betweenness(g, one);
  for (int threads : {2, 3, 4, 8}) {
    BetweennessOptions many = one;
    many.threads = threads;
    const BetweennessScores b = Betweenness(g, many);
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    EXPECT_EQ(a.waves, b.waves);
    ExpectBitIdentical(a, b);
  }
}

TEST(AdaptiveWaveTest, WavesSmallerThanTheThreadCountAreBitIdentical) {
  // Waves of 2 or 3 sources run fewer sweeps at once than there are
  // threads, and waves of 3 over 4-source stripes straddle stripes.
  Rng rng(51);
  const graph::Graph g = graph::BarabasiAlbert(2000, 3, rng);
  for (uint64_t wave_size : {2u, 3u}) {
    BetweennessOptions one = BetweennessOptions::FastRanking();
    one.exact_node_threshold = 1;
    one.sample_sources = 64;
    one.wave_size = wave_size;
    one.wave_stability = 0.97;
    one.threads = 1;
    const BetweennessScores a = Betweenness(g, one);
    EXPECT_GE(a.waves, 3u);
    for (int threads : {4, 8}) {
      BetweennessOptions many = one;
      many.threads = threads;
      const BetweennessScores b = Betweenness(g, many);
      SCOPED_TRACE(::testing::Message() << "waves of " << wave_size << ", "
                                        << threads << " threads");
      EXPECT_EQ(a.waves, b.waves);
      ExpectBitIdentical(a, b);
    }
  }
}

TEST(AdaptiveWaveTest, CancelFromAnotherThreadDuringConcurrentWaves) {
  // 256 sources in waves of 8 at 4 threads take the concurrent path (each
  // wave sits inside one stripe). A trip from another thread must end the
  // run within a few sweeps, and the caller sees the tripped token.
  Rng rng(52);
  const graph::Graph g = graph::BarabasiAlbert(60000, 4, rng);
  CancellationToken token;
  BetweennessOptions options = BetweennessOptions::FastRanking();
  options.exact_node_threshold = 1;
  options.wave_stability = 2.0;  // never stops on its own
  options.threads = 4;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const BetweennessScores scores = Betweenness(g, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_TRUE(CancellationRequested(&token));
  EXPECT_LT(scores.sources_processed, 256u);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}


// ---- Top-k selection of the wave stability check ----

/// The selection the stability check made before the radix select:
/// nth_element by (score desc, id asc), the k winners sorted by id.
std::vector<graph::EdgeId> TopKEdgeIdsOracle(const std::vector<double>& scores,
                                             uint64_t k) {
  std::vector<graph::EdgeId> ids(scores.size());
  std::iota(ids.begin(), ids.end(), graph::EdgeId{0});
  k = std::min<uint64_t>(k, ids.size());
  std::nth_element(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(k),
                   ids.end(), [&scores](graph::EdgeId a, graph::EdgeId b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExpectMaskMatchesOracle(const std::vector<double>& scores, uint64_t k) {
  const std::vector<graph::EdgeId> expected = TopKEdgeIdsOracle(scores, k);
  for (int threads : {1, 4}) {
    const std::vector<uint64_t> mask = TopKEdgeMask(scores, k, threads);
    ASSERT_EQ(mask.size(), (scores.size() + 63) / 64);
    std::vector<graph::EdgeId> got;
    for (uint64_t e = 0; e < scores.size(); ++e) {
      if ((mask[e / 64] >> (e % 64)) & 1) got.push_back(e);
    }
    for (uint64_t e = scores.size(); e < mask.size() * 64; ++e) {
      ASSERT_EQ((mask[e / 64] >> (e % 64)) & 1, 0u) << "padding bit " << e;
    }
    ASSERT_EQ(got, expected) << "m=" << scores.size() << " k=" << k
                             << " threads=" << threads;
  }
}

TEST(TopKEdgeMaskTest, MatchesNthElementOnRandomScoresWithHeavyTies) {
  std::mt19937_64 gen(50);
  for (uint64_t m : {1u, 7u, 63u, 64u, 65u, 1000u, 40000u, 300001u}) {
    std::vector<double> scores(m);
    // Few distinct values, so the k-th score has many ties on both sides.
    for (double& s : scores) s = static_cast<double>(gen() % 5) * 0.25;
    for (uint64_t k : {uint64_t{1}, m / 3 + 1, m / 2, m - 1, m, m + 5}) {
      ExpectMaskMatchesOracle(scores, k);
    }
    // Distinct continuous scores plus a block of exact zeros.
    std::uniform_real_distribution<double> unit(0.0, 1e6);
    for (uint64_t e = 0; e < m; ++e) scores[e] = e % 3 == 0 ? 0.0 : unit(gen);
    for (uint64_t k : {uint64_t{1}, m / 2, (2 * m) / 3 + 1, m}) {
      ExpectMaskMatchesOracle(scores, k);
    }
  }
}

TEST(TopKEdgeMaskTest, AllEqualAndAllZeroScoresPickTheLowestIds) {
  for (double value : {0.0, 3.5}) {
    for (uint64_t m : {5u, 64u, 130u, 70000u}) {
      const std::vector<double> scores(m, value);
      for (uint64_t k : {uint64_t{0}, uint64_t{1}, m / 2, m, 2 * m}) {
        ExpectMaskMatchesOracle(scores, k);
      }
    }
  }
}

TEST(TopKEdgeMaskTest, NegativeZeroTiesWithZero) {
  const std::vector<double> scores = {0.0, -0.0, 1.0, -0.0, 0.0};
  ExpectMaskMatchesOracle(scores, 3);
}

TEST(TopKEdgeMaskTest, EmptyScoresGiveAnEmptyMask) {
  EXPECT_TRUE(TopKEdgeMask({}, 10).empty());
}

// ---- Pinned bits ----

/// FNV-1a over the exact bit patterns of every score plus the wave
/// bookkeeping, so any change to a single accumulation order shows up.
uint64_t ScoreDigest(const BetweennessScores& scores) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (double s : scores.node) mix(std::bit_cast<uint64_t>(s));
  for (double s : scores.edge) mix(std::bit_cast<uint64_t>(s));
  mix(scores.sources_processed);
  mix(scores.waves);
  return hash;
}

/// Seeded sampled FastRanking runs whose digests were taken from the
/// serial per-stripe kernel. `sources` and `wave_size` pick how waves sit
/// in the 16 source stripes: 256 sources in waves of 8 keep every wave
/// inside one stripe; 192 sources in waves of 24 straddle stripes. A 0.95
/// stability target keeps both runs going for six waves.
struct PinnedRun {
  uint64_t sources;
  uint64_t wave_size;
  double stability;
  uint64_t digest;
};

TEST(BetweennessTest, SampledFastRankingBitsArePinned) {
  Rng rng(49);
  const graph::Graph g = graph::BarabasiAlbert(6000, 4, rng);
  for (const PinnedRun& run :
       {PinnedRun{256, 8, 0.95, 0x4e3e799d1caa9940ull},
        PinnedRun{192, 24, 0.95, 0xe685aff45c6c1d8full}}) {
    for (int threads : {1, 2, 3, 4, 8}) {
      BetweennessOptions options = BetweennessOptions::FastRanking();
      options.exact_node_threshold = 1;  // force sampling
      options.sample_sources = run.sources;
      options.wave_size = run.wave_size;
      options.wave_stability = run.stability;
      options.threads = threads;
      const BetweennessScores scores = Betweenness(g, options);
      SCOPED_TRACE(::testing::Message()
                   << run.sources << " sources, waves of " << run.wave_size
                   << ", " << threads << " threads");
      EXPECT_EQ(scores.waves, 6u);
      EXPECT_EQ(ScoreDigest(scores), run.digest)
          << std::hex << ScoreDigest(scores);
    }
  }
}

}  // namespace
}  // namespace edgeshed::analytics
