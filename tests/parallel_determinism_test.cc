#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "common/parallel.h"
#include "core/crr.h"
#include "graph/edge_list_io.h"
#include "graph/generators/generators.h"
#include "graph/graph_builder.h"

namespace edgeshed {
namespace {

/// Runs every check twice — once with EDGESHED_THREADS=1 and once with
/// EDGESHED_THREADS=8 — and requires bit-identical outputs. The parallel
/// ingest-to-shed hot path promises thread-count invariance (DESIGN.md
/// "Parallel hot path"); these tests enforce it.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* previous = std::getenv("EDGESHED_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
  }

  void TearDown() override {
    if (had_previous_) {
      ::setenv("EDGESHED_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("EDGESHED_THREADS");
    }
  }

  static void SetThreads(const char* value) {
    ::setenv("EDGESHED_THREADS", value, 1);
    ASSERT_EQ(DefaultThreadCount(), std::atoi(value));
  }

  bool had_previous_ = false;
  std::string previous_;
};

/// A messy edge-list file: sparse ids, comments, blanks, duplicates in both
/// orientations, self-loops, extra columns.
std::string WriteMessyEdgeList() {
  const std::string path = ::testing::TempDir() + "/determinism_edges.txt";
  std::ofstream out(path);
  out << "# messy input for the determinism test\n";
  std::mt19937_64 gen(1234);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t u = gen() % 3000 * 17;  // sparse raw ids
    const uint64_t v = gen() % 3000 * 17;
    out << u << '\t' << v;
    if (i % 7 == 0) out << "\t1.5 annotation";  // extra columns
    out << '\n';
    if (i % 503 == 0) out << "% interleaved comment\n\n";
    if (i % 211 == 0) out << v << ' ' << u << '\n';  // reversed duplicate
    if (i % 401 == 0) out << u << ' ' << u << '\n';  // self-loop
  }
  return path;
}

TEST_F(ParallelDeterminismTest, LoadEdgeListIsThreadCountInvariant) {
  const std::string path = WriteMessyEdgeList();

  SetThreads("1");
  auto serial = graph::LoadEdgeList(path);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SetThreads("8");
  auto parallel = graph::LoadEdgeList(path);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->graph.NumNodes(), parallel->graph.NumNodes());
  EXPECT_EQ(serial->graph.edges(), parallel->graph.edges());
  EXPECT_EQ(serial->original_ids, parallel->original_ids);
  std::remove(path.c_str());
}

TEST_F(ParallelDeterminismTest, GraphBuilderBuildIsThreadCountInvariant) {
  std::mt19937_64 gen(99);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> raw;
  for (int i = 0; i < 150000; ++i) {
    raw.emplace_back(static_cast<graph::NodeId>(gen() % 5000),
                     static_cast<graph::NodeId>(gen() % 5000));
  }
  auto build = [&raw]() {
    graph::GraphBuilder builder;
    for (const auto& [u, v] : raw) builder.AddEdge(u, v);
    return builder.Build();
  };

  SetThreads("1");
  graph::Graph serial = build();
  SetThreads("8");
  graph::Graph parallel = build();

  EXPECT_EQ(serial.NumNodes(), parallel.NumNodes());
  EXPECT_EQ(serial.edges(), parallel.edges());
}

TEST_F(ParallelDeterminismTest, BetweennessScoresAreBitIdentical) {
  Rng rng(5);
  graph::Graph g = graph::PowerlawCluster(1500, 4, 0.3, rng);
  analytics::BetweennessOptions options;
  options.exact_node_threshold = 256;  // force sampling
  options.sample_sources = 96;

  SetThreads("1");
  analytics::BetweennessScores serial = analytics::Betweenness(g, options);
  SetThreads("8");
  analytics::BetweennessScores parallel = analytics::Betweenness(g, options);

  // Bit-exact equality, not approximate: the striped reduction fixes the
  // floating-point accumulation order independently of the thread count.
  ASSERT_EQ(serial.node.size(), parallel.node.size());
  ASSERT_EQ(serial.edge.size(), parallel.edge.size());
  for (size_t i = 0; i < serial.node.size(); ++i) {
    ASSERT_EQ(serial.node[i], parallel.node[i]) << "node " << i;
  }
  for (size_t i = 0; i < serial.edge.size(); ++i) {
    ASSERT_EQ(serial.edge[i], parallel.edge[i]) << "edge " << i;
  }

  SetThreads("1");
  auto ranked_serial = analytics::EdgesByBetweennessDescending(g, options);
  SetThreads("8");
  auto ranked_parallel = analytics::EdgesByBetweennessDescending(g, options);
  EXPECT_EQ(ranked_serial, ranked_parallel);
}

TEST_F(ParallelDeterminismTest, HybridWaveScoresAreBitIdentical) {
  // The ranking fast path — hybrid kernel plus adaptive waves — must hold
  // the same bit-identity contract as the single-pass classic kernel: the
  // wave schedule and the early-stop decision are computed from
  // deterministically merged partials, never from thread timing.
  Rng rng(9);
  graph::Graph g = graph::BarabasiAlbert(2000, 4, rng);
  analytics::BetweennessOptions options =
      analytics::BetweennessOptions::FastRanking();
  options.exact_node_threshold = 256;  // force sampling
  options.sample_sources = 96;
  options.wave_stability = 0.9;

  SetThreads("1");
  analytics::BetweennessScores serial = analytics::Betweenness(g, options);
  // Each wave of 8 spans two of the 16 six-source stripes: at 2 threads the
  // stripes sweep in parallel, at 3, 4 and 8 the wave's sources sweep
  // concurrently and are folded into their stripes afterwards.
  for (const char* threads : {"2", "3", "4", "8"}) {
    SCOPED_TRACE(threads);
    SetThreads(threads);
    analytics::BetweennessScores parallel = analytics::Betweenness(g, options);
    ASSERT_EQ(serial.waves, parallel.waves);
    ASSERT_EQ(serial.sources_processed, parallel.sources_processed);
    ASSERT_EQ(serial.node.size(), parallel.node.size());
    for (size_t i = 0; i < serial.node.size(); ++i) {
      ASSERT_EQ(serial.node[i], parallel.node[i]) << "node " << i;
    }
    for (size_t i = 0; i < serial.edge.size(); ++i) {
      ASSERT_EQ(serial.edge[i], parallel.edge[i]) << "edge " << i;
    }
  }
}

TEST_F(ParallelDeterminismTest, CrrKeptEdgesAreThreadCountInvariant) {
  Rng rng(21);
  graph::Graph g = graph::BarabasiAlbert(1200, 5, rng);
  core::CrrOptions options;
  options.seed = 77;
  options.betweenness.exact_node_threshold = 256;
  options.betweenness.sample_sources = 64;
  core::Crr crr(options);

  SetThreads("1");
  auto serial = crr.Reduce(g, 0.4);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  SetThreads("8");
  auto parallel = crr.Reduce(g, 0.4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->kept_edges, parallel->kept_edges);
  EXPECT_EQ(serial->total_delta, parallel->total_delta);
}

}  // namespace
}  // namespace edgeshed
