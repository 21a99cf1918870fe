#include "graph/binary_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "graph/generators/generators.h"
#include "graph/snapshot_format.h"
#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

class BinaryIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size()));
}

TEST_F(BinaryIoTest, RoundTripPreservesEverything) {
  auto g = PaperExampleGraph();
  const std::string path = TempPath("paper.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  EXPECT_EQ(ReadAll(path).substr(0, 8), "EDGSHED3");
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded->graph.edges(), g.edges());
}

TEST_F(BinaryIoTest, RoundTripKeepsIsolatedVertices) {
  auto g = edgeshed::testing::MustBuild(10, {{0, 1}});
  const std::string path = TempPath("isolated.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumNodes(), 10u);  // unlike text edge lists
}

TEST_F(BinaryIoTest, RoundTripLargeRandomGraph) {
  Rng rng(9);
  Graph g = ErdosRenyi(2000, 8000, rng);
  const std::string path = TempPath("large.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.edges(), g.edges());
}

TEST_F(BinaryIoTest, EmptyGraphRoundTrip) {
  Graph g;
  const std::string path = TempPath("empty.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumNodes(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
}

TEST_F(BinaryIoTest, MissingFileIsIOError) {
  auto loaded = LoadSnapshot(TempPath("missing.esg"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(BinaryIoTest, WrongMagicRejected) {
  const std::string path = TempPath("bad_magic.esg");
  std::ofstream(path) << "definitely not a graph file, sorry";
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, TruncatedFileRejected) {
  auto g = PaperExampleGraph();
  const std::string path = TempPath("trunc.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  const std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() - 6));  // chop the last 6
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, SaveToBadPathFails) {
  auto g = PaperExampleGraph();
  EXPECT_FALSE(SaveBinaryGraph(g, "/no_such_dir_xyz/g.esg").ok());
}

TEST_F(BinaryIoTest, AnyFlippedByteIsDataLoss) {
  // Flip every byte of the file in turn, through both load paths. The
  // magic, the header fields and the data region are covered (wrong magic,
  // field sanity, header CRC, chunk CRCs), so those flips must fail. The
  // zero padding [HeaderBytes(), DataStart()) between the header and the
  // first section is the one range no check covers: a flip there must load
  // the original graph unchanged. A small page_align keeps the file short.
  auto g = edgeshed::testing::MustBuild(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::string path = TempPath("bitrot.esg");
  SnapshotOptions options;
  options.page_align = 64;
  ASSERT_TRUE(SaveBinaryGraph(g, path, options).ok());
  const std::string pristine = ReadAll(path);
  auto header = DecodeSnapshotHeader(pristine.data(), pristine.size(), path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  const uint64_t gap_begin = header->HeaderBytes();
  const uint64_t gap_end = header->DataStart();
  ASSERT_LT(gap_begin, gap_end);
  ASSERT_LT(gap_end, pristine.size());
  int data_loss = 0;
  for (const bool mmap : {true, false}) {
    IngestOptions ingest;
    ingest.mmap = mmap;
    for (size_t i = 0; i < pristine.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "byte " << i << " mmap " << mmap);
      std::string corrupt = pristine;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
      WriteAll(path, corrupt);
      auto loaded = LoadSnapshot(path, ingest);
      if (i >= gap_begin && i < gap_end) {
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded->graph.NumNodes(), g.NumNodes());
        EXPECT_EQ(loaded->graph.edges(), g.edges());
        continue;
      }
      ASSERT_FALSE(loaded.ok());
      // Flips that wreck structure first (magic, a count or alignment out
      // of range) fail as InvalidArgument before any checksum is reached;
      // everything else is a header or chunk CRC catch.
      EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                  loaded.status().code() == StatusCode::kInvalidArgument)
          << loaded.status();
      if (loaded.status().code() == StatusCode::kDataLoss) ++data_loss;
    }
  }
  EXPECT_GT(data_loss, 0);
}

}  // namespace
}  // namespace edgeshed::graph
