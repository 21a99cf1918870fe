// Ingest-path benchmark suite (ISSUE 9).
//
// Measures every on-disk route into a served Graph — text edge list parse,
// v3 snapshot copy load, v3 snapshot mmap load, and the out-of-core
// text-to-v3 converter — and emits medians plus
// peak RSS to BENCH_ingest.json (schema edgeshed-bench-ingest-v1, diffed by
// tools/compare_bench.py like the hot-path suite).
//
// Unlike the hot-path suite, every sample runs in a forked child so peak
// RSS is per-op, not cumulative: the parent reads the child's elapsed time
// from a pipe and its ru_maxrss from wait4(2). One untimed warm-up fork per
// op primes the page cache, so every format reads warm files — the
// comparison is parse/copy cost, not disk.
//
// Two in-process gates enforce the ISSUE-9 acceptance bars on every run:
//   - mmap-loading the v3 snapshot must be at least 5x faster than text
//     ingest of the same graph, at no more than 3/4 of its peak-RSS delta
//     over an empty child;
//   - the out-of-core converter's snapshot must be byte-identical to the
//     one SaveBinaryGraph writes from the in-memory graph.
//
// Usage:
//   bench_ingest [--out=BENCH_ingest.json] [--repeats=5] [--smoke]
//                [--rev=<git sha>]
//
// --smoke shrinks the graph (~160K edges instead of ~640K) so CI finishes
// in seconds; --rev defaults to $EDGESHED_GIT_REV, then "unknown".

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "eval/flags.h"
#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/external_build.h"
#include "graph/generators/generators.h"
#include "graph/source.h"

namespace edgeshed::bench {
namespace {

struct Sample {
  double seconds = 0.0;
  long rss_kb = 0;
};

/// Runs `body` in a forked child and reports its wall time (written back
/// through a pipe) and peak RSS (wait4's ru_maxrss). Forking isolates the
/// measurement: the child starts from the parent's small baseline, so its
/// ru_maxrss is dominated by what the op itself allocates or touches.
template <typename Body>
Sample RunForked(Body&& body) {
  int fds[2];
  EDGESHED_CHECK(pipe(fds) == 0) << "pipe failed";
  const pid_t pid = fork();
  EDGESHED_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    close(fds[0]);
    Stopwatch watch;
    body();
    const double seconds = watch.ElapsedSeconds();
    const ssize_t wrote = write(fds[1], &seconds, sizeof(seconds));
    _exit(wrote == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
  }
  close(fds[1]);
  Sample sample;
  const ssize_t got = read(fds[0], &sample.seconds, sizeof(sample.seconds));
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  const pid_t waited = wait4(pid, &status, 0, &usage);
  EDGESHED_CHECK(waited == pid) << "wait4 failed";
  EDGESHED_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "benchmark child died (status " << status << ")";
  EDGESHED_CHECK(got == static_cast<ssize_t>(sizeof(sample.seconds)));
  sample.rss_kb = usage.ru_maxrss;
  return sample;
}

double MedianDouble(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

long MedianLong(std::vector<long> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct BenchResult {
  std::string graph;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  std::string op;
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  long peak_rss_kb = 0;
};

/// Forks `repeats` measured children (after one untimed warm-up fork that
/// primes the page cache) and records median/min/max time plus median peak
/// RSS under `op`.
template <typename Body>
BenchResult& TimeOp(const std::string& graph_name, uint64_t nodes,
                    uint64_t edges, const std::string& op, int repeats,
                    Body&& body, std::vector<BenchResult>* results) {
  RunForked(body);  // warm-up, untimed
  std::vector<double> seconds;
  std::vector<long> rss;
  seconds.reserve(static_cast<size_t>(repeats));
  rss.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const Sample sample = RunForked(body);
    seconds.push_back(sample.seconds);
    rss.push_back(sample.rss_kb);
  }
  BenchResult result;
  result.graph = graph_name;
  result.nodes = nodes;
  result.edges = edges;
  result.op = op;
  result.median_seconds = MedianDouble(seconds);
  result.min_seconds = *std::min_element(seconds.begin(), seconds.end());
  result.max_seconds = *std::max_element(seconds.begin(), seconds.end());
  result.peak_rss_kb = MedianLong(rss);
  std::printf("  %-18s %-20s median=%.4fs min=%.4fs max=%.4fs rss=%ldKB\n",
              graph_name.c_str(), op.c_str(), result.median_seconds,
              result.min_seconds, result.max_seconds, result.peak_rss_kb);
  results->push_back(result);
  return results->back();
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EDGESHED_CHECK(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

std::string TempPath(const std::string& leaf) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
         "/edgeshed_bench_ingest_" + leaf;
}

void WriteJson(const std::string& path, const std::string& rev, int repeats,
               long baseline_rss_kb, const std::vector<BenchResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  EDGESHED_CHECK(out != nullptr) << "cannot write " << path;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"edgeshed-bench-ingest-v1\",\n");
  std::fprintf(out, "  \"git_rev\": \"%s\",\n", rev.c_str());
  std::fprintf(out, "  \"threads\": %d,\n", DefaultThreadCount());
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"baseline_rss_kb\": %ld,\n", baseline_rss_kb);
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"graph\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"op\": \"%s\", \"median_seconds\": %.6f, "
                 "\"min_seconds\": %.6f, \"max_seconds\": %.6f, "
                 "\"peak_rss_kb\": %ld}%s\n",
                 r.graph.c_str(), static_cast<unsigned long long>(r.nodes),
                 static_cast<unsigned long long>(r.edges), r.op.c_str(),
                 r.median_seconds, r.min_seconds, r.max_seconds,
                 r.peak_rss_kb, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu series, threads=%d, rev=%s)\n", path.c_str(),
              results.size(), DefaultThreadCount(), rev.c_str());
}

int Main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_ingest.json");
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5).value());
  const bool smoke = flags.GetBool("smoke", false);
  const char* rev_env = std::getenv("EDGESHED_GIT_REV");
  const std::string rev =
      flags.GetString("rev", rev_env != nullptr ? rev_env : "unknown");

  std::printf("edgeshed ingest suite: threads=%d repeats=%d%s\n",
              DefaultThreadCount(), repeats, smoke ? " (smoke)" : "");

  const std::string graph_name = smoke ? "ba_160k" : "ba_640k";
  const std::string text_path = TempPath(graph_name + ".txt");
  const std::string v3_path = TempPath(graph_name + ".v3.esg");
  const std::string converted_path = TempPath(graph_name + ".converted.esg");

  // Prepare every on-disk representation from one graph, then free the
  // in-memory copies so forked children inherit a small baseline RSS.
  // The text reload (not the generator output) is the reference: its node
  // numbering and original-id remap are what every converted artifact must
  // reproduce, so all three loads below deserialize the identical graph.
  uint64_t nodes = 0;
  uint64_t edges = 0;
  {
    Rng rng(9);
    graph::Graph generated = smoke ? graph::BarabasiAlbert(20000, 8, rng)
                                   : graph::BarabasiAlbert(80000, 8, rng);
    Status save = graph::SaveEdgeList(generated, text_path);
    EDGESHED_CHECK(save.ok()) << save.ToString();
    auto ref = graph::LoadGraph(text_path);
    EDGESHED_CHECK(ref.ok()) << ref.status().ToString();
    nodes = ref->graph.NumNodes();
    edges = ref->graph.NumEdges();
    graph::SnapshotOptions v3;
    v3.original_ids = ref->original_ids;
    save = graph::SaveBinaryGraph(ref->graph, v3_path, v3);
    EDGESHED_CHECK(save.ok()) << save.ToString();
  }
  std::printf("%s: %s nodes, %s edges\n", graph_name.c_str(),
              FormatWithCommas(nodes).c_str(), FormatWithCommas(edges).c_str());

  // Empty-child baseline: what a fork costs in RSS before the op runs.
  // Per-op deltas over this baseline are what the RSS gate compares.
  const long baseline_rss_kb = RunForked([] {}).rss_kb;
  std::printf("  forked-child baseline RSS: %ld KB\n", baseline_rss_kb);

  std::vector<BenchResult> results;
  auto check_load = [edges](const graph::GraphSource& source,
                            const graph::IngestOptions& options) {
    auto loaded = graph::LoadGraph(source, options);
    EDGESHED_CHECK(loaded.ok()) << loaded.status().ToString();
    EDGESHED_CHECK_EQ(loaded->graph.NumEdges(), edges);
  };

  TimeOp(graph_name, nodes, edges, "ingest_text", repeats,
         [&] { check_load({text_path, graph::GraphFormat::kText}, {}); },
         &results);
  graph::IngestOptions copy_load;
  copy_load.mmap = false;
  TimeOp(graph_name, nodes, edges, "snapshot_v3_load", repeats,
         [&] {
           check_load({v3_path, graph::GraphFormat::kSnapshot}, copy_load);
         },
         &results);
  TimeOp(graph_name, nodes, edges, "snapshot_v3_mmap", repeats,
         [&] { check_load({v3_path, graph::GraphFormat::kSnapshot}, {}); },
         &results);

  // Out-of-core converter, budget far below the graph's in-memory size so
  // the run always exercises the spill/merge path.
  graph::ExternalBuildOptions external;
  external.memory_budget_bytes = (smoke ? 1ull : 4ull) << 20;
  TimeOp(graph_name, nodes, edges, "external_convert", repeats,
         [&] {
           auto stats = graph::BuildSnapshotExternal(text_path, converted_path,
                                                     external);
           EDGESHED_CHECK(stats.ok()) << stats.status().ToString();
           EDGESHED_CHECK_EQ(stats->num_edges, edges);
         },
         &results);

  // --- Gate 1: the converter's output is byte-identical to the in-memory
  // writer's. One cheap untimed comparison; any drift here would also break
  // resumable fleets that mix converted and saved shards. ---
  EDGESHED_CHECK(ReadWholeFile(converted_path) == ReadWholeFile(v3_path))
      << "external converter output drifted from SaveBinaryGraph v3";
  std::printf("  converter output byte-identical to SaveBinaryGraph v3\n");

  // --- Gate 2: the ISSUE-9 acceptance bar — mmap-loading the v3 snapshot
  // beats text ingest by >=5x and stays materially below its peak-RSS
  // delta. RSS is compared as deltas over the empty-child baseline so the
  // shared fork cost cancels out. ---
  auto find = [&](const std::string& op) -> const BenchResult& {
    for (const BenchResult& r : results) {
      if (r.op == op) return r;
    }
    EDGESHED_CHECK(false) << "missing op " << op;
    return results.front();
  };
  const BenchResult& text = find("ingest_text");
  const BenchResult& mmap = find("snapshot_v3_mmap");
  const double speedup = text.median_seconds / mmap.median_seconds;
  const long text_delta = std::max(1L, text.peak_rss_kb - baseline_rss_kb);
  const long mmap_delta = std::max(0L, mmap.peak_rss_kb - baseline_rss_kb);
  std::printf(
      "  mmap v3 vs text ingest: %.1fx faster, RSS delta %ldKB vs %ldKB\n",
      speedup, mmap_delta, text_delta);
  EDGESHED_CHECK_GE(speedup, 5.0)
      << "mmap v3 load lost its >=5x margin over text ingest";
  EDGESHED_CHECK_LE(mmap_delta * 4, text_delta * 3)
      << "mmap v3 load no longer materially below text-ingest peak RSS";

  WriteJson(out, rev, repeats, baseline_rss_kb, results);

  for (const std::string& path : {text_path, v3_path, converted_path}) {
    std::remove(path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace edgeshed::bench

int main(int argc, char** argv) { return edgeshed::bench::Main(argc, argv); }
