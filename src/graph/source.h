#ifndef EDGESHED_GRAPH_SOURCE_H_
#define EDGESHED_GRAPH_SOURCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "graph/graph.h"

namespace edgeshed::graph {

/// Result of loading a graph from any on-disk representation.
struct LoadedGraph {
  Graph graph;
  /// original_ids[i] is the id the input used for dense node i; node ids in
  /// SNAP files are arbitrary and sparse, so loaders remap them. Snapshots
  /// written without an id table leave this empty, meaning identity.
  std::vector<uint64_t> original_ids;
};

/// On-disk graph representations the unified loader understands.
/// DESIGN.md §14 has the format reference table.
enum class GraphFormat {
  kAuto,      // sniff from the leading bytes of the file
  kText,      // SNAP-style whitespace edge list ("u v" lines, # comments)
  kSnapshot,  // "EDGSHED3" CSR snapshot (graph/binary_io.h)
};

/// Where to load a graph from. `format = kAuto` sniffs the file's magic:
/// a snapshot magic, live or retired, selects the snapshot loader (which
/// rejects every magic but "EDGSHED3"), anything else is treated as text.
/// Explicit formats skip sniffing and fail with InvalidArgument when the
/// bytes disagree (a v3 snapshot handed to the text parser reports the
/// detected magic, not a line-1 parse error).
struct GraphSource {
  std::string path;
  GraphFormat format = GraphFormat::kAuto;

  GraphSource() = default;
  /// Implicit from a path: LoadGraph("graph.txt") auto-detects.
  GraphSource(std::string p) : path(std::move(p)) {}          // NOLINT
  GraphSource(const char* p) : path(p) {}                     // NOLINT
  GraphSource(std::string p, GraphFormat f)
      : path(std::move(p)), format(f) {}
};

/// Knobs shared by every loader behind LoadGraph.
struct IngestOptions {
  /// Worker threads for parsing / checksum verification / validation
  /// (0 = DefaultThreadCount()).
  int threads = 0;
  /// Serve v3 snapshots zero-copy from a shared file mapping instead of
  /// copying the CSR onto the heap. Ignored for text, which is always
  /// parsed onto the heap.
  bool mmap = true;
  /// Verify snapshot checksums and run deep O(n+m) structural validation.
  /// Turning this off keeps the O(n) shape checks but trusts file content —
  /// for repeated loads of snapshots this process just wrote.
  bool verify_checksums = true;
  /// Optional cooperative cancel; loaders poll at coarse grain and return
  /// Cancelled/DeadlineExceeded mid-ingest.
  const CancellationToken* cancel = nullptr;
};

/// Classifies leading file bytes (8+ for a definite answer): "EDGSHED3"
/// is a snapshot, everything else is text — except the retired magics
/// "EDGSHED1", "EDGSHED2" and "EDGSHEDL", which also classify as snapshots
/// so the snapshot loader rejects them by name instead of the text parser
/// failing on line 1.
GraphFormat SniffGraphFormat(std::string_view leading_bytes);

/// Sniffs the on-disk format from the file's leading bytes as
/// SniffGraphFormat does (an empty file is text). IOError when the file
/// cannot be opened.
StatusOr<GraphFormat> DetectGraphFormat(const std::string& path);

/// Unified entry point for both on-disk graph representations: text edge
/// lists and CSR snapshots (copy or mmap). This is the
/// API the CLI, GraphStore, and the dist fleet all load through.
StatusOr<LoadedGraph> LoadGraph(const GraphSource& source,
                                const IngestOptions& options = {});

/// Canonical lowercase name ("auto", "text", "snapshot").
const char* GraphFormatName(GraphFormat format);

/// Parses a format name as accepted by the CLI --format flag; the inverse
/// of GraphFormatName. InvalidArgument on anything else.
StatusOr<GraphFormat> ParseGraphFormat(std::string_view name);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_SOURCE_H_
