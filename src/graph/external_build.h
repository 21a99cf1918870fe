#ifndef EDGESHED_GRAPH_EXTERNAL_BUILD_H_
#define EDGESHED_GRAPH_EXTERNAL_BUILD_H_

#include <cstdint>
#include <string>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "graph/binary_io.h"
#include "graph/source.h"

namespace edgeshed::graph {

/// Out-of-core text-to-snapshot converter (DESIGN.md §14): builds a v3
/// snapshot from an edge list too large to materialize as an in-memory
/// Graph. Peak memory is O(num_nodes) resident state (the id-intern table,
/// original ids, degrees) plus `memory_budget_bytes` of edge buffers —
/// never O(num_edges).
///
/// Pipeline: a reader thread streams the file in blocks through a bounded
/// queue (read ahead overlaps parse); blocks are parsed in parallel and
/// interned serially in file order (so the dense numbering is bit-identical
/// to LoadEdgeList); canonical edges accumulate in a budget-bounded buffer
/// that is sorted, deduped, and spilled to a run file when full; runs are
/// k-way merged into the unique sorted edge list, which assigns EdgeIds,
/// accumulates degrees, and spills reverse entries {v, u, id}; a final
/// merge-join of the forward edge stream and the sorted reverse runs emits
/// the CSR sections straight into the output file at their independent
/// offsets. The resulting snapshot is byte-identical to
/// SaveBinaryGraph(LoadEdgeList(...)) on the same input.
struct ExternalBuildOptions {
  /// Budget for the spill buffers and merge read buffers. The O(num_nodes)
  /// resident state is NOT counted against this. Minimum 1 MiB (smaller
  /// values are clamped up).
  uint64_t memory_budget_bytes = uint64_t{256} << 20;
  /// Directory for run files; empty = alongside the output path.
  std::string temp_dir;
  /// Output layout. `original_ids` must be empty (the converter discovers
  /// the id table itself and embeds it whenever the input numbering is not
  /// the identity).
  SnapshotOptions snapshot;
  int threads = 0;  // 0 = DefaultThreadCount()
  const CancellationToken* cancel = nullptr;
};

struct ExternalBuildStats {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;       // unique undirected edges written
  uint64_t input_edges = 0;     // parsed "u v" pairs before dedup
  uint64_t edge_runs = 0;       // sorted runs spilled in the shuffle phase
  uint64_t reverse_runs = 0;    // sorted runs spilled in the transpose phase
  uint64_t spilled_bytes = 0;   // total bytes written to temp run files
  /// Largest transient buffer allocation (the budgeted part of the peak).
  uint64_t peak_buffer_bytes = 0;
};

/// Converts `source` (must be a text edge list, or auto-detect to one) into
/// a v3 snapshot at `out_path`. Temp run files live next to the output (or
/// in options.temp_dir) and are removed on both success and failure.
StatusOr<ExternalBuildStats> BuildSnapshotExternal(
    const GraphSource& source, const std::string& out_path,
    const ExternalBuildOptions& options = {});

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_EXTERNAL_BUILD_H_
