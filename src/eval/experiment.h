#ifndef EDGESHED_EVAL_EXPERIMENT_H_
#define EDGESHED_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/flags.h"
#include "graph/datasets.h"
#include "graph/graph.h"

namespace edgeshed::eval {

/// Shared configuration for the bench binaries (bench/ directory).
struct BenchConfig {
  /// Global multiplier applied on top of the per-dataset default scale.
  double scale = 1.0;
  /// Paper-scale surrogates (equivalent to scale = 1 for every dataset and
  /// the paper's full LiveJournal size). Default benches shrink the large
  /// datasets so the full harness finishes in minutes (DESIGN.md §4).
  bool full = false;
  /// Generator seed.
  uint64_t seed = 20210419;
  /// Optional directory with real SNAP edge lists (ca-GrQc.txt, ...); used
  /// instead of surrogates when present.
  std::string data_dir;
};

/// Parses --scale, --full, --seed, --data_dir. A malformed --scale or
/// --seed is a fatal CHECK failure: the bench binaries have no usage path.
BenchConfig ParseBenchConfig(const Flags& flags);

/// Per-dataset default scale under `full == false`: the three small
/// datasets run at paper size; com-LiveJournal runs at 1/32 scale.
double DefaultDatasetScale(graph::DatasetId id, bool full);

/// Materializes the bench graph for `id` under `config` (real file if
/// data_dir has one, surrogate otherwise).
graph::Graph LoadBenchGraph(graph::DatasetId id, const BenchConfig& config);

/// "p" column values of the paper's tables: 0.9 down to 0.1.
std::vector<double> PaperPreservationRatios();

}  // namespace edgeshed::eval

#endif  // EDGESHED_EVAL_EXPERIMENT_H_
