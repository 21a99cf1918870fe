// The benchmark's workloads. Each one sets up its inputs from `args.seed`,
// measures for `args.seconds`, checks every output it gets, and fills
// `report` with its end-to-end metrics and (in traced runs) its per-layer
// metrics. A non-OK status means the workload could not run at all.
#ifndef EDGESHED_PERFBENCH_WORKLOADS_H_
#define EDGESHED_PERFBENCH_WORKLOADS_H_

#include <cstddef>

#include "common.h"

namespace edgeshed::perfbench {

/// Cold, uncached reductions of snapshot files, as in the paper's Table 3.
Status RunShedCold(const Args& args, Trace* trace, Report* report,
                   Outcomes* outcomes);
/// Open-loop multi-tenant traffic against a warmed in-process RPC server.
Status RunServeMix(const Args& args, Trace* trace, Report* report,
                   Outcomes* outcomes);
/// Mutation batches, each followed by a waited incremental re-shed.
Status RunMutate(const Args& args, Trace* trace, Report* report,
                 Outcomes* outcomes);

/// Number of times each workload repeats its setup to report setup_s.
inline constexpr int kSetupRepeats = 3;

/// Terminal job records the benchmark's servers keep. Each record holds its
/// kept set, so with the library default (1024) peak memory would grow with
/// the number of ops a run completes, i.e. with machine speed; 128 still
/// covers every job a client polls right after its answer.
inline constexpr size_t kRetainedJobs = 128;

}  // namespace edgeshed::perfbench

#endif  // EDGESHED_PERFBENCH_WORKLOADS_H_
