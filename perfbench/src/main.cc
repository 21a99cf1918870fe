// Repository benchmark program for edgeshed.
//
//   perfbench --workload shed-cold|serve-mix|mutate --seed N --seconds S
//             --trace 0|1 [--out_dir DIR] [--rev REV]
//
// Prints provenance and every metric it measured, one per line, then one
// JSON result line: with --trace 0 the end-to-end metrics, with --trace 1
// the per-layer metrics of the traced run. perfbench/README.md documents the
// workloads and the metric map.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

#include "common.h"
#include "workloads.h"

namespace edgeshed::perfbench {
namespace {

/// Every end-to-end metric, reported by every workload with tracing off.
const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s",       "op_p50_s", "op_tail_s",   "avg_delta",
      "delta_vs_cold", "ok_ratio", "peak_rss_mb",
  };
  return names;
}

/// Every per-layer metric with its unit, reported by every workload with
/// tracing on; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"graph.load_s", "s"},
      {"graph.write_s", "s"},
      {"analytics.rank_s", "s"},
      {"analytics.rank_t1_s", "s"},
      {"analytics.rank_small_s", "s"},
      {"analytics.sources", "count"},
      {"analytics.sources_small", "count"},
      {"core.rewire_s", "s"},
      {"core.swap_accept_ratio", "ratio"},
      {"core.cold_avg_delta", "ratio"},
      {"service.queue_s", "s"},
      {"service.run_s", "s"},
      {"net.overhead_s", "s"},
      {"net.refused", "count"},
      {"dyn.apply_s", "s"},
      {"dyn.reshed_s", "s"},
      {"dyn.dirty_vertices", "count"},
      {"dyn.full_rank_ratio", "ratio"},
      {"dyn.compacting_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out_dir") {
      args->out_dir = value;
    } else if (flag == "--rev") {
      args->rev = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace edgeshed::perfbench

int main(int argc, char** argv) {
  using namespace edgeshed::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload shed-cold|serve-mix|mutate "
                 "--seed N --seconds S --trace 0|1 [--out_dir DIR] "
                 "[--rev REV]\n");
    return 2;
  }
  Report report;
  Outcomes outcomes;
  Trace trace(args.trace);
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      report.Set(name, 0.0, unit);
    }
  }
  std::filesystem::create_directories(args.out_dir);
  edgeshed::Status status;
  if (args.workload == "shed-cold") {
    status = RunShedCold(args, &trace, &report, &outcomes);
  } else if (args.workload == "serve-mix") {
    status = RunServeMix(args, &trace, &report, &outcomes);
  } else if (args.workload == "mutate") {
    status = RunMutate(args, &trace, &report, &outcomes);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s did not run: %s\n",
                 args.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  report.Set("ok_ratio",
             outcomes.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(outcomes.failed()) /
                             static_cast<double>(outcomes.attempted),
             "ratio");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Note(edgeshed::StrFormat(
      "ops attempted=%llu succeeded=%llu refused=%llu deadline_expired=%llu "
      "errored=%llu check_failed=%llu",
      static_cast<unsigned long long>(outcomes.attempted),
      static_cast<unsigned long long>(outcomes.succeeded),
      static_cast<unsigned long long>(outcomes.refused),
      static_cast<unsigned long long>(outcomes.expired),
      static_cast<unsigned long long>(outcomes.errored),
      static_cast<unsigned long long>(outcomes.check_failed)));
  if (args.trace) {
    const std::string path = edgeshed::StrFormat(
        "%s/trace-%s-%llu.json", args.out_dir.c_str(), args.workload.c_str(),
        static_cast<unsigned long long>(args.seed));
    if (edgeshed::Status written = trace.WriteJson(path); !written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    report.Note("trace written to " + path);
  }
  std::vector<std::string> json_metrics = EndToEndMetrics();
  if (args.trace) {
    json_metrics.clear();
    for (const auto& [name, unit] : PerLayerMetrics()) {
      json_metrics.push_back(name);
    }
  }
  return report.Print(outcomes, json_metrics);
}
