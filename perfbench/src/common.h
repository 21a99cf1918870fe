// Shared plumbing of the repository benchmark program: command-line
// arguments, sample statistics, op accounting, the result report, span
// tracing around calls into the library, and input provenance.
#ifndef EDGESHED_PERFBENCH_COMMON_H_
#define EDGESHED_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "obs/tracer.h"

namespace edgeshed::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots and the trace file.
  std::string out_dir = ".bench_out";
  /// Source revision recorded in the provenance block.
  std::string rev = "unknown";
};

/// Derives the i-th independent stream seed from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// A tail read the way the benchmark reports every tail: the highest
/// percentile that still has at least ten samples beyond it. Below 21
/// samples that percentile would not lie above the median, so the maximum
/// is reported instead and `defined` is false.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
  bool defined = false;
};

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
Tail TailOf(std::vector<double> values);

/// Rounds a run's op samples are cut into for op_tail_s.
inline constexpr size_t kTailRounds = 4;

/// The tail every workload reports as op_tail_s. The op samples, in the
/// order the ops ran, are cut into kTailRounds consecutive rounds of equal
/// size (give or take one); each round's tail is read with TailOf and the
/// median of the round tails is reported. A stretch of noise from the shared
/// machine then moves the tail of the round it falls in, not the reported
/// value. A round of 21 samples or more still has ten beyond its tail; a
/// smaller one contributes its maximum.
struct OpTail {
  double value = 0.0;
  std::vector<Tail> rounds;

  /// "the median of 4 round tails: p94.3 of 175, ..." for report lines.
  std::string Describe() const;
};
OpTail OpTailOf(const std::vector<double>& ordered);

/// Seconds since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-workload op accounting. Every attempted op ends in exactly one of
/// succeeded / refused (ResourceExhausted) / expired (DeadlineExceeded) /
/// errored; check failures are counted on top, against ops that returned.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;
  uint64_t expired = 0;
  uint64_t errored = 0;
  uint64_t check_failed = 0;

  /// Books one finished op by its status.
  void Record(const Status& status);
  /// Records a correctness check; a false `ok` counts as a check failure
  /// and the first few messages go to stderr.
  void Check(bool ok, const std::string& what);

  uint64_t failed() const { return refused + expired + errored + check_failed; }
};

/// Named metrics with units, printed one per line and then as the final
/// JSON result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Human-readable context printed before the result line only.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Prints notes, every metric, then the JSON result line restricted to
  /// `json_metrics` (names absent from the report are an error).
  int Print(const Outcomes& outcomes,
            const std::vector<std::string>& json_metrics) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Where one input graph came from, printed with every run.
struct Provenance {
  std::string name;
  std::string generator;
  double scale = 1.0;
  uint64_t seed = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
};
void NoteProvenance(Report* report, const Args& args,
                    const std::vector<Provenance>& graphs);

/// One generated input: the surrogate graph of a paper dataset, made by
/// graph::MakeDataset from a seed and written as a v3 snapshot at `path`.
struct GraphInput {
  Provenance provenance;
  std::string path;
  /// The in-memory graph, kept for correctness checks only; the measured
  /// path always loads the snapshot.
  std::shared_ptr<const graph::Graph> graph;
};
StatusOr<GraphInput> MakeGraphInput(graph::DatasetId id, double scale,
                                    uint64_t seed, const std::string& path);

/// Runs `setup` `repeats` times, discarding all but the last state, and
/// returns the median wall time of one setup.
template <typename State, typename SetupFn>
StatusOr<double> RepeatedSetup(int repeats, std::unique_ptr<State>* state,
                               SetupFn setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    state->reset();  // tear the previous state down before timing a new one
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<State>> made = setup();
    if (!made.ok()) return made.status();
    *state = std::move(*made);
    seconds.push_back(SecondsSince(start));
  }
  return Median(std::move(seconds));
}

/// Span recording around calls into the library. Disabled (every span
/// inert) in untraced runs; in traced runs each op gets its own trace id,
/// nested spans record their parent, and the spans are kept in memory until
/// WriteJson at exit.
class Trace {
 public:
  explicit Trace(bool enabled);

  /// A span parented onto the calling thread's current span, or the root
  /// of a new trace when there is none. Inert when `on` is false.
  obs::Span Span(const std::string& name, bool on = true);

  /// Median per-trace self time of every span name: a span's duration
  /// minus the part of it covered by its children, summed per trace.
  std::map<std::string, double> MedianSelfSeconds() const;
  Status WriteJson(const std::string& path) const;

 private:
  std::unique_ptr<obs::Tracer> tracer_;
};

/// The value of stat `name` in a shedding result's stats, 0 when absent.
double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& name);

/// Process peak resident set size in MiB.
double PeakRssMb();

}  // namespace edgeshed::perfbench

#endif  // EDGESHED_PERFBENCH_COMMON_H_
