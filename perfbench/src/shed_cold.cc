// shed-cold: the paper's own use. One caller in a closed loop reduces a
// snapshot file once, with no cache: load (mmap, verified checksums), CRR
// shed with a fresh seed, build the kept subgraph, write it as a v3
// snapshot. Ops alternate between a large graph on the sampled-ranking path
// and a small graph on the exact all-source Brandes path; every large-graph
// shed runs a second time at one thread as the serial baseline.
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "graph/binary_io.h"
#include "graph/source.h"
#include "workloads.h"

namespace edgeshed::perfbench {
namespace {

constexpr double kP = 0.5;
/// com-LiveJournal surrogate at 3%: 131,072 nodes, sampled ranking.
constexpr double kLargeScale = 0.03;
/// ca-GrQc surrogate at full size: 5,242 nodes, exact ranking.
constexpr double kSmallScale = 1.0;
/// avg_delta and delta_vs_cold cover the first this-many ops of each graph,
/// so they are a pure function of the seed; the loop runs at least that
/// long even past --seconds.
constexpr int kQualityOps = 3;

struct State {
  GraphInput large;
  GraphInput small;
};

/// One timed shed: the result plus the wall time inside Shed and inside the
/// ranking provider it called.
struct TimedShed {
  StatusOr<core::SheddingResult> result = Status::Internal("not run");
  double seconds = 0.0;
  double rank_seconds = 0.0;
  analytics::BetweennessOptions rank_options;
};

TimedShed Shed(const graph::Graph& g, uint64_t seed, int threads,
               Trace* trace, bool traced, const std::string& shed_span,
               const std::string& rank_span) {
  TimedShed out;
  core::ShedOptions options;
  options.p = kP;
  options.seed = seed;
  options.threads = threads;
  // Phase 1 goes through a provider so the ranking is timed from outside
  // the shedder; it computes exactly what the shedder would inline.
  options.rank_provider =
      [&](const graph::Graph& graph,
          const analytics::BetweennessOptions& rank_options)
      -> StatusOr<core::EdgeRanking> {
    obs::Span span = trace->Span(rank_span, traced);
    const auto start = std::chrono::steady_clock::now();
    core::EdgeRanking ranking;
    ranking.ids = analytics::EdgesByBetweennessDescending(graph, rank_options);
    ranking.computed = true;
    ranking.seconds = SecondsSince(start);
    out.rank_seconds += ranking.seconds;
    out.rank_options = rank_options;
    return ranking;
  };
  obs::Span span = trace->Span(shed_span, traced);
  const auto start = std::chrono::steady_clock::now();
  out.result = core::Crr().Shed(g, options);
  out.seconds = SecondsSince(start);
  return out;
}

/// Samples gathered over the measured loop.
struct Samples {
  std::vector<double> op;        // large graph, default threads
  std::vector<double> op_t1;     // large graph, one thread
  std::vector<double> op_small;  // small graph
  std::vector<double> op_traced, op_untraced;  // large, by tracing state
  std::vector<double> accept_ratio;
  std::vector<double> quality_delta;     // Δ/|V|, first kQualityOps per graph
  std::vector<double> quality_delta_t4;  // Δ, large, default threads
  std::vector<double> quality_delta_t1;  // Δ, large, one thread
  analytics::BetweennessOptions large_rank_options, small_rank_options;
};

void CheckShed(const TimedShed& shed, const graph::Graph& g,
               const std::string& what, Outcomes* outcomes) {
  const core::SheddingResult& r = *shed.result;
  outcomes->Check(r.kept_edges.size() == core::TargetEdgeCount(g, kP),
                  what + ": kept set size is not TargetEdgeCount");
  outcomes->Check(r.average_delta <= core::CrrAverageDeltaBound(g, kP),
                  what + ": average delta above the Theorem 1 bound");
}

/// One op on one graph: load, shed (and for the large graph, shed again at
/// one thread), write the kept subgraph.
void RunOp(const GraphInput& input, bool large, uint64_t seed,
           const std::string& out_path, Trace* trace, bool traced,
           bool quality, Samples* samples, Outcomes* outcomes) {
  const std::string suffix = large ? "" : ".small";
  obs::Span root = trace->Span(large ? "op.large" : "op.small", traced);

  auto start = std::chrono::steady_clock::now();
  StatusOr<graph::LoadedGraph> loaded = [&] {
    obs::Span span = trace->Span("graph.load" + suffix, traced);
    graph::IngestOptions ingest;
    ingest.mmap = true;
    ingest.verify_checksums = true;
    return graph::LoadGraph(
        graph::GraphSource(input.path, graph::GraphFormat::kSnapshot), ingest);
  }();
  const double load_seconds = SecondsSince(start);
  if (!loaded.ok()) {
    outcomes->Record(loaded.status());
    return;
  }
  const graph::Graph& g = loaded->graph;
  outcomes->Check(g.NumEdges() == input.graph->NumEdges(),
                  "loaded snapshot has the wrong edge count");

  TimedShed shed = Shed(g, seed, 0, trace, traced, "core.shed" + suffix,
                        "analytics.rank" + suffix);
  if (!shed.result.ok()) {
    outcomes->Record(shed.result.status());
    return;
  }
  TimedShed shed_t1;
  if (large) {
    shed_t1 = Shed(g, seed, 1, trace, traced, "core.shed.t1",
                   "analytics.rank.t1");
    if (!shed_t1.result.ok()) {
      outcomes->Record(shed_t1.result.status());
      return;
    }
  }

  start = std::chrono::steady_clock::now();
  Status written = [&] {
    obs::Span span = trace->Span("graph.write" + suffix, traced);
    graph::Graph reduced = shed.result->BuildReducedGraph(g);
    return graph::SaveBinaryGraph(reduced, out_path, graph::SnapshotOptions{});
  }();
  const double write_seconds = SecondsSince(start);
  root.End();
  outcomes->Record(written);
  if (!written.ok()) return;

  // Checks run after the op's clock stopped.
  CheckShed(shed, g, input.provenance.name, outcomes);
  const double op_seconds = load_seconds + shed.seconds + write_seconds;
  if (!large) {
    samples->op_small.push_back(op_seconds);
    if (quality) samples->quality_delta.push_back(shed.result->average_delta);
    samples->small_rank_options = shed.rank_options;
    return;
  }
  CheckShed(shed_t1, g, input.provenance.name + " at one thread", outcomes);
  outcomes->Check(shed_t1.result->kept_edges == shed.result->kept_edges &&
                      shed_t1.result->total_delta == shed.result->total_delta,
                  "one-thread and default-thread kept sets differ");
  samples->op.push_back(op_seconds);
  samples->op_t1.push_back(load_seconds + shed_t1.seconds + write_seconds);
  (traced ? samples->op_traced : samples->op_untraced).push_back(op_seconds);
  const double steps = StatValue(shed.result->stats, "steps");
  if (steps > 0) {
    samples->accept_ratio.push_back(
        StatValue(shed.result->stats, "swaps_accepted") / steps);
  }
  if (quality) {
    samples->quality_delta.push_back(shed.result->average_delta);
    samples->quality_delta_t4.push_back(shed.result->total_delta);
    samples->quality_delta_t1.push_back(shed_t1.result->total_delta);
  }
  samples->large_rank_options = shed.rank_options;
}

}  // namespace

Status RunShedCold(const Args& args, Trace* trace, Report* report,
                   Outcomes* outcomes) {
  const std::string dir =
      StrFormat("%s/shed-cold-%llu", args.out_dir.c_str(),
                static_cast<unsigned long long>(args.seed));
  std::filesystem::create_directories(dir);

  std::unique_ptr<State> state;
  EDGESHED_ASSIGN_OR_RETURN(
      double setup_seconds,
      RepeatedSetup(kSetupRepeats, &state,
                    [&]() -> StatusOr<std::unique_ptr<State>> {
                      auto s = std::make_unique<State>();
                      EDGESHED_ASSIGN_OR_RETURN(
                          s->large,
                          MakeGraphInput(graph::DatasetId::kComLiveJournal,
                                         kLargeScale, SubSeed(args.seed, 1),
                                         dir + "/large.esg"));
                      EDGESHED_ASSIGN_OR_RETURN(
                          s->small,
                          MakeGraphInput(graph::DatasetId::kCaGrQc,
                                         kSmallScale, SubSeed(args.seed, 2),
                                         dir + "/small.esg"));
                      return s;
                    }));
  NoteProvenance(report, args,
                 {state->large.provenance, state->small.provenance});

  Samples samples;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t pair = 0;; ++pair) {
    const bool quality = pair < kQualityOps;
    if (!quality && SecondsSince(start) >= args.seconds) break;
    // In traced runs every other op pair is traced, so the traced and
    // untraced medians come from the same run.
    const bool traced = args.trace && pair % 2 == 0;
    RunOp(state->large, true, SubSeed(args.seed, 1000 + 2 * pair),
          dir + "/kept-large.esg", trace, traced, quality, &samples, outcomes);
    RunOp(state->small, false, SubSeed(args.seed, 1001 + 2 * pair),
          dir + "/kept-small.esg", trace, traced, quality, &samples,
          outcomes);
  }

  const OpTail tail = OpTailOf(samples.op);
  std::string ops_line = "shed-cold: large op seconds";
  for (size_t i = 0; i < samples.op.size(); ++i) {
    ops_line += StrFormat(" %.3f/%.3f", samples.op[i], samples.op_t1[i]);
  }
  report->Note(ops_line);
  report->Note(StrFormat(
      "shed-cold: %zu large ops, %zu small ops; shed_tail_s is %s",
      samples.op.size(), samples.op_small.size(),
      tail.Describe().c_str()));
  report->Set("setup_s", setup_seconds, "s");
  report->Set("op_p50_s", Median(samples.op), "s");
  report->Set("op_tail_s", tail.value, "s");
  report->Set("shed_p50_s", Median(samples.op), "s");
  report->Set("shed_tail_s", tail.value, "s");
  report->Set("shed_t1_p50_s", Median(samples.op_t1), "s");
  report->Set("shed_small_p50_s", Median(samples.op_small), "s");
  const auto large_edges =
      static_cast<double>(state->large.graph->NumEdges());
  const auto small_edges =
      static_cast<double>(state->small.graph->NumEdges());
  report->Set("shed_small_vs_large_per_edge",
              (Median(samples.op_small) / small_edges) /
                  (Median(samples.op) / large_edges),
              "ratio");
  report->Set("shed_t1_vs_default", Median(samples.op_t1) / Median(samples.op),
              "ratio");
  report->Set("avg_delta", Mean(samples.quality_delta), "ratio");
  report->Set("delta_vs_cold",
              Mean(samples.quality_delta_t4) / Mean(samples.quality_delta_t1),
              "ratio");

  if (args.trace) {
    const std::map<std::string, double> self = trace->MedianSelfSeconds();
    auto get = [&](const std::string& name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    report->Set("graph.load_s", get("graph.load"), "s");
    report->Set("graph.write_s", get("graph.write"), "s");
    report->Set("analytics.rank_s", get("analytics.rank"), "s");
    report->Set("analytics.rank_t1_s", get("analytics.rank.t1"), "s");
    report->Set("analytics.rank_small_s", get("analytics.rank.small"), "s");
    // core.shed's self time is Shed's wall time minus the provider's.
    report->Set("core.rewire_s", get("core.shed"), "s");
    report->Set("core.swap_accept_ratio", Median(samples.accept_ratio),
                "ratio");
    // Sources processed, from one separate traced Betweenness call per graph
    // with the options the shedder handed its provider.
    {
      obs::Span span = trace->Span("analytics.betweenness");
      report->Set("analytics.sources",
                  static_cast<double>(
                      analytics::Betweenness(*state->large.graph,
                                             samples.large_rank_options)
                          .sources_processed),
                  "count");
    }
    {
      obs::Span span = trace->Span("analytics.betweenness.small");
      report->Set("analytics.sources_small",
                  static_cast<double>(
                      analytics::Betweenness(*state->small.graph,
                                             samples.small_rank_options)
                          .sources_processed),
                  "count");
    }
    report->Set("obs.trace_overhead_ratio",
                Median(samples.op_traced) / Median(samples.op_untraced),
                "ratio");
  }
  std::filesystem::remove_all(dir);
  return Status::OK();
}

}  // namespace edgeshed::perfbench
