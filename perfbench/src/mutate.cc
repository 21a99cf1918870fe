// mutate: writes beside reads on one served dataset. One writer in a closed
// loop sends a seeded, valid mutation batch touching 1% of the edges (half
// inserts, half deletes) and then waits for a fresh crr-inc kept set. Every
// kColdEvery-th version also sheds with plain crr, which ranks the mutated
// graph from scratch: that run is the cold reference for Δ and sits outside
// the op's clock.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "graph/mutation_io.h"
#include "net/client.h"
#include "net/server.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "workloads.h"

namespace edgeshed::perfbench {
namespace {

constexpr char kDataset[] = "enron";
constexpr double kP = 0.5;
constexpr double kBatchShare = 0.01;
constexpr int kColdEvery = 4;
/// avg_delta and delta_vs_cold cover the first kQualityRefs cold references
/// (and the ops up to them), so they are a pure function of the seed; the
/// loop runs at least that long even past --seconds.
constexpr int kQualityRefs = 6;
/// Cold references re-run in process and compared bit for bit.
constexpr int kCheckedRefs = 2;
/// Batches generated up front; a run that uses them all stops early. A
/// 45 s run used about 740 on a quiet 4-vCPU VM, so this leaves room for a
/// machine more than twice as fast.
constexpr size_t kMaxOps = 1800;

/// Client-side copy of the live edge set, used to generate valid batches.
class LiveEdges {
 public:
  explicit LiveEdges(const graph::Graph& g) : num_nodes_(g.NumNodes()) {
    for (const graph::Edge& e : g.edges()) Add(graph::EdgeKey(e));
  }

  /// A batch of `size` mutations, half deletes of live edges and half
  /// inserts of non-live ones, applied to this set.
  graph::MutationBatch NextBatch(size_t size, Rng* rng) {
    graph::MutationBatch batch;
    std::unordered_set<uint64_t> touched;
    for (size_t i = 0; i < size / 2; ++i) {
      const uint64_t key = keys_[rng->UniformIndex(keys_.size())];
      Remove(key);
      touched.insert(key);
      batch.deletes.push_back(Unpack(key));
    }
    while (batch.inserts.size() < size - size / 2) {
      // One endpoint degree-proportional, one uniform, so the surrogate
      // keeps its heavy tail.
      const graph::Edge hub = Unpack(keys_[rng->UniformIndex(keys_.size())]);
      const graph::NodeId u = rng->Bernoulli(0.5) ? hub.u : hub.v;
      const auto v = static_cast<graph::NodeId>(rng->UniformIndex(num_nodes_));
      if (u == v) continue;
      const uint64_t key = graph::EdgeKey(u, v);
      if (index_.count(key) > 0 || !touched.insert(key).second) continue;
      batch.inserts.push_back(Unpack(key));
    }
    for (const graph::Edge& e : batch.inserts) Add(graph::EdgeKey(e));
    return batch;
  }

  size_t size() const { return keys_.size(); }
  std::vector<graph::Edge> SortedEdges() const {
    std::vector<graph::Edge> edges;
    edges.reserve(keys_.size());
    for (uint64_t key : keys_) edges.push_back(Unpack(key));
    std::sort(edges.begin(), edges.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return graph::EdgeKey(a) < graph::EdgeKey(b);
              });
    return edges;
  }

 private:
  static graph::Edge Unpack(uint64_t key) {
    return graph::Edge{static_cast<graph::NodeId>(key >> 32),
                       static_cast<graph::NodeId>(key & 0xFFFFFFFFull)};
  }
  void Add(uint64_t key) {
    index_[key] = keys_.size();
    keys_.push_back(key);
  }
  void Remove(uint64_t key) {
    const size_t at = index_[key];
    index_[keys_.back()] = at;
    keys_[at] = keys_.back();
    keys_.pop_back();
    index_.erase(key);
  }

  uint64_t num_nodes_;
  std::vector<uint64_t> keys_;
  std::unordered_map<uint64_t, size_t> index_;
};

/// The served system; members in dependency order (see serve_mix.cc).
struct State {
  GraphInput input;
  uint64_t shed_seed = 0;
  std::vector<net::ApplyMutationsRequest> batches;
  /// Live edges after batch `op`, keyed by op, for the cold references that
  /// are re-run in process.
  std::unordered_map<size_t, std::vector<graph::Edge>> checked_versions;
  std::unique_ptr<service::GraphStore> store;
  std::unique_ptr<service::JobScheduler> scheduler;
  std::unique_ptr<net::RpcServer> server;
};

net::ShedRequest ShedSpec(const std::string& method, uint64_t seed) {
  net::ShedRequest request;
  request.dataset = kDataset;
  request.method = method;
  request.p = kP;
  request.seed = seed;
  request.wait = true;
  return request;
}

StatusOr<std::unique_ptr<State>> Setup(const Args& args,
                                       const std::string& dir) {
  auto s = std::make_unique<State>();
  EDGESHED_ASSIGN_OR_RETURN(
      s->input, MakeGraphInput(graph::DatasetId::kEmailEnron, 1.0,
                               SubSeed(args.seed, 30), dir + "/enron.esg"));
  s->shed_seed = SubSeed(args.seed, 31) % 1000000;

  // Every batch, generated before timing against the client-side live set.
  LiveEdges live(*s->input.graph);
  Rng rng(SubSeed(args.seed, 32));
  const auto batch_size = static_cast<size_t>(
      kBatchShare * static_cast<double>(live.size()) + 0.5);
  for (size_t op = 0; op < kMaxOps; ++op) {
    graph::MutationBatch batch = live.NextBatch(batch_size, &rng);
    net::ApplyMutationsRequest request;
    request.dataset = kDataset;
    for (const graph::Edge& e : batch.inserts) {
      request.inserts.emplace_back(e.u, e.v);
    }
    for (const graph::Edge& e : batch.deletes) {
      request.deletes.emplace_back(e.u, e.v);
    }
    s->batches.push_back(std::move(request));
    if ((op + 1) % kColdEvery == 0 && (op + 1) / kColdEvery <= kCheckedRefs) {
      s->checked_versions[op] = live.SortedEdges();
    }
  }

  s->store = std::make_unique<service::GraphStore>();
  EDGESHED_RETURN_IF_ERROR(
      service::RegisterEdgeListDataset(*s->store, kDataset, s->input.path));
  service::JobSchedulerOptions scheduler_options;
  scheduler_options.max_retained_jobs = kRetainedJobs;
  s->scheduler = std::make_unique<service::JobScheduler>(
      s->store.get(), nullptr, scheduler_options);
  s->server = std::make_unique<net::RpcServer>(s->store.get(),
                                               s->scheduler.get());
  EDGESHED_RETURN_IF_ERROR(s->server->Start());

  // Warm: the incremental session's cold start and the plain-crr ranking
  // of the unmutated graph.
  net::RpcClientOptions options;
  options.port = s->server->port();
  net::RpcClient client(options);
  for (const char* method : {"crr-inc", "crr"}) {
    EDGESHED_ASSIGN_OR_RETURN(net::ShedResponse response,
                              client.Shed(ShedSpec(method, s->shed_seed)));
    if (!response.has_result) return Status::Internal("warm-up had no result");
  }
  return s;
}

}  // namespace

Status RunMutate(const Args& args, Trace* trace, Report* report,
                 Outcomes* outcomes) {
  const std::string dir =
      StrFormat("%s/mutate-%llu", args.out_dir.c_str(),
                static_cast<unsigned long long>(args.seed));
  std::filesystem::create_directories(dir);
  std::unique_ptr<State> state;
  EDGESHED_ASSIGN_OR_RETURN(
      double setup_seconds,
      RepeatedSetup(kSetupRepeats, &state, [&] { return Setup(args, dir); }));
  NoteProvenance(report, args, {state->input.provenance});
  const graph::Graph& g0 = *state->input.graph;

  net::RpcClientOptions options;
  options.port = state->server->port();
  options.max_attempts = 1;
  net::RpcClient client(options);
  net::RpcClient::Channel channel(&client);

  std::vector<double> reshed, traced_op, untraced_op, dirty, inc_quality;
  std::vector<double> cold_rank, cold_quality, queue, run, overhead;
  double inc_at_refs = 0.0, cold_at_refs = 0.0;
  uint64_t full_rank = 0, compacting = 0, applied = 0, version = 0;
  int refs = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t op = 0; op < state->batches.size(); ++op) {
    const bool quality = refs < kQualityRefs;
    if (!quality && SecondsSince(start) >= args.seconds) break;
    const bool traced = args.trace && op % 2 == 0;
    obs::Span root = trace->Span("op.mutate", traced);
    const auto op_start = std::chrono::steady_clock::now();
    StatusOr<net::ApplyMutationsResponse> apply = [&] {
      obs::Span span = trace->Span("dyn.apply", traced);
      return channel.ApplyMutations(state->batches[op]);
    }();
    if (!apply.ok()) {
      outcomes->Record(apply.status());
      break;  // later batches were generated against this one
    }
    outcomes->Check(apply->version == version + 1 || version == 0,
                    "mutation versions are not consecutive");
    version = apply->version;
    outcomes->Check(apply->live_edges == g0.NumEdges(),
                    "live edge count drifted from the generated batches");
    const auto shed_start = std::chrono::steady_clock::now();
    StatusOr<net::ShedResponse> inc = [&] {
      obs::Span span = trace->Span("dyn.reshed", traced);
      return channel.Shed(ShedSpec("crr-inc", state->shed_seed));
    }();
    const double shed_seconds = SecondsSince(shed_start);
    const double op_seconds = SecondsSince(op_start);
    root.End();
    if (inc.ok() && !inc->has_result) {
      inc = Status::Internal("waited crr-inc returned no result");
    }
    outcomes->Record(inc.status());
    if (!inc.ok()) continue;

    const net::ResultSummary& r = inc->result;
    outcomes->Check(
        StatValue(r.stats, "version") == static_cast<double>(version),
        "crr-inc answered for a stale version");
    outcomes->Check(r.kept_edges == core::TargetEdgeCount(g0, kP),
                    "crr-inc kept set size is not TargetEdgeCount");
    outcomes->Check(r.average_delta <= core::CrrAverageDeltaBound(g0, kP),
                    "crr-inc average delta above the Theorem 1 bound");
    ++applied;
    reshed.push_back(op_seconds);
    (traced ? traced_op : untraced_op).push_back(op_seconds);
    dirty.push_back(StatValue(r.stats, "dirty_vertices"));
    full_rank += StatValue(r.stats, "full_rank") > 0 ? 1 : 0;
    compacting += apply->compacting != 0 ? 1 : 0;
    if (quality) inc_quality.push_back(r.average_delta);
    if (args.trace) {
      // The re-shed job's queue and run time, asked for after the op's
      // clock stopped; the rest of the client's wait is the RPC path.
      StatusOr<net::GetStatusResponse> status =
          channel.GetJobStatus(inc->job_id);
      if (status.ok()) {
        queue.push_back(status->queue_seconds);
        run.push_back(status->run_seconds);
        overhead.push_back(shed_seconds - status->queue_seconds -
                           status->run_seconds);
      }
    }

    if ((op + 1) % kColdEvery != 0) continue;
    // The cold reference: plain crr on the same version, off the op clock.
    StatusOr<net::ShedResponse> cold = [&] {
      obs::Span span = trace->Span("op.cold", traced);
      return channel.Shed(ShedSpec("crr", state->shed_seed));
    }();
    if (cold.ok() && !cold->has_result) {
      cold = Status::Internal("waited crr returned no result");
    }
    outcomes->Record(cold.status());
    if (!cold.ok()) continue;
    const net::ResultSummary& c = cold->result;
    outcomes->Check(c.kept_edges == core::TargetEdgeCount(g0, kP),
                    "cold crr kept set size is not TargetEdgeCount");
    outcomes->Check(c.average_delta <= core::CrrAverageDeltaBound(g0, kP),
                    "cold crr average delta above the Theorem 1 bound");
    cold_rank.push_back(StatValue(c.stats, "betweenness_seconds"));
    if (quality) {
      cold_quality.push_back(c.average_delta);
      inc_at_refs += r.total_delta;
      cold_at_refs += c.total_delta;
    }
    auto checked = state->checked_versions.find(op);
    if (checked != state->checked_versions.end()) {
      StatusOr<graph::Graph> g = graph::Graph::FromEdges(
          static_cast<graph::NodeId>(g0.NumNodes()), checked->second);
      core::ShedOptions shed_options;
      shed_options.p = kP;
      shed_options.seed = state->shed_seed;
      StatusOr<core::SheddingResult> same =
          g.ok() ? core::Crr().Shed(*g, shed_options)
                 : StatusOr<core::SheddingResult>(g.status());
      outcomes->Check(same.ok() && same->kept_edges.size() == c.kept_edges &&
                          same->total_delta == c.total_delta,
                      StrFormat("cold crr at version %llu differs from an "
                                "in-process Shed",
                                static_cast<unsigned long long>(version)));
    }
    ++refs;
  }
  state->server->Stop();

  const OpTail tail = OpTailOf(reshed);
  report->Note(StrFormat(
      "mutate: %llu batches of %zu mutations, %d cold references; "
      "reshed_tail_s is %s",
      static_cast<unsigned long long>(applied),
      state->batches.empty() ? size_t{0}
                             : state->batches[0].inserts.size() +
                                   state->batches[0].deletes.size(),
      refs, tail.Describe().c_str()));
  if (applied == state->batches.size()) {
    report->Note(
        "mutate: every pre-generated batch was used before time ran out");
  }
  report->Set("setup_s", setup_seconds, "s");
  report->Set("op_p50_s", Median(reshed), "s");
  report->Set("op_tail_s", tail.value, "s");
  report->Set("reshed_p50_s", Median(reshed), "s");
  report->Set("reshed_tail_s", tail.value, "s");
  report->Set("avg_delta", Mean(inc_quality), "ratio");
  report->Set("delta_vs_cold",
              cold_at_refs > 0 ? inc_at_refs / cold_at_refs : 0.0, "ratio");
  if (args.trace) {
    const std::map<std::string, double> self = trace->MedianSelfSeconds();
    auto get = [&](const std::string& name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(std::max<uint64_t>(applied, 1));
    report->Set("dyn.apply_s", get("dyn.apply"), "s");
    report->Set("dyn.reshed_s", get("dyn.reshed"), "s");
    report->Set("dyn.dirty_vertices", Median(dirty), "count");
    report->Set("dyn.full_rank_ratio", static_cast<double>(full_rank) / ops,
                "ratio");
    report->Set("dyn.compacting_ratio", static_cast<double>(compacting) / ops,
                "ratio");
    report->Set("service.queue_s", Median(queue), "s");
    report->Set("service.run_s", Median(run), "s");
    report->Set("net.overhead_s", Median(overhead), "s");
    report->Set("net.refused", static_cast<double>(outcomes->refused),
                "count");
    report->Set("analytics.rank_s", Median(cold_rank), "s");
    report->Set("core.cold_avg_delta", Mean(cold_quality), "ratio");
    report->Set("obs.trace_overhead_ratio",
                Median(traced_op) / Median(untraced_op), "ratio");
  }
  state.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

}  // namespace edgeshed::perfbench
