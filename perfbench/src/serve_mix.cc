// serve-mix: independent users of a warmed in-process RPC server, as an open
// loop. Requests arrive on a seeded Poisson schedule at one fixed rate and
// go out over at most kConnections persistent client connections; each
// request is timed from the moment it was due. The traffic mixes three
// paper surrogates, mostly crr with some bm2, three preservation ratios,
// two fair-share tenants, and a stated share of exact repeats. Rankings are
// cached during setup, so the measured path is net, service queueing, the
// result cache and Phase 2.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <set>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/betweenness.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/shedder_factory.h"
#include "net/client.h"
#include "net/server.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "workloads.h"

namespace edgeshed::perfbench {
namespace {

/// Arrival rate. It keeps the scheduler's four workers about an eighth busy
/// on a 4-core machine; README.md records why not half busy.
constexpr double kRatePerSecond = 24.0;
constexpr int kConnections = 4;
/// Share of requests that repeat an earlier request exactly (same tenant,
/// dataset, method, p and seed), so the result cache answers them.
constexpr double kRepeatShare = 0.2;
/// A repeat copies one of this many most recent requests.
constexpr size_t kRepeatWindow = 32;
constexpr double kBm2Share = 0.15;
constexpr double kPs[] = {0.3, 0.5, 0.7};

struct DatasetDef {
  const char* name;
  graph::DatasetId id;
  double weight;
};
/// Traffic weights. Enron jobs are the slowest; at this weight they are
/// about a ninth of all requests, so each round's tail (p94 to p96 in 30 to
/// 45 s runs, see OpTailOf) falls among them. A heavier Enron share (weight
/// 2) kept the workers twice as busy, jobs overlapped more often, and in
/// interleaved runs the tail varied about twice as much from seed to seed.
constexpr DatasetDef kDatasets[] = {
    {"grqc", graph::DatasetId::kCaGrQc, 1.0},
    {"hepph", graph::DatasetId::kCaHepPh, 2.0},
    {"enron", graph::DatasetId::kEmailEnron, 0.5},
};
constexpr int kNumDatasets = 3;

struct Request {
  double due_seconds = 0.0;
  net::ShedRequest shed;
  int dataset = 0;
  bool repeat = false;
};

struct Response {
  Status status = Status::Internal("not sent");
  double latency = 0.0;    // from due time to result
  double late = 0.0;       // send time minus due time
  double client = 0.0;     // from send to result
  bool traced = false;
  net::ResultSummary summary;
  bool have_status = false;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
};

/// The served system. Members are declared in dependency order so the
/// server stops before the scheduler shuts down, and both before the store.
struct State {
  std::vector<GraphInput> inputs;
  std::unique_ptr<service::GraphStore> store;
  std::unique_ptr<service::JobScheduler> scheduler;
  std::unique_ptr<net::RpcServer> server;
  std::vector<Request> schedule;
};

/// `count` items whose values follow `weights` as exactly as integer counts
/// allow, in a seeded random order.
std::vector<int> Stratified(size_t count, const std::vector<double>& weights,
                            Rng* rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<int> out;
  double cumulative = 0.0;
  for (size_t k = 0; k < weights.size(); ++k) {
    cumulative += weights[k];
    const auto upto = static_cast<size_t>(
        std::llround(cumulative / total * static_cast<double>(count)));
    while (out.size() < upto) out.push_back(static_cast<int>(k));
  }
  rng->Shuffle(&out);
  return out;
}

/// The request schedule. Every run of the same length has the same mix —
/// exact shares of datasets, methods, ratios, tenants and repeats — so only
/// the order and the arrival times depend on the seed.
std::vector<Request> MakeSchedule(uint64_t seed, double seconds) {
  Rng rng(seed);
  std::vector<double> arrivals;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / kRatePerSecond;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  const size_t n = arrivals.size();
  std::vector<int> repeat =
      Stratified(n, {1.0 - kRepeatShare, kRepeatShare}, &rng);
  if (n > 0 && repeat[0] == 1) {
    // The first request has nothing to repeat; trade places with a fresh one.
    *std::find(repeat.begin(), repeat.end(), 0) = 1;
    repeat[0] = 0;
  }
  const auto fresh_count = static_cast<size_t>(
      std::count(repeat.begin(), repeat.end(), 0));
  // One class per (dataset, method, p), drawn with exact joint shares.
  std::vector<double> class_weights;
  for (const DatasetDef& d : kDatasets) {
    for (double method_share : {1.0 - kBm2Share, kBm2Share}) {
      for (size_t p = 0; p < std::size(kPs); ++p) {
        class_weights.push_back(d.weight * method_share);
      }
    }
  }
  const std::vector<int> request_class =
      Stratified(fresh_count, class_weights, &rng);
  const std::vector<int> tenant = Stratified(fresh_count, {1.0, 1.0}, &rng);

  std::vector<Request> schedule(n);
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    Request& request = schedule[i];
    if (repeat[i] == 1) {
      // An exact copy of one of the last kRepeatWindow requests, recent
      // enough to be in the result cache or still in flight.
      const size_t window = std::min<size_t>(i, kRepeatWindow);
      request = schedule[i - 1 - rng.UniformIndex(window)];
      request.repeat = true;
    } else {
      const int c = request_class[fresh];
      const int per_dataset = 2 * static_cast<int>(std::size(kPs));
      request.dataset = c / per_dataset;
      request.shed.dataset = kDatasets[request.dataset].name;
      request.shed.method =
          (c % per_dataset) / static_cast<int>(std::size(kPs)) == 1 ? "bm2"
                                                                     : "crr";
      request.shed.p = kPs[c % static_cast<int>(std::size(kPs))];
      request.shed.seed = i + 1;
      request.shed.tenant = tenant[fresh] == 0 ? "gold" : "bronze";
      request.shed.wait = true;
      request.repeat = false;
      ++fresh;
    }
    request.due_seconds = arrivals[i];
  }
  return schedule;
}

StatusOr<std::unique_ptr<State>> Setup(const Args& args,
                                       const std::string& dir) {
  auto s = std::make_unique<State>();
  for (int d = 0; d < kNumDatasets; ++d) {
    EDGESHED_ASSIGN_OR_RETURN(
        GraphInput input,
        MakeGraphInput(kDatasets[d].id, 1.0, SubSeed(args.seed, 10 + d),
                       dir + "/" + kDatasets[d].name + ".esg"));
    s->inputs.push_back(std::move(input));
  }
  s->store = std::make_unique<service::GraphStore>();
  for (int d = 0; d < kNumDatasets; ++d) {
    EDGESHED_RETURN_IF_ERROR(service::RegisterEdgeListDataset(
        *s->store, kDatasets[d].name, s->inputs[d].path));
  }
  service::JobSchedulerOptions scheduler_options;
  scheduler_options.max_retained_jobs = kRetainedJobs;
  scheduler_options.tenants["gold"] = service::TenantConfig{2, 0};
  scheduler_options.tenants["bronze"] = service::TenantConfig{1, 0};
  s->scheduler = std::make_unique<service::JobScheduler>(
      s->store.get(), nullptr, scheduler_options);
  s->server = std::make_unique<net::RpcServer>(s->store.get(),
                                               s->scheduler.get());
  EDGESHED_RETURN_IF_ERROR(s->server->Start());

  // Warm the rank cache: one crr job per dataset ranks it once; every crr
  // request after that reuses the ranking whatever its p and seed.
  net::RpcClientOptions client_options;
  client_options.port = s->server->port();
  net::RpcClient client(client_options);
  for (const DatasetDef& d : kDatasets) {
    net::ShedRequest warm;
    warm.dataset = d.name;
    warm.method = "crr";
    warm.seed = 0;
    warm.tenant = "warmup";
    EDGESHED_ASSIGN_OR_RETURN(net::ShedResponse response, client.Shed(warm));
    if (!response.has_result) return Status::Internal("warm-up had no result");
  }
  s->schedule = MakeSchedule(SubSeed(args.seed, 20), args.seconds);
  return s;
}

/// One client connection: takes the next unsent request, waits for its due
/// time, sends it and waits for the result.
void ClientLoop(int port, const std::vector<Request>& schedule,
                std::chrono::steady_clock::time_point start, bool trace_on,
                Trace* trace, std::atomic<size_t>* next,
                std::vector<Response>* responses) {
  net::RpcClientOptions options;
  options.port = port;
  options.max_attempts = 1;  // a refusal is counted, not retried
  net::RpcClient client(options);
  net::RpcClient::Channel channel(&client);
  for (;;) {
    const size_t i = next->fetch_add(1);
    if (i >= schedule.size()) return;
    const Request& request = schedule[i];
    Response& out = (*responses)[i];
    const auto due = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     request.due_seconds));
    std::this_thread::sleep_until(due);
    out.traced = trace_on && i % 2 == 0;
    obs::Span root = trace->Span("op.request", out.traced);
    const auto sent = std::chrono::steady_clock::now();
    out.late = std::chrono::duration<double>(sent - due).count();
    StatusOr<net::ShedResponse> shed = [&] {
      obs::Span span = trace->Span("net.shed", out.traced);
      return channel.Shed(request.shed);
    }();
    const auto done = std::chrono::steady_clock::now();
    out.latency = std::chrono::duration<double>(done - due).count();
    out.client = std::chrono::duration<double>(done - sent).count();
    if (!shed.ok()) {
      out.status = shed.status();
      continue;
    }
    if (!shed->has_result) {
      out.status = Status::Internal("waited Shed returned no result");
      continue;
    }
    out.status = Status::OK();
    out.summary = shed->result;
    obs::Span span = trace->Span("net.status", out.traced);
    StatusOr<net::GetStatusResponse> status =
        channel.GetJobStatus(shed->job_id);
    if (status.ok()) {
      out.have_status = true;
      out.queue_seconds = status->queue_seconds;
      out.run_seconds = status->run_seconds;
    }
  }
}

/// A reported latency percentile: failed requests sit at +infinity (they
/// miss every limit); a percentile that lands on one reads 1e6 s.
double Reportable(double seconds) {
  return std::isfinite(seconds) ? seconds : 1e6;
}

}  // namespace

Status RunServeMix(const Args& args, Trace* trace, Report* report,
                   Outcomes* outcomes) {
  const std::string dir =
      StrFormat("%s/serve-mix-%llu", args.out_dir.c_str(),
                static_cast<unsigned long long>(args.seed));
  std::filesystem::create_directories(dir);
  std::unique_ptr<State> state;
  EDGESHED_ASSIGN_OR_RETURN(
      double setup_seconds,
      RepeatedSetup(kSetupRepeats, &state, [&] { return Setup(args, dir); }));
  std::vector<Provenance> provenance;
  for (const GraphInput& input : state->inputs) {
    provenance.push_back(input.provenance);
  }
  NoteProvenance(report, args, provenance);

  const std::vector<Request>& schedule = state->schedule;
  std::vector<Response> responses(schedule.size());
  std::atomic<size_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back(ClientLoop, state->server->port(),
                           std::cref(schedule), start, args.trace, trace,
                           &next, &responses);
    }
    for (std::thread& t : clients) t.join();
  }
  const double measured_seconds = SecondsSince(start);
  state->server->Stop();

  // Accounting and checks, after the measured window.
  std::vector<double> latency, late, queue, run, overhead, rewire;
  std::vector<double> traced_overhead, untraced_overhead, deltas;
  uint64_t deduplicated = 0, rank_miss = 0, repeats = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& request = schedule[i];
    const Response& r = responses[i];
    outcomes->Record(r.status);
    repeats += request.repeat ? 1 : 0;
    late.push_back(r.late);
    if (!r.status.ok()) {
      latency.push_back(INFINITY);
      continue;
    }
    latency.push_back(r.latency);
    const net::ResultSummary& s = r.summary;
    const graph::Graph& g = *state->inputs[request.dataset].graph;
    const std::string what =
        StrFormat("%s %s p=%g seed=%llu", request.shed.dataset.c_str(),
                  request.shed.method.c_str(), request.shed.p,
                  static_cast<unsigned long long>(request.shed.seed));
    outcomes->Check(s.applied_method == request.shed.method &&
                        s.applied_p == request.shed.p && s.degrade_kind == 0,
                    what + ": answered with a degraded spec");
    // CRR pins |E'| to TargetEdgeCount; BM2 does not by design (its
    // capacities enforce expected degrees instead, core/bm2.h), so a BM2
    // kept set is held to the edge count of the graph and the exact match
    // against an in-process run below.
    const bool bm2 = request.shed.method == "bm2";
    outcomes->Check(bm2 ? s.kept_edges <= g.NumEdges()
                        : s.kept_edges ==
                              core::TargetEdgeCount(g, request.shed.p),
                    what + ": kept set size is not TargetEdgeCount");
    const double bound = bm2 ? core::Bm2AverageDeltaBound(g, request.shed.p)
                             : core::CrrAverageDeltaBound(g, request.shed.p);
    outcomes->Check(s.average_delta <= bound,
                    what + ": average delta above the Theorem 1-2 bound");
    if (!request.repeat) deltas.push_back(s.average_delta);
    if (s.deduplicated) {
      ++deduplicated;
    } else {
      if (r.have_status) {
        queue.push_back(r.queue_seconds);
        run.push_back(r.run_seconds);
        overhead.push_back(r.client - r.queue_seconds - r.run_seconds);
        (r.traced ? traced_overhead : untraced_overhead)
            .push_back(overhead.back());
      }
      if (request.shed.method == "crr") {
        rewire.push_back(StatValue(s.stats, "phase2_seconds"));
        if (StatValue(s.stats, "betweenness_seconds") > 0.0) ++rank_miss;
      }
    }
  }

  // Sampled exact-match checks: the first fresh request of every (dataset,
  // method, p) class is re-run in process and must match bit for bit. Its Δ
  // against an in-process cold crr of the same dataset, p and seed gives
  // delta_vs_cold over a mix that is the same in every run.
  std::vector<std::vector<graph::EdgeId>> rankings(kNumDatasets);
  auto reference = [&](int d, const std::string& method, double p,
                       uint64_t seed) -> StatusOr<core::SheddingResult> {
    EDGESHED_ASSIGN_OR_RETURN(auto shedder,
                              core::MakeShedderByName(method, seed));
    core::ShedOptions options;
    options.p = p;
    options.seed = seed;
    options.rank_provider =
        [&rankings, d](const graph::Graph& g,
                       const analytics::BetweennessOptions& rank_options)
        -> StatusOr<core::EdgeRanking> {
      if (rankings[d].empty()) {
        rankings[d] = analytics::EdgesByBetweennessDescending(g, rank_options);
      }
      core::EdgeRanking ranking;
      ranking.ids = rankings[d];
      return ranking;
    };
    return shedder->Shed(*state->inputs[d].graph, options);
  };
  std::set<std::string> checked_classes;
  double served_delta = 0.0, cold_delta = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& request = schedule[i];
    const net::ShedRequest& spec = request.shed;
    if (request.repeat || !responses[i].status.ok() ||
        !checked_classes
             .insert(StrFormat("%s %s %g", spec.dataset.c_str(),
                               spec.method.c_str(), spec.p))
             .second) {
      continue;
    }
    const net::ResultSummary& served = responses[i].summary;
    StatusOr<core::SheddingResult> same =
        reference(request.dataset, spec.method, spec.p, spec.seed);
    outcomes->Check(same.ok() && same->kept_edges.size() == served.kept_edges &&
                        same->total_delta == served.total_delta,
                    StrFormat("%s %s p=%g: served result differs from an "
                              "in-process Shed",
                              spec.dataset.c_str(), spec.method.c_str(),
                              spec.p));
    StatusOr<core::SheddingResult> cold =
        spec.method == "crr" ? std::move(same)
                             : reference(request.dataset, "crr", spec.p,
                                         spec.seed);
    if (cold.ok()) {
      served_delta += served.total_delta;
      cold_delta += cold->total_delta;
    }
  }
  const size_t classes_total = kNumDatasets * 2 * std::size(kPs);
  outcomes->Check(checked_classes.size() == classes_total,
                  "a request class had no fresh request to check in process");

  std::string classes =
      "serve-mix: median latency of fresh requests by dataset";
  for (int d = 0; d < kNumDatasets; ++d) {
    std::vector<double> fresh;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].dataset == d && !schedule[i].repeat &&
          responses[i].status.ok()) {
        fresh.push_back(responses[i].latency);
      }
    }
    classes += StrFormat(" %s=%.4f s", kDatasets[d].name, Median(fresh));
  }
  report->Note(classes);
  double busy_seconds = 0.0;
  for (double seconds : run) busy_seconds += seconds;
  report->Note(StrFormat(
      "serve-mix: workers busy %.1f%% of the window (%d workers)",
      100.0 * busy_seconds /
          (measured_seconds * static_cast<double>(state->scheduler->workers())),
      state->scheduler->workers()));
  const OpTail tail = OpTailOf(latency);
  const Tail late_tail = TailOf(late);
  report->Note(StrFormat(
      "serve-mix: %zu requests at %.1f/s over %.2f s on %d connections; "
      "%llu exact repeats (%.1f%%); rpc_tail_s is %s",
      schedule.size(), kRatePerSecond, measured_seconds, kConnections,
      static_cast<unsigned long long>(repeats),
      100.0 * static_cast<double>(repeats) /
          static_cast<double>(schedule.size()),
      tail.Describe().c_str()));
  report->Set("setup_s", setup_seconds, "s");
  report->Set("op_p50_s", Reportable(Median(latency)), "s");
  report->Set("op_tail_s", Reportable(tail.value), "s");
  report->Set("rpc_p50_s", Reportable(Median(latency)), "s");
  report->Set("rpc_tail_s", Reportable(tail.value), "s");
  report->Set("avg_delta", Mean(deltas), "ratio");
  report->Set("delta_vs_cold", cold_delta > 0 ? served_delta / cold_delta : 0,
              "ratio");
  if (args.trace) {
    report->Set("service.queue_s", Median(queue), "s");
    report->Set("service.run_s", Median(run), "s");
    report->Set("net.overhead_s", Median(overhead), "s");
    report->Set("service.result_hit_ratio",
                static_cast<double>(deduplicated) /
                    static_cast<double>(schedule.size()),
                "ratio");
    report->Set("service.rank_miss", static_cast<double>(rank_miss), "count");
    report->Set("core.rewire_s", Median(rewire), "s");
    report->Set("net.refused", static_cast<double>(outcomes->refused),
                "count");
    report->Set("loadgen.late_s", late_tail.value, "s");
    // Tracing only adds client-side spans, and raw latency medians of two
    // halves of the job mix differ by far more than that cost, so the
    // traced/untraced ratio is taken on the time outside the server.
    report->Set("obs.trace_overhead_ratio",
                Median(traced_overhead) / Median(untraced_overhead), "ratio");
  }
  state.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

}  // namespace edgeshed::perfbench
