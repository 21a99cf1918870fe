// Service-layer integration of the dynamic-graph subsystem: GraphStore's
// versioned datasets (DynGraph/ApplyMutations) and the scheduler's
// "crr-inc" incremental re-shedding sessions (DESIGN.md §15).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/shedder_factory.h"
#include "core/shedding.h"
#include "dyn/versioned_graph.h"
#include "graph/mutation_io.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "testing/test_graphs.h"

namespace edgeshed::service {
namespace {

using testing::Clique;
using testing::MustBuild;
using testing::Path;

void RegisterGraph(GraphStore& store, const std::string& name,
                   graph::Graph g) {
  ASSERT_TRUE(store
                  .Register(name,
                            [g = std::move(g)]() -> StatusOr<graph::Graph> {
                              return g;
                            })
                  .ok());
}

graph::MutationBatch Batch(std::vector<graph::Edge> inserts,
                           std::vector<graph::Edge> deletes) {
  graph::MutationBatch batch;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  return batch;
}

/// Cycle spine + deterministic random chords, same shape the dyn unit tests
/// shed: connected, non-trivial betweenness structure.
graph::Graph RandomGraph(graph::NodeId n, int extra_edges, uint64_t seed) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId u = 0; u < n; ++u) {
    edges.emplace(std::min(u, static_cast<graph::NodeId>((u + 1) % n)),
                  std::max(u, static_cast<graph::NodeId>((u + 1) % n)));
  }
  Rng rng(seed);
  while (static_cast<int>(edges.size()) < static_cast<int>(n) + extra_edges) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(n));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    edges.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<graph::Edge> list;
  list.reserve(edges.size());
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return MustBuild(n, std::move(list));
}

void WaitUntilRunning(JobScheduler& scheduler, JobId id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = scheduler.GetStatus(id);
    ASSERT_TRUE(status.ok());
    if (status->state == JobState::kRunning) return;
    ASSERT_EQ(status->state, JobState::kQueued)
        << "job went terminal before it could be observed running";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " was never observed running";
}

double Stat(const JobResult& result, const std::string& name) {
  for (const auto& [key, value] : result->stats) {
    if (key == name) return value;
  }
  return -1.0;
}

/// What a from-scratch CRR job answers on `g` at the scheduler's seed.
void ExpectMatchesColdCrr(const JobResult& result, const graph::Graph& g) {
  auto crr = core::MakeShedderByName("crr", 42);
  ASSERT_TRUE(crr.ok());
  auto cold = (*crr)->Reduce(g, 0.5);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(result->kept_edges, cold->kept_edges);
  EXPECT_DOUBLE_EQ(result->total_delta, cold->total_delta);
}

// ---------------------------------------------------------------------------
// GraphStore: versioned datasets

TEST(GraphStoreDynTest, DynGraphIsSharedAndUnknownNameIsNotFound) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  auto first = store.DynGraph("g");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = store.DynGraph("g");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // one history per dataset
  EXPECT_EQ((*first)->CurrentVersion(), 0u);

  EXPECT_EQ(store.DynGraph("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.ApplyMutations("nope", Batch({{0, 1}}, {})).status().code(),
            StatusCode::kNotFound);
}

TEST(GraphStoreDynTest, ApplyMutationsBumpsGenerationAndServesMutatedGraph) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));  // edges {0,1}..{4,5}

  uint64_t generation_before = 0;
  ASSERT_TRUE(store.Get("g", &generation_before).ok());

  auto version = store.ApplyMutations("g", Batch({{0, 5}}, {{1, 2}}));
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 1u);

  uint64_t generation_after = 0;
  auto mutated = store.Get("g", &generation_after);
  ASSERT_TRUE(mutated.ok());
  EXPECT_GT(generation_after, generation_before);
  EXPECT_EQ((*mutated)->NumEdges(), 5u);
  EXPECT_TRUE((*mutated)->HasEdge(0, 5));
  EXPECT_FALSE((*mutated)->HasEdge(1, 2));

  // Versions accumulate on the same history.
  auto next = store.ApplyMutations("g", Batch({{1, 2}}, {}));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

TEST(GraphStoreDynTest, InvalidBatchLeavesStoreUntouched) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  uint64_t generation_before = 0;
  ASSERT_TRUE(store.Get("g", &generation_before).ok());

  // Delete of a non-live edge rejects the whole batch...
  auto bad = store.ApplyMutations("g", Batch({{0, 5}}, {{0, 3}}));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("{0, 3}"), std::string::npos)
      << bad.status();

  // ...so the graph, the version, and the generation are all unchanged.
  auto dyn = store.DynGraph("g");
  ASSERT_TRUE(dyn.ok());
  EXPECT_EQ((*dyn)->CurrentVersion(), 0u);
  uint64_t generation_after = 0;
  auto graph = store.Get("g", &generation_after);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(generation_after, generation_before);
  EXPECT_FALSE((*graph)->HasEdge(0, 5));
}

TEST(GraphStoreDynTest, ReplaceStartsFreshDynamicHistory) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  auto old_dyn = store.DynGraph("g");
  ASSERT_TRUE(old_dyn.ok());
  ASSERT_TRUE(store.ApplyMutations("g", Batch({{0, 5}}, {})).ok());

  ASSERT_TRUE(store
                  .Replace("g",
                           []() -> StatusOr<graph::Graph> {
                             return Clique(4);
                           })
                  .ok());

  // The store's history handle is fresh: version 0 over the new base, the
  // old mutations gone. The old handle stays valid for readers pinned to it.
  auto new_dyn = store.DynGraph("g");
  ASSERT_TRUE(new_dyn.ok());
  EXPECT_NE(old_dyn->get(), new_dyn->get());
  EXPECT_EQ((*new_dyn)->CurrentVersion(), 0u);
  EXPECT_EQ((*new_dyn)->Snapshot()->NumEdges(), 6u);  // Clique(4)
  EXPECT_EQ((*old_dyn)->CurrentVersion(), 1u);
}

// ---------------------------------------------------------------------------
// JobScheduler: "crr-inc" sessions

TEST(JobSchedulerDynTest, CrrIncColdMatchesCrrBitIdentically) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(80, 160, 9));
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  auto inc = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto inc_result = scheduler.Wait(*inc);
  ASSERT_TRUE(inc_result.ok()) << inc_result.status();

  auto full = scheduler.Submit({"g", "crr", 0.5, 42});
  ASSERT_TRUE(full.ok());
  auto full_result = scheduler.Wait(*full);
  ASSERT_TRUE(full_result.ok());

  // A cold session is engineered to answer exactly what a from-scratch CRR
  // job would: same kept EdgeIds, same delta.
  EXPECT_EQ((*inc_result)->kept_edges, (*full_result)->kept_edges);
  EXPECT_DOUBLE_EQ((*inc_result)->total_delta, (*full_result)->total_delta);
}

TEST(JobSchedulerDynTest, CrrIncReshedsIncrementallyAfterMutations) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph base = RandomGraph(80, 160, 9);
  RegisterGraph(store, "g", base);
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  auto cold = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(scheduler.Wait(*cold).ok());

  ASSERT_TRUE(store.ApplyMutations("g", Batch({{0, 40}}, {{0, 1}})).ok());

  auto warm = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(warm.ok());
  auto warm_result = scheduler.Wait(*warm);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status();

  // The session survived the mutation: this run was incremental, against
  // the new version, with the exact round(p·E) budget, and its EdgeIds are
  // valid on the mutated graph the store now serves.
  const auto& stats = (*warm_result)->stats;
  auto stat = [&stats](const std::string& name) -> double {
    for (const auto& [key, value] : stats) {
      if (key == name) return value;
    }
    return -1.0;
  };
  EXPECT_EQ(stat("version"), 1.0);
  EXPECT_EQ(stat("full_rank"), 0.0);

  auto mutated = store.Get("g");
  ASSERT_TRUE(mutated.ok());
  const uint64_t live = (*mutated)->NumEdges();
  EXPECT_EQ((*warm_result)->kept_edges.size(),
            static_cast<size_t>(std::llround(0.5 * live)));
  for (const graph::EdgeId id : (*warm_result)->kept_edges) {
    ASSERT_LT(id, live);
  }
}

TEST(JobSchedulerDynTest, MutationInvalidatesResultCache) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(60, 120, 3));
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  const JobSpec spec{"g", "crr", 0.5, 42};
  auto first = scheduler.Submit(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(scheduler.Wait(*first).ok());

  // The mutation bumps the dataset generation, so the identical spec is a
  // different cache key: it must run against the mutated graph, not be
  // served the stale kept set.
  ASSERT_TRUE(store.ApplyMutations("g", Batch({}, {{0, 1}})).ok());
  auto second = scheduler.Submit(spec);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(scheduler.Wait(*second).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 0u);
  auto status = scheduler.GetStatus(*second);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->deduplicated);
}

// Regression: every client-chosen (dataset, p, seed) used to pin its O(E)
// session forever. Sessions are now an LRU capped at kMaxDynSessions.
TEST(JobSchedulerDynTest, CrrIncSessionsAreBoundedLru) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(60, 120, 3));
  JobSchedulerOptions options;
  options.workers = 1;
  JobScheduler scheduler(&store, &metrics, options);
  constexpr uint64_t kKeys = JobScheduler::kMaxDynSessions + 4;
  auto run = [&scheduler](uint64_t seed) {
    JobSpec spec;
    spec.dataset = "g";
    spec.method = "crr-inc";
    spec.seed = seed;
    auto id = scheduler.Submit(spec);
    EXPECT_TRUE(id.ok()) << id.status();
    auto result = scheduler.Wait(*id);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  };
  for (uint64_t seed = 1; seed <= kKeys; ++seed) {
    run(seed);
    EXPECT_EQ(metrics.GaugeValue("scheduler.dyn_sessions"),
              static_cast<int64_t>(
                  std::min<uint64_t>(seed, JobScheduler::kMaxDynSessions)));
  }

  // A new generation, so the specs below run instead of hitting the result
  // cache. The most recent key still has its session and re-sheds
  // incrementally; the least recent was evicted and starts over cold.
  ASSERT_TRUE(store.ApplyMutations("g", Batch({}, {{0, 1}})).ok());
  auto mutated = store.Get("g");
  ASSERT_TRUE(mutated.ok());
  const uint64_t target = core::TargetEdgeCount(**mutated, 0.5);
  auto full_rank = [](const JobResult& result) {
    for (const auto& [key, value] : result->stats) {
      if (key == "full_rank") return value;
    }
    return -1.0;
  };
  const JobResult retained = run(kKeys);
  EXPECT_EQ(full_rank(retained), 0.0);
  EXPECT_EQ(retained->kept_edges.size(), target);
  const JobResult recreated = run(1);
  EXPECT_EQ(full_rank(recreated), 1.0);
  EXPECT_EQ(recreated->kept_edges.size(), target);
  EXPECT_EQ(metrics.GaugeValue("scheduler.dyn_sessions"),
            static_cast<int64_t>(JobScheduler::kMaxDynSessions));
}

// A crr-inc job is cancellable while it runs, and the session it cut short
// answers the next crr-inc like a cold CRR of that version. The wide batch
// (250 spine deletes dirty 500 of 1500 vertices, past the 25% bound) makes
// the cancelled re-shed a full one, long enough to be caught running.
TEST(JobSchedulerDynTest, CrrIncCancelledWhileRunningThenMatchesCold) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(1500, 3000, 21));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});
  const JobSpec spec{"g", "crr-inc", 0.5, 42};
  auto warm = scheduler.Submit(spec);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(scheduler.Wait(*warm).ok());

  std::vector<graph::Edge> deletes;
  for (graph::NodeId u = 0; u < 500; u += 2) deletes.push_back({u, u + 1});
  ASSERT_TRUE(store.ApplyMutations("g", Batch({}, deletes)).ok());

  auto doomed = scheduler.Submit(spec);
  ASSERT_TRUE(doomed.ok());
  WaitUntilRunning(scheduler, *doomed);
  ASSERT_TRUE(scheduler.Cancel(*doomed).ok());
  EXPECT_EQ(scheduler.Wait(*doomed).status().code(), StatusCode::kCancelled);
  EXPECT_GE(metrics.CounterValue("scheduler.cancelled_while_running"), 1u);

  auto next = scheduler.Submit(spec);
  ASSERT_TRUE(next.ok());
  auto result = scheduler.Wait(*next);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Stat(*result, "version"), 1.0);
  EXPECT_EQ(Stat(*result, "full_rank"), 1.0);
  auto mutated = store.Get("g");
  ASSERT_TRUE(mutated.ok());
  ExpectMatchesColdCrr(*result, **mutated);
}

// The job's deadline reaches the session: a cold crr-inc far longer than
// its 20 ms budget ends DeadlineExceeded instead of running to the end (a
// job dispatched after its deadline ends the same way), and the next one
// matches a cold CRR.
TEST(JobSchedulerDynTest, CrrIncObeysDeadline) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph g = RandomGraph(1500, 3000, 22);
  RegisterGraph(store, "g", g);
  JobScheduler scheduler(&store, &metrics, {.workers = 1});
  JobSpec spec{"g", "crr-inc", 0.5, 42};
  spec.deadline = std::chrono::milliseconds(20);
  auto doomed = scheduler.Submit(spec);
  ASSERT_TRUE(doomed.ok());
  EXPECT_EQ(scheduler.Wait(*doomed).status().code(),
            StatusCode::kDeadlineExceeded);
  auto status = scheduler.GetStatus(*doomed);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);

  spec.deadline = std::chrono::milliseconds(0);
  auto next = scheduler.Submit(spec);
  ASSERT_TRUE(next.ok());
  auto result = scheduler.Wait(*next);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectMatchesColdCrr(*result, g);
}

TEST(JobSchedulerDynTest, CrrIncIsNotAKnownStaticShedder) {
  // crr-inc dispatches through the scheduler's session path; it must be
  // accepted by Submit but stay off the static-shedder degradation ladder.
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});
  auto id = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(scheduler.Wait(*id).ok());
  auto bad = scheduler.Submit({"g", "crr-inc-nope", 0.5, 42});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace edgeshed::service
