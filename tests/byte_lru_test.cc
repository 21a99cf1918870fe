#include "common/byte_lru.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace edgeshed {
namespace {

// Values are their own size in bytes, so budgets read directly.
using Lru = ByteLru<int>;

uint64_t ValueBytes(const std::string&, const int& value) {
  return static_cast<uint64_t>(value);
}

ByteLruInstruments Instruments(obs::MetricsRegistry& metrics) {
  ByteLruInstruments instruments;
  instruments.hit = metrics.GetCounter("hit");
  instruments.wait_hit = metrics.GetCounter("wait_hit");
  instruments.miss = metrics.GetCounter("miss");
  instruments.failed = metrics.GetCounter("failed");
  instruments.wait_failure = metrics.GetCounter("wait_failure");
  instruments.evicted = metrics.GetCounter("evicted");
  instruments.bytes = metrics.GetGauge("bytes");
  instruments.entries = metrics.GetGauge("entries");
  instruments.compute_seconds = metrics.GetLatency("compute_seconds");
  return instruments;
}

// Blocks until `count` reaches `target`, then gives the last arrivals a
// beat to reach the cache's wait.
void AwaitArrivals(const std::atomic<int>& count, int target) {
  while (count.load() < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(ByteLruTest, EvictsLeastRecentlyUsedFirst) {
  obs::MetricsRegistry metrics;
  std::vector<std::string> evicted;
  Lru lru(10, ValueBytes, Instruments(metrics),
          [&evicted](const std::string& key, const int&) {
            evicted.push_back(key);
          });
  lru.Insert("a", 4);
  lru.Insert("b", 4);
  ASSERT_TRUE(lru.Lookup("a").has_value());  // b is now least recent
  lru.Insert("c", 4);                         // 12 > 10: drops b only
  EXPECT_EQ(evicted, std::vector<std::string>{"b"});
  EXPECT_TRUE(lru.Contains("a"));
  EXPECT_FALSE(lru.Contains("b"));
  EXPECT_TRUE(lru.Contains("c"));
  EXPECT_EQ(lru.bytes(), 8u);
  EXPECT_EQ(metrics.CounterValue("evicted"), 1u);
  EXPECT_EQ(metrics.CounterValue("hit"), 1u);
  EXPECT_FALSE(lru.Lookup("b").has_value());
  EXPECT_EQ(metrics.CounterValue("miss"), 1u);
}

TEST(ByteLruTest, NeverEvictsTheEntryJustInstalled) {
  Lru lru(10, ValueBytes);
  lru.Insert("small", 3);
  lru.Insert("huge", 100);  // over budget alone: everything else goes
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_TRUE(lru.Contains("huge"));
  EXPECT_EQ(lru.bytes(), 100u);
  auto computed = lru.GetOrCompute("bigger", [] { return StatusOr<int>(50); });
  ASSERT_TRUE(computed.ok());
  EXPECT_EQ(lru.entries(), 1u);  // the next install drops the oversized one
  EXPECT_TRUE(lru.Contains("bigger"));
}

TEST(ByteLruTest, AccountsBytesAcrossReplaceEraseAndClear) {
  obs::MetricsRegistry metrics;
  Lru lru(100, ValueBytes, Instruments(metrics));
  lru.Insert("a", 4);
  lru.Insert("b", 3);
  EXPECT_EQ(lru.bytes(), 7u);
  lru.Insert("a", 2);  // replace re-charges, never double-counts
  EXPECT_EQ(lru.bytes(), 5u);
  EXPECT_EQ(lru.entries(), 2u);
  EXPECT_EQ(*lru.Lookup("a"), 2);
  lru.Erase("b");
  lru.Erase("missing");
  EXPECT_EQ(lru.bytes(), 2u);
  EXPECT_EQ(metrics.GaugeValue("bytes"), 2);
  EXPECT_EQ(metrics.GaugeValue("entries"), 1);
  lru.Clear();
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_EQ(lru.entries(), 0u);
  EXPECT_EQ(metrics.GaugeValue("bytes"), 0);
  EXPECT_EQ(metrics.CounterValue("evicted"), 0u);  // none were evictions
}

TEST(ByteLruTest, ZeroBudgetInstallsNothing) {
  int dropped = 0;
  Lru lru(0, ValueBytes, {},
          [&dropped](const std::string&, const int&) { ++dropped; });
  lru.Insert("a", 1);
  auto computed = lru.GetOrCompute("b", [] { return StatusOr<int>(2); });
  ASSERT_TRUE(computed.ok());
  EXPECT_EQ(*computed, 2);
  EXPECT_EQ(lru.entries(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_EQ(dropped, 2);
}

TEST(ByteLruTest, ConcurrentMissesComputeOnce) {
  obs::MetricsRegistry metrics;
  Lru lru(100, ValueBytes, Instruments(metrics));
  constexpr int kThreads = 8;
  std::atomic<int> arrivals{0};
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++arrivals;
      auto value = lru.GetOrCompute("k", [&]() -> StatusOr<int> {
        ++computes;
        AwaitArrivals(arrivals, kThreads);
        return 7;
      });
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, 7);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(metrics.CounterValue("miss"), 1u);
  EXPECT_EQ(metrics.CounterValue("hit") + metrics.CounterValue("wait_hit"),
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(metrics.LatencyValue("compute_seconds").count, 1u);
  EXPECT_EQ(lru.entries(), 1u);
}

TEST(ByteLruTest, FailureIsSharedWithTheWaveAndNotCached) {
  obs::MetricsRegistry metrics;
  Lru lru(100, ValueBytes, Instruments(metrics));
  constexpr int kThreads = 8;
  std::atomic<int> arrivals{0};
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++arrivals;
      auto value = lru.GetOrCompute("k", [&]() -> StatusOr<int> {
        ++computes;
        AwaitArrivals(arrivals, kThreads);
        return Status::IOError("disk on fire");
      });
      EXPECT_EQ(value.status().code(), StatusCode::kIOError);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(metrics.CounterValue("failed"), 1u);
  EXPECT_EQ(metrics.CounterValue("wait_failure"),
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(lru.entries(), 0u);

  // A caller after the failed wave starts a new one.
  auto retry = lru.GetOrCompute("k", [] { return StatusOr<int>(3); });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 3);
}

TEST(ByteLruTest, OwnCancellationIsNotSharedWithWaiters) {
  obs::MetricsRegistry metrics;
  Lru lru(100, ValueBytes, Instruments(metrics));
  CancellationToken token;
  std::atomic<bool> computing{false};
  std::atomic<int> waiters{0};
  std::thread canceller([&] {
    auto value = lru.GetOrCompute(
        "k",
        [&]() -> StatusOr<int> {
          computing = true;
          AwaitArrivals(waiters, 1);
          token.Cancel();
          return token.ToStatus();
        },
        &token);
    EXPECT_EQ(value.status().code(), StatusCode::kCancelled);
  });
  while (!computing.load()) std::this_thread::yield();
  ++waiters;
  double seconds = -1.0;
  auto value = lru.GetOrCompute(
      "k", [] { return StatusOr<int>(5); }, nullptr, &seconds);
  canceller.join();
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 5);
  EXPECT_GE(seconds, 0.0);  // the waiter computed afresh itself
  EXPECT_EQ(metrics.CounterValue("failed"), 1u);
  EXPECT_EQ(metrics.CounterValue("wait_failure"), 0u);
  EXPECT_EQ(metrics.CounterValue("miss"), 2u);
  EXPECT_TRUE(lru.Contains("k"));
}

TEST(ByteLruTest, EraseDetachesAnInFlightCompute) {
  Lru lru(100, ValueBytes);
  std::atomic<bool> computing{false};
  std::atomic<bool> release{false};
  std::thread loader([&] {
    auto value = lru.GetOrCompute("k", [&]() -> StatusOr<int> {
      computing = true;
      while (!release.load()) std::this_thread::yield();
      return 9;
    });
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 9);  // the computing caller still gets its value
  });
  while (!computing.load()) std::this_thread::yield();
  lru.Erase("k");
  release = true;
  loader.join();
  EXPECT_FALSE(lru.Contains("k"));  // ... but it is not installed
  EXPECT_EQ(lru.bytes(), 0u);
}

}  // namespace
}  // namespace edgeshed
