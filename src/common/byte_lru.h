#ifndef EDGESHED_COMMON_BYTE_LRU_H_
#define EDGESHED_COMMON_BYTE_LRU_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace edgeshed {

/// Metric handles a ByteLru updates; any may be null. Each owner resolves
/// them under its own metric names, so the shared mechanism keeps every
/// name it replaced.
struct ByteLruInstruments {
  obs::Counter* hit = nullptr;           // served a resident entry
  obs::Counter* wait_hit = nullptr;      // served after waiting on a compute
  obs::Counter* miss = nullptr;          // this caller computes / Lookup missed
  obs::Counter* failed = nullptr;        // a compute returned an error
  obs::Counter* wait_failure = nullptr;  // a waiter got a wave's failure
  obs::Counter* evicted = nullptr;       // dropped to fit the budget
  obs::Gauge* bytes = nullptr;
  obs::Gauge* entries = nullptr;
  obs::LatencySeries* compute_seconds = nullptr;  // successful computes
};

/// Thread-safe string-keyed LRU bounded by a byte budget — the one cache
/// mechanism of the service layer (GraphStore residency, RankCache, the
/// scheduler's result cache and its crr-inc sessions; DESIGN.md §7).
///
///  * Accounting: each resident entry costs `sizer(key, value)` bytes. After
///    every install, least-recently-used entries are evicted while the total
///    exceeds the budget — never the entry just installed, so one oversized
///    value is still served (and dropped by the next install). A budget of 0
///    turns the cache off: nothing is installed, though concurrent computes
///    of one key still coalesce.
///  * Coalescing: GetOrCompute runs `compute` outside the lock. Concurrent
///    callers of the same key wait for that one compute wave and share its
///    value. A failed compute is never cached and is shared with the wave's
///    waiters — unless the computing caller's own `cancel` token tripped;
///    then the waiters retry and the next one computes afresh, so one
///    cancelled caller cannot fail independent ones.
///  * Erase / Insert on a key whose compute is in flight detach that wave:
///    its callers still get its value, but it is not installed.
///  * Values are handed out by copy (typically a shared_ptr), so a lease
///    outlives eviction.
///
/// `on_evict` runs under the cache lock for each value the budget drops (not
/// for Erase/Clear); it must not call back into the cache.
template <typename Value>
class ByteLru {
 public:
  using Sizer =
      std::function<uint64_t(const std::string& key, const Value& value)>;
  using EvictFn =
      std::function<void(const std::string& key, const Value& value)>;

  ByteLru(uint64_t byte_budget, Sizer sizer,
          ByteLruInstruments instruments = {}, EvictFn on_evict = nullptr)
      : budget_(byte_budget),
        sizer_(std::move(sizer)),
        instruments_(instruments),
        on_evict_(std::move(on_evict)) {}

  ByteLru(const ByteLru&) = delete;
  ByteLru& operator=(const ByteLru&) = delete;

  /// Returns the resident value for `key`, or runs `compute()` (returning
  /// StatusOr<Value>) and installs its value. See the class comment for
  /// how concurrent callers and failures are shared. `compute_seconds`, when
  /// non-null, receives the compute's wall time iff this caller computed
  /// successfully; it is left untouched otherwise.
  template <typename Compute>
  StatusOr<Value> GetOrCompute(const std::string& key, Compute&& compute,
                               const CancellationToken* cancel = nullptr,
                               double* compute_seconds = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    for (;;) {
      if (auto it = map_.find(key); it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        Count(waited ? instruments_.wait_hit : instruments_.hit);
        return it->second->value;
      }
      auto in_flight = waves_.find(key);
      if (in_flight == waves_.end()) break;
      const std::shared_ptr<Wave> wave = in_flight->second;
      waited = true;
      wave_done_.wait(lock, [&wave] { return wave->done; });
      if (wave->status.ok()) {
        Count(instruments_.wait_hit);
        return wave->value;
      }
      if (wave->shared) {
        Count(instruments_.wait_failure);
        return wave->status;
      }
      // The computing caller was cancelled: look again, and compute afresh
      // unless another waiter already started a new wave.
    }
    auto wave = std::make_shared<Wave>();
    waves_[key] = wave;
    Count(instruments_.miss);
    lock.unlock();

    Stopwatch watch;
    StatusOr<Value> result = compute();
    const double seconds = watch.ElapsedSeconds();

    lock.lock();
    wave->done = true;
    auto in_flight = waves_.find(key);
    const bool attached =
        in_flight != waves_.end() && in_flight->second == wave;
    if (attached) waves_.erase(in_flight);
    if (result.ok()) {
      wave->value = *result;
      if (attached) InstallLocked(key, *result);
      if (instruments_.compute_seconds != nullptr) {
        instruments_.compute_seconds->Record(seconds);
      }
      if (compute_seconds != nullptr) *compute_seconds = seconds;
    } else {
      wave->status = result.status();
      wave->shared = !CancellationRequested(cancel);
      Count(instruments_.failed);
    }
    wave_done_.notify_all();
    return result;
  }

  /// The resident value for `key` (marked most recently used), or nullopt.
  /// Counts a hit or a miss.
  std::optional<Value> Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      Count(instruments_.miss);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    Count(instruments_.hit);
    return it->second->value;
  }

  /// True iff `key` is resident. Neither counts nor changes recency.
  bool Contains(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.count(key) > 0;
  }

  /// Installs `value` under `key` (replacing any resident value) as the most
  /// recently used entry, then evicts to fit the budget.
  void Insert(const std::string& key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    waves_.erase(key);
    InstallLocked(key, std::move(value));
  }

  /// Drops `key`, resident or in flight (an in-flight compute then serves
  /// its callers without installing).
  void Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    waves_.erase(key);
    UnlinkLocked(key);
    PublishLocked();
  }

  /// Drops every resident entry; in-flight computes still install.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
    PublishLocked();
  }

  /// Resident entries (in-flight computes excluded).
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  uint64_t byte_budget() const { return budget_; }

 private:
  /// One compute of one key; shared by every caller that waited on it.
  struct Wave {
    bool done = false;
    bool shared = true;  // false: the computer's own cancellation
    Status status;
    Value value;
  };
  struct Node {
    std::string key;
    Value value;
    uint64_t bytes = 0;
  };
  using List = std::list<Node>;

  static void Count(obs::Counter* counter) {
    if (counter != nullptr) counter->Increment();
  }

  void UnlinkLocked(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }

  void InstallLocked(const std::string& key, Value value) {
    UnlinkLocked(key);
    if (budget_ == 0) {
      // Off: the budget drops every value at once.
      if (on_evict_ != nullptr) on_evict_(key, value);
    } else {
      const uint64_t bytes = sizer_(key, value);
      lru_.push_front(Node{key, std::move(value), bytes});
      map_[key] = lru_.begin();
      bytes_ += bytes;
      // The one eviction loop. The entry just installed is at the front, so
      // stopping at one entry never evicts it.
      while (bytes_ > budget_ && lru_.size() > 1) {
        const Node& victim = lru_.back();
        if (on_evict_ != nullptr) on_evict_(victim.key, victim.value);
        Count(instruments_.evicted);
        UnlinkLocked(victim.key);
      }
    }
    PublishLocked();
  }

  void PublishLocked() {
    if (instruments_.bytes != nullptr) {
      instruments_.bytes->Set(static_cast<int64_t>(bytes_));
    }
    if (instruments_.entries != nullptr) {
      instruments_.entries->Set(static_cast<int64_t>(lru_.size()));
    }
  }

  const uint64_t budget_;
  const Sizer sizer_;
  const ByteLruInstruments instruments_;
  const EvictFn on_evict_;

  mutable std::mutex mu_;
  std::condition_variable wave_done_;
  List lru_;  // resident entries, front = most recently used
  std::unordered_map<std::string, typename List::iterator> map_;
  std::unordered_map<std::string, std::shared_ptr<Wave>> waves_;  // in flight
  uint64_t bytes_ = 0;
};

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_BYTE_LRU_H_
