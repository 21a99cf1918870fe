#ifndef EDGESHED_CORE_CRR_H_
#define EDGESHED_CORE_CRR_H_

#include <cstdint>
#include <optional>

#include "analytics/betweenness.h"
#include "core/shedding.h"

namespace edgeshed::core {

/// Configuration for Centrality Ranking with Rewiring.
struct CrrOptions {
  /// steps = round(steps_multiplier · P) where P = p·|E| (paper: 10 after
  /// the Fig. 4 sweep). Ignored when steps_override is set.
  double steps_multiplier = 10.0;
  /// Exact number of Phase-2 swap attempts, overriding the multiplier.
  std::optional<uint64_t> steps_override;

  /// How Phase 1 picks the initial E'. kBetweenness is the paper's method;
  /// kRandom exists for the phase ablation (DESIGN.md §6.1).
  enum class InitMode { kBetweenness, kRandom };
  InitMode init_mode = InitMode::kBetweenness;

  /// Accept swaps with d1 + d2 == 0 as well (paper requires strictly < 0);
  /// ablation §6.2.
  bool accept_zero_delta_swaps = false;

  /// Betweenness estimator controls (exact below the threshold, sampled
  /// pivots above; see analytics::BetweennessOptions). Defaults to the
  /// ranking fast path — hybrid kernel plus adaptive pivot waves
  /// (DESIGN.md §12); waves only engage in sampled mode, so graphs under
  /// the exact threshold are unaffected.
  analytics::BetweennessOptions betweenness =
      analytics::BetweennessOptions::FastRanking();

  /// Seed for Phase-2 swap sampling (and Phase-1 random init).
  uint64_t seed = 42;
};

/// Centrality Ranking with Rewiring — Algorithm 1 of the paper.
///
/// Phase 1 keeps the round(p·|E|) edges of highest edge betweenness
/// centrality (ties resolved deterministically by edge id). Phase 2 runs
/// `steps` random swap attempts between E' and E \ E', accepting a swap iff
/// it strictly reduces the total degree discrepancy Δ (core/swap_chain.h,
/// shared with dyn::ShedSession). |E'| is invariant
/// throughout, which pins the reduced graph's average degree at p times the
/// original (Eq. 2).
class Crr : public EdgeShedder {
 public:
  explicit Crr(CrrOptions options = {}) : options_(options) {}

  std::string name() const override { return "crr"; }
  /// ShedOptions mapping: `seed` overrides CrrOptions::seed; `threads`
  /// overrides the betweenness estimator's thread count. Phase 2 runs on
  /// one thread: the swap chain is a single dependent random walk, but its
  /// draws do not depend on the chain's state, which is why
  /// core/swap_chain.h draws them ahead and prefetches the memory they
  /// touch.
  StatusOr<SheddingResult> Shed(const graph::Graph& g,
                                const ShedOptions& options) const override;

  /// The Phase-2 iteration count CRR will use for this graph and p.
  uint64_t StepsFor(const graph::Graph& g, double p) const;

 private:
  CrrOptions options_;
};

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_CRR_H_
