#ifndef EDGESHED_CORE_SWAP_CHAIN_H_
#define EDGESHED_CORE_SWAP_CHAIN_H_

#include <cstddef>
#include <cstdint>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/statusor.h"
#include "common/stopwatch.h"
#include "core/discrepancy.h"

namespace edgeshed::core {

/// What one Phase-2 swap chain did.
struct SwapChainStats {
  /// Swap attempts requested (Algorithm 1's `steps`).
  uint64_t steps = 0;
  uint64_t swaps_accepted = 0;
  double seconds = 0.0;
};

/// Algorithm 1 lines 8-15, the only implementation of Phase 2: `steps`
/// random swap attempts between the kept slots E' (`kept[0..kept_count)`)
/// and the excluded slots E \ E' (`excluded[0..excluded_count)`). Each step
/// draws a kept index and then an excluded index from `rng`, evaluates
/// d1 = RemovalDelta and d2 = AdditionDelta against the current
/// `discrepancy`, and accepts iff d1 + d2 < 0 (<= 0 with
/// `accept_zero_delta_swaps`). An accepted swap applies the removal and the
/// addition to `discrepancy`, then calls `on_accept(kept_slot,
/// excluded_slot)`, which must exchange the two edges between the slots
/// along with any bookkeeping of the caller's.
///
/// `Slot` is the caller's slot type; it exposes the endpoints of the edge
/// it holds as `u()` and `v()`.
///
/// The chain is a dependent walk, but its draws are not: the indices depend
/// only on the rng and the two fixed slot counts. So the kernel draws
/// kSlotLead steps ahead into a ring, prefetches the slots of step
/// s + kSlotLead, and prefetches the four endpoint rows of step
/// s + kRowLead, read from those slots as they are at that moment (a later
/// swap can make them stale, which costs a wasted hint, never a wrong
/// answer). The rng is consumed in the same order (kept, then excluded, one
/// step at a time) and never for more than `steps` pairs, and prefetches
/// have no side effects, so the result is bit-identical to the plain loop.
///
/// Polls `cancel` every 4096 steps; a tripped token returns its status with
/// the slots and `discrepancy` reflecting a prefix of the chain.
template <typename Slot, typename OnAccept>
StatusOr<SwapChainStats> RunSwapChain(Slot* kept, size_t kept_count,
                                      Slot* excluded, size_t excluded_count,
                                      uint64_t steps,
                                      bool accept_zero_delta_swaps, Rng* rng,
                                      DegreeDiscrepancy* discrepancy,
                                      const CancellationToken* cancel,
                                      OnAccept on_accept) {
  // Lookahead distances, in steps. kSlotLead covers the miss on the slot
  // array; a slot read kRowLead steps later has landed, and its endpoints'
  // rows then have kRowLead steps to arrive before they are read.
  constexpr uint64_t kSlotLead = 16;
  constexpr uint64_t kRowLead = 8;
  // One predictable branch per 4096 attempts keeps the poll off the hot
  // path, and the chain is unchanged whenever the token never trips.
  constexpr uint64_t kCancelCheckMask = 4096 - 1;
  static_assert(kRowLead < kSlotLead);

  const Stopwatch watch;
  SwapChainStats stats;
  stats.steps = steps;
  if (kept_count == 0 || excluded_count == 0) {
    stats.seconds = watch.ElapsedSeconds();
    return stats;
  }

  struct Draw {
    size_t kept_index;
    size_t excluded_index;
  };
  // Step s's draw lives in ring[s % kSlotLead] from the time it is drawn
  // until step s runs; step s + kSlotLead is drawn into the same entry once
  // step s has copied it out.
  Draw ring[kSlotLead];
  uint64_t drawn = 0;
  const auto draw_next = [&] {
    Draw& draw = ring[drawn % kSlotLead];
    draw.kept_index = rng->UniformIndex(kept_count);
    draw.excluded_index = rng->UniformIndex(excluded_count);
    __builtin_prefetch(kept + draw.kept_index);
    __builtin_prefetch(excluded + draw.excluded_index);
    ++drawn;
  };
  const auto prefetch_rows = [&](const Draw& draw) {
    const Slot& removal = kept[draw.kept_index];
    const Slot& addition = excluded[draw.excluded_index];
    discrepancy->PrefetchRow(removal.u());
    discrepancy->PrefetchRow(removal.v());
    discrepancy->PrefetchRow(addition.u());
    discrepancy->PrefetchRow(addition.v());
  };

  while (drawn < steps && drawn < kSlotLead) draw_next();
  for (uint64_t step = 0; step < steps && step < kRowLead; ++step) {
    prefetch_rows(ring[step]);
  }
  for (uint64_t step = 0; step < steps; ++step) {
    if ((step & kCancelCheckMask) == 0 && CancellationRequested(cancel)) {
      return cancel->ToStatus();
    }
    const Draw current = ring[step % kSlotLead];
    if (drawn < steps) draw_next();
    if (step + kRowLead < steps) {
      prefetch_rows(ring[(step + kRowLead) % kSlotLead]);
    }
    Slot& kept_slot = kept[current.kept_index];
    Slot& excluded_slot = excluded[current.excluded_index];

    // d1, d2 exactly as Algorithm 1 lines 10-11: both evaluated against
    // the current state. (When the two edges share an endpoint the true
    // combined change can differ; the paper's acceptance test — which we
    // follow — ignores that interaction, while the Δ bookkeeping below
    // applies the two operations sequentially and stays exact.)
    const double d1 = discrepancy->RemovalDelta(kept_slot.u(), kept_slot.v());
    const double d2 =
        discrepancy->AdditionDelta(excluded_slot.u(), excluded_slot.v());
    const double combined = d1 + d2;
    const bool accept =
        accept_zero_delta_swaps ? combined <= 0.0 : combined < 0.0;
    if (!accept) continue;
    discrepancy->RemoveEdge(kept_slot.u(), kept_slot.v());
    discrepancy->AddEdge(excluded_slot.u(), excluded_slot.v());
    on_accept(kept_slot, excluded_slot);
    ++stats.swaps_accepted;
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_SWAP_CHAIN_H_
