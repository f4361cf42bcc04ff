// GM validity voting.
//
// The paper keeps, in FTSHMEM, "an array of M booleans indicating whether
// the corresponding GM clock's offset from the remaining GM clocks is
// within a configurable threshold". A GM is also unusable when its offset
// is stale (fail-silent GM: Syncs stopped arriving).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/ft_shmem.hpp"

namespace tsn::core {

struct ValidityConfig {
  /// Max |offset_i - offset_j| against the median of the other GMs for GM i
  /// to count as agreeing.
  double agreement_threshold_ns = 30'000.0;
  /// Offsets older than this (vs. the local clock `now`) are stale.
  std::int64_t freshness_window_ns = 500'000'000;
};

struct GmVerdict {
  bool fresh = false;
  bool agrees = false;
  bool usable() const { return fresh && agrees; }
};

/// Evaluate all slots at local time `now`, one verdict per slot into
/// `verdicts` (the same size as `slots`, at most kMaxDomains: FTSHMEM's
/// capacity, which keeps the vote's scratch on the stack). Slots that
/// never produced a sample are not fresh. Agreement: |offset_i -
/// median(other fresh offsets)| <= threshold; with fewer than 2 fresh
/// peers agreement defaults to true (no quorum to vote a GM out).
void evaluate_validity(std::span<const std::optional<GmOffsetRecord>> slots, std::int64_t now,
                       const ValidityConfig& cfg, std::span<GmVerdict> verdicts);

} // namespace tsn::core
