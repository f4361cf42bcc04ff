#include "core/validity.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/fta.hpp"

namespace tsn::core {

void evaluate_validity(std::span<const std::optional<GmOffsetRecord>> slots, std::int64_t now,
                       const ValidityConfig& cfg, std::span<GmVerdict> verdicts) {
  if (slots.size() > kMaxDomains || verdicts.size() != slots.size()) {
    throw std::invalid_argument("evaluate_validity: need one verdict per slot, at most " +
                                std::to_string(kMaxDomains) + " slots");
  }
  std::array<double, kMaxDomains> fresh_offsets{};
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    verdicts[i] = {};
    verdicts[i].fresh = slots[i].has_value() &&
                        (now - slots[i]->local_rx_ts) <= cfg.freshness_window_ns;
    if (verdicts[i].fresh) fresh_offsets[fresh++] = slots[i]->offset_ns;
  }
  if (fresh < 3) {
    // No quorum to out-vote anyone.
    for (auto& v : verdicts) v.agrees = v.fresh;
    return;
  }
  // Agreement against the median of all fresh offsets (self included): with
  // a majority of honest clocks the median always lies inside the honest
  // range, so honest GMs stay in and isolated outliers are voted out.
  const double med = *median(std::span(fresh_offsets).first(fresh));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!verdicts[i].fresh) continue;
    verdicts[i].agrees = std::abs(slots[i]->offset_ns - med) <= cfg.agreement_threshold_ns;
  }
}

} // namespace tsn::core
