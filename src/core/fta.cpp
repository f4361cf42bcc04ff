#include "core/fta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsn::core {

namespace {

// One Neumaier step: accumulate x into (sum, comp). Branchless big/small
// selection compiles to cmp+blend; a data-random branch would mispredict
// half the time.
inline void neumaier_step(double& sum, double& comp, double x) {
  const double t = sum + x;
  const bool sum_bigger = std::abs(sum) >= std::abs(x);
  const double big = sum_bigger ? sum : x;
  const double small = sum_bigger ? x : sum;
  comp += (big - t) + small;
  sum = t;
}

// Neumaier-compensated sum as an unevaluated (sum, comp) pair, accumulated
// in four independent lanes so the loop is throughput- instead of
// latency-bound. The trimmed middle produced by nth_element is unordered,
// so a plain left-to-right sum would depend on the partition's internal
// order; compensation makes the result exact to the last ulp (error
// O(n·eps²)) and therefore permutation-invariant, like the fully-sorted
// implementation this replaced.
struct CompensatedSum {
  double sum = 0.0;
  double comp = 0.0;
  double collapse() const {
    // With infinities the compensation term is NaN; the plain sum already
    // carries the correct ±inf/NaN outcome.
    if (!std::isfinite(sum)) return sum;
    return sum + comp;
  }
};

CompensatedSum compensated_sum(const double* first, const double* last) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  double c[4] = {0.0, 0.0, 0.0, 0.0};
  const double* p = first;
  for (; last - p >= 4; p += 4) {
    neumaier_step(s[0], c[0], p[0]);
    neumaier_step(s[1], c[1], p[1]);
    neumaier_step(s[2], c[2], p[2]);
    neumaier_step(s[3], c[3], p[3]);
  }
  for (int k = 0; p != last; ++p, k = (k + 1) & 3) neumaier_step(s[k], c[k], *p);
  CompensatedSum out;
  for (int k = 0; k < 4; ++k) {
    neumaier_step(out.sum, out.comp, s[k]);
    out.comp += c[k];
  }
  return out;
}

} // namespace

std::optional<double> fault_tolerant_average(std::span<double> values, int f) {
  if (f < 0) throw std::invalid_argument("fta: f must be >= 0");
  const std::size_t n = values.size();
  if (n < static_cast<std::size_t>(2 * f + 1)) return std::nullopt;
  // Trimming only needs partial selection, not a full sort: partition the
  // f smallest to the front, then the f largest of the remainder to the
  // back. O(n) instead of O(n log n); the kept middle stays unordered.
  const std::size_t lo = static_cast<std::size_t>(f);
  const std::size_t hi = n - static_cast<std::size_t>(f);
  if (f == 1) {
    // The paper's configuration: a branchless min/max scan (vectorizable)
    // plus "compensated total minus the extremes" beats even one
    // nth_element partition pass, and trimming one min and one max
    // occurrence yields the same kept multiset sum as the sorted trim.
    double mn = values[0];
    double mx = values[0];
    for (std::size_t i = 1; i < n; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    if (std::isfinite(mn) && std::isfinite(mx)) {
      CompensatedSum total = compensated_sum(values.data(), values.data() + n);
      neumaier_step(total.sum, total.comp, -mn);
      neumaier_step(total.sum, total.comp, -mx);
      return total.collapse() / static_cast<double>(n - 2);
    }
    // Infinite extremes would turn the subtraction into inf - inf; fall
    // through to the partition path, which trims them positionally.
  }
  if (f > 0) {
    std::nth_element(values.begin(), values.begin() + lo, values.end());
    std::nth_element(values.begin() + lo, values.begin() + hi - 1, values.end());
  }
  const double sum = compensated_sum(values.data() + lo, values.data() + hi).collapse();
  return sum / static_cast<double>(hi - lo);
}

std::optional<double> median(std::span<double> values) {
  if (values.empty()) return std::nullopt;
  const std::size_t n = values.size();
  const auto mid = values.begin() + n / 2;
  std::nth_element(values.begin(), mid, values.end());
  if (n % 2 == 1) return *mid;
  // Even size: the lower central element is the max of the left partition.
  const double below = *std::max_element(values.begin(), mid);
  return (below + *mid) / 2.0;
}

std::optional<double> mean(std::span<const double> values) {
  if (values.empty()) return std::nullopt;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<double> aggregate(std::span<double> values, AggregationMethod method, int f) {
  switch (method) {
    case AggregationMethod::kFta: return fault_tolerant_average(values, f);
    case AggregationMethod::kMedian: return median(values);
    case AggregationMethod::kMean: return mean(values);
  }
  return std::nullopt;
}

double fta_precision_multiplier(int n, int f) {
  if (n <= 3 * f) throw std::invalid_argument("fta bound requires N > 3f");
  return static_cast<double>(n - 2 * f) / static_cast<double>(n - 3 * f);
}

} // namespace tsn::core
