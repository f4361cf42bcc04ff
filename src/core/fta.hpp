// Fault-tolerant average and related aggregation functions.
//
// The FTA (Kopetz & Ochsenreiter 1987, used by the paper for multi-domain
// aggregation) discards the f smallest and f largest clock readings and
// averages the remainder. With N >= 3f+1 readings it masks up to f
// arbitrary (Byzantine) faults; the paper instantiates N = 4, f = 1.
// Only partial selection (std::nth_element) is needed for the trim, so
// aggregation is O(N) rather than O(N log N).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

namespace tsn::core {

enum class AggregationMethod {
  kFta,    ///< drop f min + f max, average the rest (the paper's choice)
  kMedian, ///< middle element (ablation)
  kMean,   ///< plain average, no fault tolerance (ablation/baseline)
};

/// Fault-tolerant average of `values` tolerating `f` faults. Returns
/// nullopt when fewer than 2f+1 values are present (the trimmed set would
/// be empty or meaningless). Reorders `values`.
std::optional<double> fault_tolerant_average(std::span<double> values, int f);

/// Exact median (average of the two central elements for even sizes).
/// Reorders `values`.
std::optional<double> median(std::span<double> values);

/// Plain mean.
std::optional<double> mean(std::span<const double> values);

/// Dispatch on the configured method ("f" only used by kFta). Reorders
/// `values`.
std::optional<double> aggregate(std::span<double> values, AggregationMethod method, int f);

/// Precision bound multiplier u(N, f) = (N - 2f) / (N - 3f) from Kopetz &
/// Ochsenreiter; the paper uses u(4, 1) = 2 in Pi = u * (E + Gamma).
double fta_precision_multiplier(int n, int f);

} // namespace tsn::core
