#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/trace.hpp"

namespace pushpull::core {

/// One evaluated cutoff point.
struct CutoffSample {
  std::size_t cutoff = 0;
  double cost = 0.0;
};

/// Result of a cutoff scan: the whole curve plus its minimizer.
struct CutoffScan {
  std::vector<CutoffSample> curve;
  std::size_t best_cutoff = 0;
  double best_cost = 0.0;
};

/// Evaluates `cost` over cutoffs {k_min, k_min+step, ..., <= k_max} and
/// returns the curve and its minimizer (first minimum on ties).
///
/// This is the paper's periodic re-optimization step ("the algorithm is
/// executed for different cutoff-points and obtains the optimal cutoff-point
/// which minimizes the overall access time"): the cost functional is
/// pluggable — mean access time, total prioritized cost, or the analytical
/// Eq. 19 estimate — so the same scan drives Figs. 5–7.
///
/// Each evaluated point emits a cutoff-category "sample" trace event (a=k,
/// v=cost) and the minimizer a final "best" event; the default tracer is
/// inert. Tracing never changes the scan. Sim time is 0: the optimizer runs
/// between simulations, outside any virtual clock.
[[nodiscard]] CutoffScan scan_cutoffs(
    std::size_t k_min, std::size_t k_max, std::size_t step,
    const std::function<double(std::size_t)>& cost,
    const obs::Tracer& tracer = {});

}  // namespace pushpull::core
