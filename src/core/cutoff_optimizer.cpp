#include "core/cutoff_optimizer.hpp"

#include <stdexcept>

namespace pushpull::core {

CutoffScan scan_cutoffs(std::size_t k_min, std::size_t k_max, std::size_t step,
                        const std::function<double(std::size_t)>& cost,
                        const obs::Tracer& tracer) {
  if (k_min > k_max) {
    throw std::invalid_argument("scan_cutoffs: k_min > k_max");
  }
  if (step == 0) throw std::invalid_argument("scan_cutoffs: step must be > 0");

  CutoffScan scan;
  for (std::size_t k = k_min;; k += step) {
    scan.curve.push_back(CutoffSample{k, cost(k)});
    if (k_max - k < step) break;  // next step would overshoot
  }
  // Always include the right endpoint so the scan covers [k_min, k_max].
  if (scan.curve.back().cutoff != k_max) {
    scan.curve.push_back(CutoffSample{k_max, cost(k_max)});
  }

  scan.best_cutoff = scan.curve.front().cutoff;
  scan.best_cost = scan.curve.front().cost;
  for (const auto& sample : scan.curve) {
    tracer.emit<obs::Category::kCutoff>(0.0, "sample", sample.cutoff, 0,
                                        sample.cost);
    if (sample.cost < scan.best_cost) {
      scan.best_cost = sample.cost;
      scan.best_cutoff = sample.cutoff;
    }
  }
  tracer.emit<obs::Category::kCutoff>(0.0, "best", scan.best_cutoff, 0,
                                      scan.best_cost);
  return scan;
}

}  // namespace pushpull::core
