#include "serve/serve_config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "catalog/length_model.hpp"

namespace pushpull::serve {

void ServeConfig::validate() const {
  if (num_items == 0) {
    throw std::invalid_argument("ServeConfig: num_items must be >= 1");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("ServeConfig: num_classes must be >= 1");
  }
  if (min_length == 0) {
    throw std::invalid_argument(
        "ServeConfig: min_length must be >= 1 (zero-length items never "
        "finish transmitting)");
  }
  if (max_length < min_length) {
    throw std::invalid_argument(
        "ServeConfig: max_length (" + std::to_string(max_length) +
        ") must be >= min_length (" + std::to_string(min_length) + ")");
  }
  if (!(theta >= 0.0) || !std::isfinite(theta)) {
    throw std::invalid_argument(
        "ServeConfig: theta must be a non-negative finite number");
  }
  if (cutoff > num_items) {
    throw std::invalid_argument(
        "ServeConfig: cutoff (" + std::to_string(cutoff) +
        ") beyond catalog size (" + std::to_string(num_items) + ")");
  }
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    throw std::invalid_argument(
        "ServeConfig: duration must be a positive finite number, got " +
        std::to_string(duration));
  }
  if (!(target_qps > 0.0) || !std::isfinite(target_qps)) {
    throw std::invalid_argument(
        "ServeConfig: target_qps must be a positive finite number, got " +
        std::to_string(target_qps));
  }
  if (!(time_scale > 0.0) || !std::isfinite(time_scale)) {
    throw std::invalid_argument(
        "ServeConfig: time_scale must be a positive finite number, got " +
        std::to_string(time_scale));
  }
  if (pacers == 0) {
    throw std::invalid_argument("ServeConfig: pacers must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServeConfig: queue_capacity must be >= 1");
  }
  if (!std::isfinite(mean_deadline)) {
    throw std::invalid_argument("ServeConfig: mean_deadline must be finite");
  }
  if (!deadline_scale.empty() && deadline_scale.size() != num_classes) {
    throw std::invalid_argument(
        "ServeConfig: deadline_scale must be empty or carry one factor per "
        "class (" + std::to_string(deadline_scale.size()) + " given, " +
        std::to_string(num_classes) + " classes)");
  }
  for (const double s : deadline_scale) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "ServeConfig: deadline_scale factors must be positive finite "
          "numbers, got " + std::to_string(s));
    }
  }
  if (!(deadline_spike_factor > 0.0) || !std::isfinite(deadline_spike_factor)) {
    throw std::invalid_argument(
        "ServeConfig: deadline_spike_factor must be a positive finite "
        "number");
  }
  if (deadline_spike_start < 0.0 || !std::isfinite(deadline_spike_start) ||
      deadline_spike_duration < 0.0 ||
      !std::isfinite(deadline_spike_duration)) {
    throw std::invalid_argument(
        "ServeConfig: deadline spike start/duration must be non-negative "
        "finite numbers");
  }
  fault.validate();
  overload.validate();
  if (hedge_after < 0.0 || !std::isfinite(hedge_after)) {
    throw std::invalid_argument(
        "ServeConfig: hedge_after must be a non-negative finite number");
  }
  if (drain_after < 0.0 || !std::isfinite(drain_after)) {
    throw std::invalid_argument(
        "ServeConfig: drain_after must be a non-negative finite number");
  }
}

bool ServeConfig::robust() const noexcept {
  return mean_deadline > 0.0 || !deadline_scale.empty() ||
         deadline_spike_enabled() || fault.active() || overload.enabled ||
         hedge_after > 0.0 || drain_after > 0.0;
}

core::HybridConfig ServeConfig::hybrid() const {
  core::HybridConfig config;
  config.cutoff = cutoff;
  config.alpha = alpha;
  config.pull_policy = pull_policy;
  config.push_policy = push_policy;
  config.mean_bandwidth_demand = mean_bandwidth_demand;
  config.mean_patience = mean_deadline > 0.0 ? mean_deadline : 0.0;
  config.patience_scale = deadline_scale;
  config.patience_spike_factor = deadline_spike_factor;
  config.patience_spike_start = deadline_spike_start;
  config.patience_spike_duration = deadline_spike_duration;
  config.hedge_after = hedge_after;
  config.fault = fault;
  config.resilience.overload = overload;
  config.seed = seed;
  return config;
}

catalog::Catalog ServeConfig::build_catalog() const {
  const catalog::LengthModel lengths(min_length, max_length, mean_length);
  return catalog::Catalog(num_items, theta, lengths, seed);
}

workload::ClientPopulation ServeConfig::build_population() const {
  return workload::ClientPopulation::zipf_classes(num_classes,
                                                  class_zipf_theta);
}

}  // namespace pushpull::serve
