#include "sched/pull/policy.hpp"

#include <stdexcept>
#include <string>

#include "sched/pull/policies.hpp"

namespace pushpull::sched {

std::string_view to_string(PullPolicyKind kind) noexcept {
  switch (kind) {
    case PullPolicyKind::kFcfs:
      return "fcfs";
    case PullPolicyKind::kMrf:
      return "mrf";
    case PullPolicyKind::kStretch:
      return "stretch";
    case PullPolicyKind::kPriority:
      return "priority";
    case PullPolicyKind::kRxw:
      return "rxw";
    case PullPolicyKind::kLwf:
      return "lwf";
    case PullPolicyKind::kImportance:
      return "importance";
    case PullPolicyKind::kImportanceQueueAware:
      return "importance-q";
  }
  return "unknown";
}

PullPolicyKind parse_pull_policy(std::string_view name) {
  for (const auto kind :
       {PullPolicyKind::kFcfs, PullPolicyKind::kMrf, PullPolicyKind::kStretch,
        PullPolicyKind::kPriority, PullPolicyKind::kRxw, PullPolicyKind::kLwf,
        PullPolicyKind::kImportance, PullPolicyKind::kImportanceQueueAware}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown pull policy: " + std::string(name));
}

std::unique_ptr<PullPolicy> make_pull_policy(PullPolicyKind kind,
                                             double alpha) {
  switch (kind) {
    case PullPolicyKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case PullPolicyKind::kMrf:
      return std::make_unique<MrfPolicy>();
    case PullPolicyKind::kStretch:
      return std::make_unique<StretchPolicy>();
    case PullPolicyKind::kPriority:
      return std::make_unique<PriorityPolicy>();
    case PullPolicyKind::kRxw:
      return std::make_unique<RxwPolicy>();
    case PullPolicyKind::kLwf:
      return std::make_unique<LwfPolicy>();
    case PullPolicyKind::kImportance:
      return std::make_unique<ImportancePolicy>(alpha);
    case PullPolicyKind::kImportanceQueueAware:
      return std::make_unique<ImportanceQueueAwarePolicy>(alpha);
  }
  throw std::invalid_argument("make_pull_policy: unknown kind");
}

}  // namespace pushpull::sched
