#include "workload/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pushpull::workload {

Trace::Trace(std::vector<Request> requests) {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival < requests[i - 1].arrival) {
      throw std::invalid_argument("Trace: arrivals must be non-decreasing");
    }
  }
  requests_ = std::make_shared<std::vector<Request>>(std::move(requests));
}

std::vector<Request> Trace::release() && {
  const std::shared_ptr<std::vector<Request>> held = std::move(requests_);
  if (!held) return {};
  // The sole holder moves the buffer out; a shared buffer stays with its
  // other holders, which still read it.
  if (held.use_count() == 1) return std::move(*held);
  return *held;
}

des::SimTime Trace::span() const noexcept {
  return empty() ? 0.0 : requests_->back().arrival;
}

void Trace::save_csv(std::ostream& out) const {
  out << "id,arrival,item,class\n";
  for (const Request& r : requests()) {
    out << r.id << ',' << r.arrival << ',' << r.item << ',' << r.cls << '\n';
  }
}

Trace Trace::load_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("Trace: missing CSV header");
  }
  if (line != "id,arrival,item,class") {
    throw std::invalid_argument("Trace: unexpected CSV header: " + line);
  }
  std::vector<Request> reqs;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Request req;
    char c1 = 0, c2 = 0, c3 = 0;
    if (!(fields >> req.id >> c1 >> req.arrival >> c2 >> req.item >> c3 >>
          req.cls) ||
        c1 != ',' || c2 != ',' || c3 != ',') {
      throw std::invalid_argument("Trace: malformed CSV row: " + line);
    }
    reqs.push_back(req);
  }
  return Trace(std::move(reqs));
}

}  // namespace pushpull::workload
