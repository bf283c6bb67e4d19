#include "serve/record.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "obs/export.hpp"

namespace pushpull::serve {

namespace {

using obs::render_number;

/// Position just past `"key":` in `line`, or npos when absent.
[[nodiscard]] std::size_t value_pos(std::string_view line,
                                    std::string_view key) {
  for (std::size_t at = line.find(key, 1); at != std::string_view::npos;
       at = line.find(key, at + 1)) {
    const std::size_t end = at + key.size();
    if (line[at - 1] == '"' && line.substr(end, 2) == "\":") return end + 2;
  }
  return std::string_view::npos;
}

[[nodiscard]] bool has_key(std::string_view line, std::string_view key) {
  return value_pos(line, key) != std::string_view::npos;
}

[[nodiscard]] double number_field(std::string_view line,
                                  std::string_view key, std::size_t lineno) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": missing field \"" + std::string(key) + "\"");
  }
  std::size_t end = at;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(line.data() + at, line.data() + end, value);
  if (ec != std::errc{} || ptr != line.data() + end) {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": malformed number in field \"" +
                             std::string(key) + "\"");
  }
  return value;
}

[[nodiscard]] std::uint64_t count_field(std::string_view line,
                                        std::string_view key,
                                        std::size_t lineno) {
  const double value = number_field(line, key, lineno);
  // The range test comes first: converting a double outside [0, 2^64) to
  // an integer is undefined.
  if (!(value >= 0.0 && value < 0x1p64) ||
      value != static_cast<double>(static_cast<std::uint64_t>(value))) {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": field \"" + std::string(key) +
                             "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

[[nodiscard]] std::string string_field(std::string_view line,
                                       std::string_view key,
                                       std::size_t lineno) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"') {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": missing string field \"" + std::string(key) +
                             "\"");
  }
  const std::size_t close = line.find('"', at + 1);
  if (close == std::string_view::npos) {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": unterminated string field \"" +
                             std::string(key) + "\"");
  }
  return std::string(line.substr(at + 1, close - at - 1));
}

/// "0.5,1,2" → {0.5, 1.0, 2.0}; "" → {}. Throws on garble.
[[nodiscard]] std::vector<double> csv_doubles(const std::string& csv,
                                              std::string_view key) {
  std::vector<double> out;
  if (csv.empty()) return out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(csv.data() + pos, csv.data() + comma, value);
    if (ec != std::errc{} || ptr != csv.data() + comma) {
      throw std::runtime_error("serve trace: malformed number in \"" +
                               std::string(key) + "\" list");
    }
    out.push_back(value);
    if (comma == csv.size()) break;
    pos = comma + 1;
  }
  return out;
}

[[nodiscard]] std::string render_csv(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += render_number(values[i]);
  }
  return out;
}

[[nodiscard]] ServeConfig parse_header(std::string_view line) {
  const std::string schema = string_field(line, "schema", 1);
  if (schema != kServeJournalSchema) {
    throw std::runtime_error("serve trace: expected schema \"" +
                             std::string(kServeJournalSchema) + "\", got \"" +
                             schema + "\"");
  }
  ServeConfig c;
  c.seed = count_field(line, "seed", 1);
  c.accelerated = count_field(line, "accelerated", 1) != 0;
  c.duration = number_field(line, "duration", 1);
  c.target_qps = number_field(line, "target_qps", 1);
  c.num_items = static_cast<std::size_t>(count_field(line, "items", 1));
  c.theta = number_field(line, "theta", 1);
  c.num_classes = static_cast<std::size_t>(count_field(line, "classes", 1));
  c.class_zipf_theta = number_field(line, "class_zipf_theta", 1);
  c.min_length =
      static_cast<std::uint32_t>(count_field(line, "min_length", 1));
  c.max_length =
      static_cast<std::uint32_t>(count_field(line, "max_length", 1));
  c.mean_length = number_field(line, "mean_length", 1);
  c.cutoff = static_cast<std::size_t>(count_field(line, "cutoff", 1));
  c.alpha = number_field(line, "alpha", 1);
  c.pull_policy =
      sched::parse_pull_policy(string_field(line, "pull_policy", 1));
  c.push_policy =
      sched::parse_push_policy(string_field(line, "push_policy", 1));
  c.mean_bandwidth_demand = number_field(line, "mean_demand", 1);
  // The header always carries the live failure model, defaults included,
  // so resume/replay rebuild the exact configuration.
  c.mean_deadline = number_field(line, "mean_deadline", 1);
  c.deadline_scale =
      csv_doubles(string_field(line, "deadline_scale", 1), "deadline_scale");
  c.deadline_spike_factor = number_field(line, "spike_factor", 1);
  c.deadline_spike_start = number_field(line, "spike_start", 1);
  c.deadline_spike_duration = number_field(line, "spike_duration", 1);
  c.fault.enabled = count_field(line, "fault_enabled", 1) != 0;
  c.fault.channel.p_good_to_bad = number_field(line, "fault_p_gb", 1);
  c.fault.channel.p_bad_to_good = number_field(line, "fault_p_bg", 1);
  c.fault.channel.corrupt_good = number_field(line, "fault_corrupt_good", 1);
  c.fault.channel.corrupt_bad = number_field(line, "fault_corrupt_bad", 1);
  c.fault.retry.max_retries =
      static_cast<std::uint32_t>(count_field(line, "retry_max", 1));
  c.fault.retry.backoff_base = number_field(line, "retry_base", 1);
  c.fault.retry.backoff_multiplier = number_field(line, "retry_mult", 1);
  c.fault.retry.max_backoff = number_field(line, "retry_cap", 1);
  c.fault.queue_capacity =
      static_cast<std::size_t>(count_field(line, "fault_queue_cap", 1));
  c.fault.shed_policy =
      fault::parse_shed_policy(string_field(line, "shed_policy", 1));
  c.overload.enabled = count_field(line, "ladder_enabled", 1) != 0;
  c.overload.eval_interval = number_field(line, "ladder_interval", 1);
  c.overload.ewma_alpha = number_field(line, "ladder_alpha", 1);
  c.overload.blocking_ref = number_field(line, "ladder_blocking_ref", 1);
  c.overload.capacity_ref =
      static_cast<std::size_t>(count_field(line, "ladder_capacity", 1));
  c.overload.cutoff_step =
      static_cast<std::size_t>(count_field(line, "ladder_step", 1));
  const std::vector<double> enter =
      csv_doubles(string_field(line, "ladder_enter", 1), "ladder_enter");
  const std::vector<double> exit =
      csv_doubles(string_field(line, "ladder_exit", 1), "ladder_exit");
  if (enter.size() != c.overload.enter.size() ||
      exit.size() != c.overload.exit.size()) {
    throw std::runtime_error(
        "serve trace: ladder_enter/ladder_exit must carry one threshold "
        "per ladder rung");
  }
  std::copy(enter.begin(), enter.end(), c.overload.enter.begin());
  std::copy(exit.begin(), exit.end(), c.overload.exit.begin());
  c.hedge_after = number_field(line, "hedge_after", 1);
  c.drain_after = number_field(line, "drain_after", 1);
  c.journal_sync_every =
      static_cast<std::size_t>(count_field(line, "sync_every", 1));
  c.validate();
  return c;
}

/// The header's configuration. Values that ServeConfig or the policy
/// parsers reject are malformed input like any other, so their
/// std::invalid_argument surfaces as std::runtime_error.
[[nodiscard]] ServeConfig config_from_header(std::string_view line) {
  try {
    return parse_header(line);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("serve trace header: ") + e.what());
  }
}

[[nodiscard]] std::string render_header(const ServeConfig& config) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kServeJournalSchema << "\""
      << ",\"seed\":" << config.seed
      << ",\"accelerated\":" << (config.accelerated ? 1 : 0)
      << ",\"duration\":" << render_number(config.duration)
      << ",\"target_qps\":" << render_number(config.target_qps)
      << ",\"items\":" << config.num_items
      << ",\"theta\":" << render_number(config.theta)
      << ",\"classes\":" << config.num_classes
      << ",\"class_zipf_theta\":" << render_number(config.class_zipf_theta)
      << ",\"min_length\":" << config.min_length
      << ",\"max_length\":" << config.max_length
      << ",\"mean_length\":" << render_number(config.mean_length)
      << ",\"cutoff\":" << config.cutoff
      << ",\"alpha\":" << render_number(config.alpha)
      << ",\"pull_policy\":\"" << sched::to_string(config.pull_policy)
      << "\",\"push_policy\":\"" << sched::to_string(config.push_policy)
      << "\",\"mean_demand\":" << render_number(config.mean_bandwidth_demand)
      << ",\"mean_deadline\":" << render_number(config.mean_deadline)
      << ",\"deadline_scale\":\"" << render_csv(config.deadline_scale)
      << "\",\"spike_factor\":" << render_number(config.deadline_spike_factor)
      << ",\"spike_start\":" << render_number(config.deadline_spike_start)
      << ",\"spike_duration\":"
      << render_number(config.deadline_spike_duration)
      << ",\"fault_enabled\":" << (config.fault.enabled ? 1 : 0)
      << ",\"fault_p_gb\":" << render_number(config.fault.channel.p_good_to_bad)
      << ",\"fault_p_bg\":" << render_number(config.fault.channel.p_bad_to_good)
      << ",\"fault_corrupt_good\":"
      << render_number(config.fault.channel.corrupt_good)
      << ",\"fault_corrupt_bad\":"
      << render_number(config.fault.channel.corrupt_bad)
      << ",\"retry_max\":" << config.fault.retry.max_retries
      << ",\"retry_base\":" << render_number(config.fault.retry.backoff_base)
      << ",\"retry_mult\":"
      << render_number(config.fault.retry.backoff_multiplier)
      << ",\"retry_cap\":" << render_number(config.fault.retry.max_backoff)
      << ",\"fault_queue_cap\":" << config.fault.queue_capacity
      << ",\"shed_policy\":\"" << fault::to_string(config.fault.shed_policy)
      << "\",\"ladder_enabled\":" << (config.overload.enabled ? 1 : 0)
      << ",\"ladder_interval\":" << render_number(config.overload.eval_interval)
      << ",\"ladder_alpha\":" << render_number(config.overload.ewma_alpha)
      << ",\"ladder_blocking_ref\":"
      << render_number(config.overload.blocking_ref)
      << ",\"ladder_capacity\":" << config.overload.capacity_ref
      << ",\"ladder_step\":" << config.overload.cutoff_step
      << ",\"ladder_enter\":\""
      << render_csv({config.overload.enter.begin(),
                     config.overload.enter.end()})
      << "\",\"ladder_exit\":\""
      << render_csv({config.overload.exit.begin(), config.overload.exit.end()})
      << "\",\"hedge_after\":" << render_number(config.hedge_after)
      << ",\"drain_after\":" << render_number(config.drain_after)
      << ",\"sync_every\":" << config.journal_sync_every << "}";
  return out.str();
}

[[nodiscard]] std::string render_footer(std::uint64_t requests,
                                        std::uint64_t decisions,
                                        const ConservationLedger& ledger) {
  std::string out = "{\"requests\":" + std::to_string(requests) +
                    ",\"decisions\":" + std::to_string(decisions) +
                    ",\"ledger\":" + ledger.render_json() + "}";
  return out;
}

[[nodiscard]] ConservationLedger ledger_from_footer(std::string_view line,
                                                    std::size_t lineno) {
  ConservationLedger ledger;
  ledger.injected = count_field(line, "injected", lineno);
  ledger.delivered = count_field(line, "delivered", lineno);
  ledger.timed_out = count_field(line, "timed_out", lineno);
  ledger.rejected = count_field(line, "rejected", lineno);
  ledger.shed = count_field(line, "shed", lineno);
  ledger.lost = count_field(line, "lost", lineno);
  ledger.in_flight_at_drain = count_field(line, "in_flight_at_drain", lineno);
  return ledger;
}

enum class PayloadKind { kRequest, kDecision, kFooter };

/// Parses one body payload into `run`, throwing std::runtime_error on any
/// malformed content. `lineno` is 1-based (header = 1).
PayloadKind apply_payload(RecordedRun& run, std::uint64_t& decisions,
                          std::string_view line, std::size_t lineno) {
  if (line.empty()) {
    throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                             ": empty record");
  }
  if (has_key(line, "d")) {
    // Decision records are informational; count them for the footer check.
    (void)number_field(line, "t", lineno);
    ++decisions;
    return PayloadKind::kDecision;
  }
  if (has_key(line, "id")) {
    workload::Request r;
    r.arrival = number_field(line, "t", lineno);
    r.id = count_field(line, "id", lineno);
    const std::uint64_t item = count_field(line, "item", lineno);
    const std::uint64_t cls = count_field(line, "cls", lineno);
    if (item >= run.config.num_items) {
      throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                               ": item beyond the recorded catalog");
    }
    if (cls >= run.config.num_classes) {
      throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                               ": class beyond the recorded population");
    }
    r.item = static_cast<catalog::ItemId>(item);
    r.cls = static_cast<workload::ClassId>(cls);
    run.requests.push_back(r);
    return PayloadKind::kRequest;
  }
  if (has_key(line, "requests")) {
    const std::uint64_t requests = count_field(line, "requests", lineno);
    const std::uint64_t footer_decisions =
        count_field(line, "decisions", lineno);
    if (requests != run.requests.size() || footer_decisions != decisions) {
      throw std::runtime_error(
          "serve trace: footer counts (" + std::to_string(requests) + "/" +
          std::to_string(footer_decisions) + ") disagree with records read (" +
          std::to_string(run.requests.size()) + "/" +
          std::to_string(decisions) + ") — truncated or spliced file");
    }
    run.ledger = ledger_from_footer(line, lineno);
    return PayloadKind::kFooter;
  }
  throw std::runtime_error("serve trace line " + std::to_string(lineno) +
                           ": unrecognized record");
}

void sort_requests(RecordedRun& run) {
  // Realtime pacers may interleave posts; Trace requires sorted arrivals.
  // Accelerated recordings are already in order and skip the sort.
  const auto by_arrival = [](const workload::Request& a,
                             const workload::Request& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
  };
  if (!std::is_sorted(run.requests.begin(), run.requests.end(), by_arrival)) {
    std::sort(run.requests.begin(), run.requests.end(), by_arrival);
  }
}

}  // namespace

TraceRecorder::TraceRecorder(std::ostream& out, const ServeConfig& config)
    : out_(&out) {
  begin_frame();
  frame_ += render_header(config);
  end_frame();
}

TraceRecorder::TraceRecorder(JournalFile& file, const ServeConfig& config)
    : out_(&file.stream()),
      file_(&file),
      sync_every_(config.journal_sync_every) {
  begin_frame();
  frame_ += render_header(config);
  end_frame();
}

void TraceRecorder::begin_frame() {
  frame_.assign(kFrameDigits + 1, ' ');  // the prefix, filled in at the end
}

void TraceRecorder::put(std::string_view text) { frame_ += text; }

template <typename Number>
void TraceRecorder::put_number(Number value) {
  // std::to_chars with no format is obs::render_number's shortest
  // round-trip form for doubles, and plain decimal for integers.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) {
    throw std::logic_error("TraceRecorder: to_chars failed");
  }
  frame_.append(buf, end);
}

void TraceRecorder::end_frame() {
  close_frame(frame_);
  out_->write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  if (file_ != nullptr && sync_every_ > 0 && ++since_sync_ >= sync_every_) {
    since_sync_ = 0;
    file_->sync();
  }
}

void TraceRecorder::record_request(const workload::Request& request,
                                   double observed_time) {
  begin_frame();
  put("{\"t\":");
  put_number(observed_time);
  put(",\"id\":");
  put_number(request.id);
  put(",\"item\":");
  put_number(request.item);
  put(",\"cls\":");
  put_number(request.cls);
  put("}");
  end_frame();
  ++requests_;
}

void TraceRecorder::record_decision(bool push, double time,
                                    catalog::ItemId item,
                                    std::size_t delivered) {
  begin_frame();
  put(push ? "{\"d\":\"push\",\"t\":" : "{\"d\":\"pull\",\"t\":");
  put_number(time);
  put(",\"item\":");
  put_number(item);
  put(",\"n\":");
  put_number(delivered);
  put("}");
  end_frame();
  ++decisions_;
}

void TraceRecorder::record_ladder(double time, int from, int to) {
  begin_frame();
  put("{\"d\":\"ladder\",\"t\":");
  put_number(time);
  put(",\"from\":");
  put_number(from);
  put(",\"to\":");
  put_number(to);
  put("}");
  end_frame();
  ++decisions_;
}

void TraceRecorder::record_drain(double time, std::uint64_t skipped) {
  begin_frame();
  put("{\"d\":\"drain\",\"t\":");
  put_number(time);
  put(",\"n\":");
  put_number(skipped);
  put("}");
  end_frame();
  ++decisions_;
}

void TraceRecorder::seal(const ConservationLedger& ledger) {
  if (finished_) return;
  finished_ = true;
  begin_frame();
  frame_ += render_footer(requests_, decisions_, ledger);
  end_frame();
  out_->flush();
  if (file_ != nullptr) file_->sync();
}

void TraceRecorder::finish() { seal(ConservationLedger{}); }

TraceRecorder::~TraceRecorder() { finish(); }

namespace {

/// The fewest bytes of one request frame the decoder accepts: 8 hex digits,
/// a space, `"t":0,"id":0,"item":0,"cls":0` and a newline. The recorder's
/// smallest frame also has the braces (41 bytes); the decoder finds fields
/// by key and does not require them.
constexpr std::size_t kMinRequestFrameBytes = 39;

/// load_trace, with the request buffer reserved for `max_requests` before
/// decoding (0: grown as requests arrive).
RecordedRun decode_trace(std::istream& in, std::size_t max_requests) {
  const int first = in.peek();
  if (first == std::istream::traits_type::eof()) {
    throw std::runtime_error("serve trace: empty input (no header record)");
  }
  if (first == '{') {
    throw std::runtime_error(
        "serve trace: sv1 JSONL traces are no longer read; record the run "
        "again as an sv2 journal");
  }
  JournalReader reader(in);
  const std::optional<std::string_view> header = reader.next();
  if (!header) {
    throw std::runtime_error(
        "serve trace: no complete journal record (garbled or truncated "
        "framing)");
  }
  // A framing error anywhere in the file takes precedence over a payload
  // error, so the first payload error is held while the reader walks the
  // rest of the framing.
  std::exception_ptr payload_error;
  RecordedRun run;
  run.requests.reserve(max_requests);
  try {
    run.config = config_from_header(*header);
  } catch (const std::runtime_error&) {
    payload_error = std::current_exception();
  }
  bool saw_footer = false;
  std::uint64_t decisions = 0;
  for (std::size_t record = 2; const auto payload = reader.next(); ++record) {
    if (payload_error) continue;
    try {
      if (saw_footer) {
        throw std::runtime_error("serve trace record " +
                                 std::to_string(record) +
                                 ": content after the footer");
      }
      if (apply_payload(run, decisions, *payload, record) ==
          PayloadKind::kFooter) {
        saw_footer = true;
      }
    } catch (const std::runtime_error&) {
      payload_error = std::current_exception();
    }
  }
  if (reader.truncated()) {
    throw std::runtime_error(
        "serve trace: garbled or truncated journal framing — use recovery "
        "(serve --resume) to salvage the valid prefix");
  }
  if (payload_error) std::rethrow_exception(payload_error);
  if (!saw_footer) {
    throw std::runtime_error(
        "serve trace: missing footer record — unsealed journal (crashed "
        "run?); use recovery (serve --resume) to salvage the valid prefix");
  }
  sort_requests(run);
  run.decisions = decisions;
  return run;
}

}  // namespace

RecordedRun load_trace(std::istream& in) { return decode_trace(in, 0); }

RecordedRun load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("serve trace: cannot open \"" + path + "\"");
  }
  // Every decoded request has its own frame of at least
  // kMinRequestFrameBytes, so the file's length bounds the request count
  // whatever its length prefixes and footer claim. The buffer is reserved
  // for that bound once: the decode never regrows it, and the address
  // space past the decoded requests is never touched, so it never becomes
  // resident. A length that cannot be read (a pipe) reserves nothing.
  std::error_code error;
  const std::uintmax_t bytes = std::filesystem::file_size(path, error);
  return decode_trace(in, error ? 0 : bytes / kMinRequestFrameBytes);
}

RecoveredRun recover_trace(std::istream& in) {
  JournalReader reader(in);
  const std::optional<std::string_view> header = reader.next();
  if (!header) {
    throw std::runtime_error(
        "serve recovery: no complete record — the header itself is "
        "truncated, nothing to recover");
  }
  RecoveredRun recovered;
  recovered.run.config = config_from_header(*header);
  recovered.records = 1;
  recovered.bytes_consumed = reader.bytes_consumed();
  std::uint64_t decisions = 0;
  while (const auto payload = reader.next()) {
    const std::size_t before_requests = recovered.run.requests.size();
    const std::uint64_t before_decisions = decisions;
    PayloadKind kind;
    try {
      kind = apply_payload(recovered.run, decisions, *payload,
                           recovered.records + 1);
    } catch (const std::runtime_error&) {
      // An intact frame with an unparsable payload ends the valid prefix —
      // everything before it is still good.
      recovered.run.requests.resize(before_requests);
      decisions = before_decisions;
      break;
    }
    recovered.records += 1;
    recovered.bytes_consumed = reader.bytes_consumed();
    if (kind == PayloadKind::kFooter) {
      recovered.sealed = true;
      break;
    }
  }
  sort_requests(recovered.run);
  recovered.run.decisions = decisions;
  return recovered;
}

RecoveredRun recover_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("serve recovery: cannot open \"" + path + "\"");
  }
  return recover_trace(in);
}

}  // namespace pushpull::serve
