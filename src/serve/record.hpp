#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/journal.hpp"
#include "serve/serve_config.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace pushpull::serve {

/// Schema tag of the serve trace format, the only one written or read.
///
/// `sv2`: length-prefixed framed records (see journal.hpp) forming a
/// crash-consistent write-ahead journal:
///   1. a header record carrying the full ServeConfig including the live
///      failure model (deadlines, fault channel, retry policy, ladder,
///      hedge/drain knobs) — everything replay and resume need;
///   2. one `{"t":..,"id":..,"item":..,"cls":..}` record per request, `t`
///      being the *observed* arrival stamp;
///   3. interleaved decision records: `{"d":"push"|"pull",..}`
///      transmissions, `{"d":"ladder","t":..,"from":..,"to":..}` overload
///      ladder transitions, and `{"d":"drain","t":..,"n":skipped}` drain
///      engagement;
///   4. a sealing `{"requests":N,"decisions":M,...ledger}` footer carrying
///      the conservation ledger.
/// All numbers are rendered with obs::render_number, so recording the same
/// accelerated run twice produces byte-identical files. The plain-JSONL
/// `sv1` format of older builds is no longer read: load_trace rejects a
/// file that starts with `{`.
inline constexpr std::string_view kServeJournalSchema = "sv2";

/// Writes an sv2 journal. Single-writer by design: only the server thread
/// records (arrivals at dispatch, decisions at transmission start), so
/// records never interleave. Each record is rendered into one frame buffer
/// the recorder reuses and reaches the sink in one write, so recording
/// allocates nothing once the buffer has grown to the header's size. When
/// constructed over a JournalFile the recorder fsyncs every
/// `config.journal_sync_every` records (0 = only at seal); over a plain
/// ostream it just writes (tests record into strings).
class TraceRecorder {
 public:
  /// Writes the header record immediately.
  TraceRecorder(std::ostream& out, const ServeConfig& config);
  /// Same, with fsync batching against the file.
  TraceRecorder(JournalFile& file, const ServeConfig& config);

  void record_request(const workload::Request& request, double observed_time);
  void record_decision(bool push, double time, catalog::ItemId item,
                       std::size_t delivered);
  /// Stamps an overload-ladder transition into the decision log.
  void record_ladder(double time, int from, int to);
  /// Stamps drain engagement (admission stopped; `skipped` planned
  /// arrivals were never injected).
  void record_drain(double time, std::uint64_t skipped);

  /// Seals the journal: writes the footer with the conservation ledger and
  /// syncs. Idempotent.
  void seal(const ConservationLedger& ledger);

  /// Seals with a zero ledger (legacy path / destructor safety net).
  void finish();

  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  /// A frame is built in frame_: begin_frame() places the prefix
  /// placeholder, put()/put_number() append the payload, end_frame() fills
  /// in the length (close_frame), writes the frame and syncs when due.
  void begin_frame();
  void put(std::string_view text);
  template <typename Number>
  void put_number(Number value);
  void end_frame();

  std::string frame_;
  std::ostream* out_;
  JournalFile* file_ = nullptr;
  std::size_t sync_every_ = 0;
  std::size_t since_sync_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t decisions_ = 0;
  bool finished_ = false;
};

/// A parsed serve trace: the run's configuration plus its request log,
/// sorted by (arrival, id) — realtime pacer threads can interleave posts,
/// and replay() and trace() require sorted arrivals.
struct RecordedRun {
  ServeConfig config;
  std::vector<workload::Request> requests;
  std::uint64_t decisions = 0;
  /// The sealed footer's conservation ledger.
  ConservationLedger ledger;

  [[nodiscard]] workload::Trace trace() const {
    return workload::Trace(requests);
  }
};

/// Parses a complete sv2 journal. Throws std::runtime_error naming the
/// record on any malformed input: an sv1 file or any schema but sv2,
/// unparsable fields, a missing footer, truncated framing, or a footer
/// count that disagrees with the records actually present.
[[nodiscard]] RecordedRun load_trace(std::istream& in);

/// load_trace from a file path (std::runtime_error when unreadable).
[[nodiscard]] RecordedRun load_trace_file(const std::string& path);

/// Crash recovery: the longest valid prefix of a possibly truncated sv2
/// journal. The header must be intact (recovery without the config is
/// meaningless — std::runtime_error otherwise); everything after it is
/// salvaged record by record until the first incomplete/garbled frame or
/// unparsable payload.
struct RecoveredRun {
  RecordedRun run;
  /// True when the sealing footer was present and consistent — i.e. the
  /// journal is complete and `run` is the whole recording.
  bool sealed = false;
  /// Complete records salvaged (header included).
  std::uint64_t records = 0;
  /// Bytes of the valid prefix (what a repair would truncate the file to).
  std::uint64_t bytes_consumed = 0;
};

[[nodiscard]] RecoveredRun recover_trace(std::istream& in);
[[nodiscard]] RecoveredRun recover_trace_file(const std::string& path);

}  // namespace pushpull::serve
