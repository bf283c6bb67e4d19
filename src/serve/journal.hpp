#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pushpull::serve {

/// The live-path conservation ledger (DESIGN §10): every request injected
/// into the server must be accounted for by exactly one terminal outcome
/// — or still be in flight when a drain cut the run short. The identity
///
///   injected = delivered + timed_out + rejected + shed + lost
///              + in_flight_at_drain
///
/// is machine-checked after every live run (LiveServer throws on any
/// imbalance) and sealed into the journal footer so a recovered run can be
/// audited offline.
struct ConservationLedger {
  std::uint64_t injected = 0;           // arrivals dispatched into the server
  std::uint64_t delivered = 0;          // served (push or pull)
  std::uint64_t timed_out = 0;          // per-request deadline expired
  std::uint64_t rejected = 0;           // refused at the uplink by the ladder
  std::uint64_t shed = 0;               // evicted/refused by the bounded queue
  std::uint64_t lost = 0;               // exhausted their retry budget
  std::uint64_t in_flight_at_drain = 0; // still waiting when the drain sealed

  [[nodiscard]] bool balanced() const noexcept {
    return injected == delivered + timed_out + rejected + shed + lost +
                           in_flight_at_drain;
  }

  /// The ledger as a JSON object ({"injected":..,...}), with fields in
  /// fixed declaration order — byte-stable for identical ledgers.
  [[nodiscard]] std::string render_json() const;
};

/// --- sv2 journal framing ---------------------------------------------------
///
/// An sv2 journal is a sequence of length-prefixed records:
///
///   <8 lowercase hex digits: payload byte count> <payload> '\n'
///
/// The payload is one JSON object: a header, request, decision or footer
/// record (see record.hpp). The fixed-width prefix makes truncation
/// detection exact: a reader accepts a record only when the full prefix,
/// separator, payload and terminating newline are all present, so any
/// byte-level truncation or splice cuts the journal at a record boundary —
/// the crash-recovery contract of `pushpull serve --resume`.
inline constexpr std::size_t kFrameDigits = 8;

/// Completes a frame built in place: `frame` holds kFrameDigits + 1
/// placeholder bytes followed by the payload. Writes the length prefix and
/// its separator over the placeholder and appends the newline. Throws
/// std::invalid_argument when the payload holds a newline or is too large
/// to frame.
void close_frame(std::string& frame);

/// Frames one payload (no embedded newlines allowed; throws
/// std::invalid_argument otherwise).
[[nodiscard]] std::string frame_record(std::string_view payload);

/// Walks the framed records of a (possibly truncated) stream one at a
/// time. It reads through one buffer it reuses and grows only as bytes
/// arrive, so a corrupt length prefix never sizes an allocation. It stops
/// at EOF or at the first malformed or incomplete frame and never throws on
/// bad framing: the records before it are the valid prefix.
class JournalReader {
 public:
  explicit JournalReader(std::istream& in) : in_(in) {}

  /// The next complete payload, valid until the next call; nullopt at EOF
  /// or at the first bad frame.
  [[nodiscard]] std::optional<std::string_view> next();

  /// Trailing partial or garbled bytes ended the walk (and were discarded).
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  /// Length of the valid prefix: every frame next() has returned.
  [[nodiscard]] std::uint64_t bytes_consumed() const noexcept {
    return consumed_;
  }

 private:
  /// Buffers at least `want` unread bytes; false when the stream ends first.
  bool fill(std::size_t want);
  std::optional<std::string_view> stop(bool truncated);

  std::istream& in_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  // first unread buffered byte
  std::size_t end_ = 0;    // one past the last buffered byte
  std::uint64_t consumed_ = 0;
  bool truncated_ = false;
  bool done_ = false;
};

/// File-backed journal sink with explicit durability. One descriptor
/// serves both: writes through stream() collect in a buffer that leaves in
/// one write(2) when it fills or at sync(), and sync() then fdatasync()s the
/// file so every record written before the call survives a crash-kill.
/// TraceRecorder batches sync() every ServeConfig::journal_sync_every
/// records and always syncs at seal.
class JournalFile {
 public:
  /// Creates/truncates `path`; throws std::runtime_error naming the path
  /// when it cannot be opened for writing.
  explicit JournalFile(const std::string& path);
  /// Writes what is still buffered (best effort) and closes the file.
  ~JournalFile();
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  [[nodiscard]] std::ostream& stream();
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Write out the buffer + fdatasync. Throws std::runtime_error naming the
  /// path when a write fails or fdatasync fails with anything but EINVAL or
  /// EROFS, the two errors of a target that cannot sync at all (/dev/null
  /// and pipes report EINVAL; their writes are still delivered).
  void sync();

 private:
  struct Impl;
  Impl* impl_;
  std::string path_;
};

}  // namespace pushpull::serve
