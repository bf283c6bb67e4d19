#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>

namespace pushpull::serve {

std::string ConservationLedger::render_json() const {
  std::string out = "{\"injected\":" + std::to_string(injected) +
                    ",\"delivered\":" + std::to_string(delivered) +
                    ",\"timed_out\":" + std::to_string(timed_out) +
                    ",\"rejected\":" + std::to_string(rejected) +
                    ",\"shed\":" + std::to_string(shed) +
                    ",\"lost\":" + std::to_string(lost) +
                    ",\"in_flight_at_drain\":" +
                    std::to_string(in_flight_at_drain) + "}";
  return out;
}

void close_frame(std::string& frame) {
  const std::string_view payload =
      std::string_view(frame).substr(kFrameDigits + 1);
  if (payload.find('\n') != std::string_view::npos) {
    throw std::invalid_argument(
        "frame_record: payload must not contain a newline");
  }
  // Fixed-width lowercase hex length prefix.
  std::size_t len = payload.size();
  for (std::size_t i = kFrameDigits; i-- > 0; len >>= 4) {
    frame[i] = "0123456789abcdef"[len & 0xF];
  }
  if (len > 0) {
    throw std::invalid_argument("frame_record: payload too large to frame");
  }
  frame[kFrameDigits] = ' ';
  frame += '\n';
}

std::string frame_record(std::string_view payload) {
  std::string out(kFrameDigits + 1, ' ');
  out += payload;
  close_frame(out);
  return out;
}

namespace {

/// Bytes per read from the stream (the reader's first buffer) and the size
/// of JournalFile's write buffer.
constexpr std::size_t kIoChunk = std::size_t{1} << 16;

static_assert(sizeof(std::size_t) >= 8,
              "a frame of 2^32 - 1 payload bytes must not overflow size_t");

[[nodiscard]] bool hex_value(char c, std::size_t& out) noexcept {
  if (c >= '0' && c <= '9') {
    out = static_cast<std::size_t>(c - '0');
    return true;
  }
  if (c >= 'a' && c <= 'f') {
    out = static_cast<std::size_t>(c - 'a') + 10;
    return true;
  }
  return false;
}

}  // namespace

bool JournalReader::fill(std::size_t want) {
  if (end_ - begin_ >= want) return true;
  // Move the unread bytes to the front, then read. The buffer doubles only
  // when real bytes have filled it, so it never exceeds the larger of
  // kIoChunk and twice what the stream delivered, whatever a prefix claims.
  if (begin_ > 0) {
    std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(begin_),
              buffer_.begin() + static_cast<std::ptrdiff_t>(end_),
              buffer_.begin());
    end_ -= begin_;
    begin_ = 0;
  }
  while (end_ < want) {
    if (end_ == buffer_.size()) {
      buffer_.resize(std::max(kIoChunk, 2 * buffer_.size()));
    }
    in_.read(buffer_.data() + end_,
             static_cast<std::streamsize>(buffer_.size() - end_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got == 0) return false;
    end_ += got;
  }
  return true;
}

std::optional<std::string_view> JournalReader::stop(bool truncated) {
  done_ = true;
  truncated_ = truncated;
  return std::nullopt;
}

std::optional<std::string_view> JournalReader::next() {
  if (done_) return std::nullopt;
  if (!fill(kFrameDigits + 1)) {
    return stop(end_ > begin_);  // clean EOF only at a record boundary
  }
  const char* prefix = buffer_.data() + begin_;
  std::size_t length = 0;
  bool valid = prefix[kFrameDigits] == ' ';
  for (std::size_t i = 0; valid && i < kFrameDigits; ++i) {
    std::size_t digit = 0;
    valid = hex_value(prefix[i], digit);
    length = (length << 4) | digit;
  }
  const std::size_t frame = kFrameDigits + 1 + length + 1;
  if (!valid || !fill(frame)) return stop(true);
  const std::string_view payload(buffer_.data() + begin_ + kFrameDigits + 1,
                                 length);
  if (buffer_[begin_ + frame - 1] != '\n' ||
      payload.find('\n') != std::string_view::npos) {
    // A missing terminator, or a spliced frame hiding an embedded record.
    return stop(true);
  }
  begin_ += frame;
  consumed_ += frame;
  return payload;
}

struct JournalFile::Impl final : std::streambuf {
  Impl() { setp(buffer.data(), buffer.data() + buffer.size()); }

  /// Writes every buffered byte; false (errno kept in `error`) on failure.
  bool drain() {
    const char* from = pbase();
    while (from < pptr()) {
      const ::ssize_t n =
          ::write(fd, from, static_cast<std::size_t>(pptr() - from));
      if (n < 0) {
        if (errno == EINTR) continue;
        error = errno;
        return false;
      }
      from += n;
    }
    setp(buffer.data(), buffer.data() + buffer.size());
    return true;
  }

  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return drain() ? 0 : -1; }

  int fd = -1;
  int error = 0;
  std::vector<char> buffer = std::vector<char>(kIoChunk);
  std::ostream out{this};
};

JournalFile::JournalFile(const std::string& path)
    : impl_(new Impl), path_(path) {
  impl_->fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0666);
  if (impl_->fd < 0) {
    const int error = errno;
    delete impl_;
    throw std::runtime_error("JournalFile: cannot open \"" + path +
                             "\" for writing: " + std::strerror(error));
  }
}

JournalFile::~JournalFile() {
  (void)impl_->drain();
  ::close(impl_->fd);
  delete impl_;
}

std::ostream& JournalFile::stream() { return impl_->out; }

void JournalFile::sync() {
  impl_->out.flush();
  if (!impl_->out) {
    throw std::runtime_error("JournalFile: write failure on \"" + path_ +
                             "\": " + std::strerror(impl_->error));
  }
  // Durability barrier: every framed record written so far survives a
  // crash-kill. EINVAL and EROFS mean the target cannot sync at all; the
  // bytes were still delivered by the write above.
  if (::fdatasync(impl_->fd) != 0) {
    const int error = errno;
    if (error != EINVAL && error != EROFS) {
      throw std::runtime_error("JournalFile: fdatasync failed on \"" +
                               path_ + "\": " + std::strerror(error));
    }
  }
}

}  // namespace pushpull::serve
