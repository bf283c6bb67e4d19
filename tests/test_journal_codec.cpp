// Tests for the sv2 journal codec (DESIGN §10): the committed golden
// journals re-record byte for byte and replay to their committed reports; a
// seeded mutation suite holds the two decoders (load_trace and
// recover_trace) to clean rejection or agreement on every mutated golden;
// and JournalFile keeps one descriptor, buffers its writes and reports what
// it cannot do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"
#include "serve/serve.hpp"

namespace pushpull::serve {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// The framing reader and the loaders built on it
// ---------------------------------------------------------------------------

TEST(JournalReader, WalksFramesAcrossReadChunks) {
  // Frames of many sizes, one larger than the reader's 64 KiB first
  // buffer, so frames straddle every read boundary.
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 400; ++i) {
    payloads.emplace_back(i * 37 % 700, static_cast<char>('a' + i % 26));
  }
  payloads[150] = std::string(150000, 'z');
  std::string journal;
  std::vector<std::size_t> ends;
  for (const std::string& p : payloads) {
    journal += frame_record(p);
    ends.push_back(journal.size());
  }
  ASSERT_GT(journal.size(), std::size_t{3} << 16);

  for (std::size_t cut = 0; cut <= journal.size(); cut += 4099) {
    for (const std::size_t at : {cut, std::min(journal.size(), cut + 1)}) {
      std::istringstream in(journal.substr(0, at));
      JournalReader reader(in);
      std::size_t n = 0;
      while (const auto payload = reader.next()) {
        ASSERT_LT(n, payloads.size());
        ASSERT_TRUE(*payload == payloads[n]) << "frame " << n;
        ++n;
      }
      const std::size_t whole = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), at) - ends.begin());
      EXPECT_EQ(n, whole) << "cut " << at;
      EXPECT_EQ(reader.bytes_consumed(), whole == 0 ? 0 : ends[whole - 1]);
      EXPECT_EQ(reader.truncated(), reader.bytes_consumed() != at);
    }
  }
  std::istringstream in(journal);
  JournalReader reader(in);
  std::size_t n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, payloads.size());
  EXPECT_EQ(reader.bytes_consumed(), journal.size());
  EXPECT_FALSE(reader.truncated());
}

TEST(JournalReader, RejectsAFrameHidingAnEmbeddedRecord) {
  // One prefix spanning a payload, its newline and the whole next frame:
  // the terminator checks out, but the payload holds a record boundary.
  const std::string second = frame_record("{\"t\":2}");
  const std::string hidden =
      "{\"t\":1}\n" + second.substr(0, second.size() - 1);
  std::string spliced = frame_record(std::string(hidden.size(), 'x'));
  spliced.replace(kFrameDigits + 1, hidden.size(), hidden);
  std::istringstream in(frame_record("{\"t\":0}") + spliced);
  JournalReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

ServeConfig loader_config() {
  ServeConfig c;
  c.num_items = 40;
  c.num_classes = 3;
  c.accelerated = true;
  return c;
}

std::string load_error(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    (void)load_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "load_trace accepted the input";
  return {};
}

TEST(TraceLoader, FramingErrorsTakePrecedenceOverPayloadErrors) {
  std::ostringstream out;
  {
    TraceRecorder recorder(out, loader_config());
    workload::Request r;
    r.item = 40;  // beyond the catalog: a payload error in record 2
    recorder.record_request(r, 0.0);
    recorder.record_decision(true, 1.0, 3, 1);
  }
  const std::string journal = out.str();
  EXPECT_NE(load_error(journal).find("item beyond the recorded catalog"),
            std::string::npos);
  // Cut inside the footer frame: the framing error is what gets reported.
  const std::string cut = journal.substr(0, journal.size() - 5);
  EXPECT_NE(load_error(cut).find("framing"), std::string::npos);
  // So is it when the payload error is in the header itself.
  std::string bad_header = cut;
  bad_header.replace(bad_header.find("sv2"), 3, "sv9");
  EXPECT_NE(load_error(bad_header).find("framing"), std::string::npos);
  bad_header = journal;
  bad_header.replace(bad_header.find("sv2"), 3, "sv9");
  EXPECT_NE(load_error(bad_header).find("expected schema"),
            std::string::npos);
}

TEST(TraceLoader, SortsRequestsRecordedOutOfOrder) {
  // Realtime pacer threads can post arrivals out of (arrival, id) order.
  std::ostringstream out;
  {
    TraceRecorder recorder(out, loader_config());
    for (const auto& [t, id] : {std::pair{3.0, 7u}, std::pair{1.0, 9u},
                                std::pair{3.0, 2u}, std::pair{2.0, 1u}}) {
      workload::Request r;
      r.id = id;
      recorder.record_request(r, t);
    }
  }
  std::istringstream in(out.str());
  const RecordedRun run = load_trace(in);
  ASSERT_EQ(run.requests.size(), 4u);
  const std::uint64_t ids[] = {9, 1, 2, 7};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(run.requests[i].id, ids[i]);
}

// ---------------------------------------------------------------------------
// Golden journals, recorded before the codec streamed
// ---------------------------------------------------------------------------

#if defined(PUSHPULL_CLI_PATH) && defined(PUSHPULL_GOLDEN_DIR)

struct GoldenRun {
  const char* name;
  const char* loadtest_args;
};

/// The sanitize CI smoke, and a failure-model run whose journal carries
/// ladder and drain records as well as requests and transmissions.
constexpr GoldenRun kGoldenRuns[] = {
    {"smoke", "--duration 40 --target-qps 6 --seed 7"},
    {"failure",
     "--duration 60 --target-qps 8 --seed 7 --mean-deadline 8 --fault "
     "--queue-cap 24 --shed priority --ladder --ladder-capacity 8 "
     "--hedge-after 3 --drain-after 50"},
};

std::string golden_path(const std::string& file) {
  return std::string(PUSHPULL_GOLDEN_DIR) + "/serve/" + file;
}

std::string golden_journal(const GoldenRun& run) {
  return slurp(golden_path(std::string(run.name) + ".sv2"));
}

TEST(GoldenJournal, ReRecordingMatchesTheCommittedBytes) {
  for (const GoldenRun& run : kGoldenRuns) {
    // One file per golden: ctest -j runs the cases as concurrent processes.
    const std::string journal =
        std::string("journal_golden_") + run.name + ".sv2";
    const std::string cmd = std::string(PUSHPULL_CLI_PATH) +
                            " loadtest --accelerated " + run.loadtest_args +
                            " --record " + journal + " > /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    const std::string expected = golden_journal(run);
    ASSERT_FALSE(expected.empty());
    EXPECT_TRUE(slurp(journal) == expected)
        << "journal drifted from golden " << run.name << ".sv2";
    std::remove(journal.c_str());
  }
  const std::string failure = golden_journal(kGoldenRuns[1]);
  EXPECT_EQ(count_of(failure, "\"d\":\"ladder\""), 5u);
  EXPECT_EQ(count_of(failure, "\"d\":\"drain\""), 1u);
}

TEST(GoldenJournal, ReplayMatchesTheCommittedReport) {
  for (const GoldenRun& run : kGoldenRuns) {
    const RecordedRun loaded =
        load_trace_file(golden_path(std::string(run.name) + ".sv2"));
    EXPECT_EQ(render_replay_report(loaded, replay(loaded)),
              slurp(golden_path(std::string(run.name) + ".replay.txt")))
        << run.name;
  }
}

// ---------------------------------------------------------------------------
// Seeded mutations of the goldens against both decoders
// ---------------------------------------------------------------------------

/// Start offsets of every frame of a well-formed journal, then its size.
std::vector<std::size_t> frame_offsets(const std::string& journal) {
  std::istringstream in(journal);
  JournalReader reader(in);
  std::vector<std::size_t> offsets{0};
  while (reader.next()) offsets.push_back(reader.bytes_consumed());
  EXPECT_FALSE(reader.truncated());
  return offsets;
}

struct Mutation {
  std::string bytes;
  /// Only a byte flip can leave a loadable journal (a digit of a number,
  /// say). A changed journal that is cut, lost or gained a frame, or had a
  /// length prefix changed must be rejected.
  bool flip = false;
};

/// One seeded mutation: a byte flip, a cut, a dropped or duplicated frame,
/// or a corrupted length prefix.
Mutation mutate(const std::string& journal,
                const std::vector<std::size_t>& offsets,
                rng::SplitMix64& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t frames = offsets.size() - 1;
  Mutation mutation{journal};
  std::string& out = mutation.bytes;
  switch (below(5)) {
    case 0: {  // flip one byte to any other value; half of them in the header
      mutation.flip = true;
      const std::size_t at = below(below(2) == 0 ? offsets[1] : out.size());
      out[at] = static_cast<char>(static_cast<unsigned char>(out[at]) ^
                                  (1 + below(255)));
      break;
    }
    case 1: {  // cut anywhere
      out.resize(below(out.size() + 1));
      break;
    }
    case 2: {  // drop a frame
      const std::size_t f = below(frames);
      out.erase(offsets[f], offsets[f + 1] - offsets[f]);
      break;
    }
    case 3: {  // duplicate a frame at any frame boundary
      const std::size_t f = below(frames);
      out.insert(offsets[below(frames + 1)],
                 journal.substr(offsets[f], offsets[f + 1] - offsets[f]));
      break;
    }
    default: {  // corrupt a length prefix: one digit, or all eight
      const std::size_t at = offsets[below(frames)];
      static constexpr char kDigits[] = "0123456789abcdefABCDEF g\n";
      if (below(2) == 0) {
        out[at + below(kFrameDigits)] = kDigits[below(sizeof(kDigits) - 1)];
      } else {
        for (std::size_t i = 0; i < kFrameDigits; ++i) {
          out[at + i] = kDigits[below(16)];
        }
      }
      break;
    }
  }
  return mutation;
}

bool same_requests(const std::vector<workload::Request>& a,
                   const std::vector<workload::Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].item != b[i].item ||
        a[i].cls != b[i].cls ||
        std::bit_cast<std::uint64_t>(a[i].arrival) !=
            std::bit_cast<std::uint64_t>(b[i].arrival)) {
      return false;
    }
  }
  return true;
}

/// Runs one decoder, which must return or throw std::runtime_error;
/// anything else it throws fails the test.
template <typename Decode>
void expect_clean(const std::string& label, Decode decode) {
  try {
    decode();
  } catch (const std::runtime_error&) {
    // A clean rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": threw a non-runtime_error: " << e.what();
  } catch (...) {
    ADD_FAILURE() << label << ": threw a non-std exception";
  }
}

TEST(JournalMutation, DecodersRejectCleanlyOrAgree) {
  constexpr std::size_t kMutationsPerGolden = 1000;
  std::size_t loaded_count = 0;
  std::size_t recovered_count = 0;
  std::size_t rejected_count = 0;
  for (const GoldenRun& run : kGoldenRuns) {
    const std::string journal = golden_journal(run);
    const std::vector<std::size_t> offsets = frame_offsets(journal);
    ASSERT_GE(offsets.size(), 3u) << run.name;
    for (std::size_t i = 0; i < kMutationsPerGolden; ++i) {
      rng::SplitMix64 rng(rng::SplitMix64::mix(20050614 + i));
      const Mutation mutation = mutate(journal, offsets, rng);
      const std::string& bytes = mutation.bytes;
      const std::string label =
          std::string(run.name) + " mutation " + std::to_string(i);

      std::optional<RecordedRun> loaded;
      std::optional<RecoveredRun> recovered;
      expect_clean(label, [&] {
        std::istringstream in(bytes);
        loaded = load_trace(in);
      });
      expect_clean(label, [&] {
        std::istringstream in(bytes);
        recovered = recover_trace(in);
      });
      if (!mutation.flip && bytes != journal) {
        EXPECT_FALSE(loaded) << label << ": loaded a structural mutation";
      }
      // Recovery keeps every frame that ends before the first changed byte.
      const std::size_t changed = static_cast<std::size_t>(
          std::mismatch(journal.begin(), journal.end(), bytes.begin(),
                        bytes.end())
              .first -
          journal.begin());
      const std::size_t intact = static_cast<std::size_t>(
          std::upper_bound(offsets.begin() + 1, offsets.end(), changed) -
          (offsets.begin() + 1));
      if (intact > 0) {
        ASSERT_TRUE(recovered) << label;
        EXPECT_GE(recovered->records, intact) << label;
      }
      if (loaded) {
        ++loaded_count;
        ASSERT_TRUE(recovered) << label;
        EXPECT_TRUE(recovered->sealed) << label;
        EXPECT_TRUE(same_requests(loaded->requests, recovered->run.requests))
            << label;
      } else {
        ++rejected_count;
      }
      if (recovered) {
        ++recovered_count;
        ASSERT_LE(recovered->bytes_consumed, bytes.size()) << label;
        std::istringstream prefix(
            bytes.substr(0, static_cast<std::size_t>(
                                recovered->bytes_consumed)));
        EXPECT_EQ(recover_trace(prefix).records, recovered->records)
            << label;
      }
    }
  }
  // The mutations reach both sides of each decoder.
  EXPECT_GT(loaded_count, 0u);
  EXPECT_GT(rejected_count, 0u);
  EXPECT_GT(recovered_count, loaded_count);
}

TEST(JournalMutation, FileDecoderRejectsCleanlyOrAgrees) {
  // load_trace_file reserves its request buffer from the file's length: at
  // most one request per 39 bytes, the smallest request frame the decoder
  // accepts. Every tenth mutant of the suite above goes through a file; a
  // mutated length prefix or footer count must not move that reservation,
  // and the file decoder must reject or agree exactly as the stream one.
  constexpr std::size_t kMutationsPerGolden = 1000;
  constexpr std::size_t kEvery = 10;
  constexpr std::size_t kMinRequestFrameBytes = 39;
  const std::string path =
      ::testing::TempDir() + "journal_mutation_file.sv2";
  std::size_t loaded_count = 0;
  std::size_t rejected_count = 0;
  for (const GoldenRun& run : kGoldenRuns) {
    const std::string journal = golden_journal(run);
    const std::vector<std::size_t> offsets = frame_offsets(journal);
    ASSERT_GE(offsets.size(), 3u) << run.name;
    for (std::size_t i = 0; i < kMutationsPerGolden; i += kEvery) {
      rng::SplitMix64 rng(rng::SplitMix64::mix(20050614 + i));
      const std::string bytes = mutate(journal, offsets, rng).bytes;
      const std::string label =
          std::string(run.name) + " mutation " + std::to_string(i);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(out.good()) << label;
      }

      std::optional<RecordedRun> streamed;
      std::optional<RecordedRun> filed;
      expect_clean(label, [&] {
        std::istringstream in(bytes);
        streamed = load_trace(in);
      });
      expect_clean(label, [&] { filed = load_trace_file(path); });
      ASSERT_EQ(filed.has_value(), streamed.has_value()) << label;
      if (!filed) {
        ++rejected_count;
        continue;
      }
      ++loaded_count;
      EXPECT_TRUE(same_requests(filed->requests, streamed->requests))
          << label;
      EXPECT_EQ(filed->decisions, streamed->decisions) << label;
      EXPECT_EQ(filed->ledger.render_json(), streamed->ledger.render_json())
          << label;
      EXPECT_LE(filed->requests.capacity(),
                bytes.size() / kMinRequestFrameBytes)
          << label;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded_count, 0u);
  EXPECT_GT(rejected_count, 0u);
}

#endif  // PUSHPULL_CLI_PATH && PUSHPULL_GOLDEN_DIR

// ---------------------------------------------------------------------------
// JournalFile: one descriptor, buffered writes, surfaced failures
// ---------------------------------------------------------------------------

ServeConfig journal_config(std::size_t sync_every) {
  ServeConfig c;
  c.num_items = 40;
  c.num_classes = 3;
  c.accelerated = true;
  c.journal_sync_every = sync_every;
  return c;
}

void record_some(TraceRecorder& recorder, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    workload::Request r;
    r.id = i;
    r.item = static_cast<catalog::ItemId>(i % 40);
    r.cls = static_cast<workload::ClassId>(i % 3);
    r.arrival = 0.25 * static_cast<double>(i);
    recorder.record_request(r, r.arrival);
  }
}

std::size_t open_descriptors() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// The process's write(2) count so far (/proc/self/io "syscw").
std::size_t write_syscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::size_t value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") return value;
  }
  ADD_FAILURE() << "no syscw line in /proc/self/io";
  return 0;
}

TEST(JournalFile, WritesAndSyncsThroughOneDescriptor) {
  const std::string path = ::testing::TempDir() + "journal_file_one_fd.sv2";
  const std::size_t before = open_descriptors();
  {
    JournalFile file(path);
    EXPECT_EQ(open_descriptors(), before + 1);
    TraceRecorder recorder(file, journal_config(8));
    record_some(recorder, 100);
  }
  EXPECT_EQ(open_descriptors(), before);
  const RecordedRun run = load_trace_file(path);
  EXPECT_EQ(run.requests.size(), 100u);
  std::remove(path.c_str());
}

TEST(JournalFile, WritesOneBufferPerSyncGroupNotOnePerRecord) {
  const std::string path = ::testing::TempDir() + "journal_file_batched.sv2";
  constexpr std::size_t kRecords = 6400;
  for (const std::size_t sync_every : {std::size_t{64}, std::size_t{0}}) {
    JournalFile file(path);
    TraceRecorder recorder(file, journal_config(sync_every));
    const std::size_t before = write_syscalls();
    record_some(recorder, kRecords);
    recorder.finish();
    // 64-record groups take one write each, about 100; syncing only at
    // seal takes one per full 64 KiB buffer, about 5. The bound leaves
    // room for the few writes a sanitizer runtime adds to the count.
    EXPECT_LT(write_syscalls() - before, kRecords / 16)
        << "sync_every " << sync_every;
  }
  std::remove(path.c_str());
}

TEST(JournalFile, JournalsToDevNull) {
  // fdatasync on /dev/null fails with EINVAL: the target cannot sync, and
  // journaling to it is documented to work.
  JournalFile file("/dev/null");
  TraceRecorder recorder(file, journal_config(1));
  EXPECT_NO_THROW(record_some(recorder, 10));
  EXPECT_NO_THROW(file.sync());
  EXPECT_NO_THROW(recorder.finish());
}

TEST(JournalFile, ThrowsNamingAPathItCannotOpen) {
  const std::string path =
      ::testing::TempDir() + "journal_no_such_dir/journal.sv2";
  try {
    JournalFile file(path);
    ADD_FAILURE() << "opened " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace pushpull::serve
