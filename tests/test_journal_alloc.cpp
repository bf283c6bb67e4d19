// Allocation tests for the sv2 journal codec and the serve path's request
// buffers, in their own binary because they replace the global operator new
// and operator delete with counting versions: recording a record allocates
// nothing once the recorder is warm, a corrupt length prefix never sizes an
// allocation in the reader, and every serve stage (plan, record, load,
// replay) holds one copy of the requests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "serve/serve.hpp"

namespace pushpull::serve {
namespace {

using pushpull::alloc_count::AllocationCount;

/// A sink that discards what it is given without allocating.
class DiscardBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

ServeConfig alloc_config() {
  ServeConfig c;
  c.num_items = 40;
  c.num_classes = 3;
  c.accelerated = true;
  c.journal_sync_every = 64;
  return c;
}

/// One of each record kind the live path writes per event.
void record_one_of_each(TraceRecorder& recorder, std::size_t i) {
  workload::Request r;
  r.id = 1000000 + i;
  r.item = static_cast<catalog::ItemId>(i % 40);
  r.cls = static_cast<workload::ClassId>(i % 3);
  r.arrival = 1234.5678 + 0.1 * static_cast<double>(i);
  recorder.record_request(r, r.arrival);
  recorder.record_decision(i % 2 == 0, r.arrival + 0.5, r.item, i % 7);
}

void expect_no_allocations_per_record(TraceRecorder& recorder) {
  record_one_of_each(recorder, 0);  // warm-up
  std::size_t news = 0;
  std::size_t deletes = 0;
  {
    const AllocationCount count;
    for (std::size_t i = 1; i <= 10000; ++i) {
      record_one_of_each(recorder, i);
      if (i % 1000 == 0) {
        recorder.record_ladder(static_cast<double>(i), 1, 2);
        recorder.record_drain(static_cast<double>(i), i);
      }
    }
    news = count.news();
    deletes = count.deletes();
  }
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(deletes, 0u);
}

TEST(JournalAlloc, RecordingToAJournalFileAllocatesNothing) {
  JournalFile file("/dev/null");
  TraceRecorder recorder(file, alloc_config());
  expect_no_allocations_per_record(recorder);
}

TEST(JournalAlloc, RecordingToAnOstreamAllocatesNothing) {
  DiscardBuf sink;
  std::ostream out(&sink);
  TraceRecorder recorder(out, alloc_config());
  expect_no_allocations_per_record(recorder);
}

#if defined(PUSHPULL_GOLDEN_DIR)

/// The golden smoke journal's header frame.
std::string golden_header_frame() {
  std::ifstream in(std::string(PUSHPULL_GOLDEN_DIR) + "/serve/smoke.sv2",
                   std::ios::binary);
  JournalReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  in.clear();
  in.seekg(0);
  std::string bytes(static_cast<std::size_t>(reader.bytes_consumed()), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

TEST(JournalAlloc, ACorruptLengthPrefixNeverSizesAnAllocation) {
  // The header, then a frame whose prefix claims 2^32 - 1 payload bytes.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const std::string header = golden_header_frame();
  const std::string bytes = header + "ffffffff {\"t\":1}\n";
  ASSERT_EQ(bytes.size(), 820u);

  std::istringstream load_in(bytes);
  std::size_t largest = 0;
  {
    const AllocationCount count;
    EXPECT_THROW((void)load_trace(load_in), std::runtime_error);
    largest = count.largest();
  }
  EXPECT_LE(largest, kMiB);

  std::istringstream recover_in(bytes);
  RecoveredRun recovered;
  {
    const AllocationCount count;
    recovered = recover_trace(recover_in);
    largest = count.largest();
  }
  EXPECT_LE(largest, kMiB);
  EXPECT_EQ(recovered.records, 1u);
  EXPECT_FALSE(recovered.sealed);
  EXPECT_TRUE(recovered.run.requests.empty());
  EXPECT_EQ(recovered.bytes_consumed, header.size());
}

#endif  // PUSHPULL_GOLDEN_DIR

// ---------------------------------------------------------------------------
// One request buffer per serve stage
// ---------------------------------------------------------------------------

/// Accelerated serve defaults over 4,000 broadcast units: about 20,000
/// requests, so a request buffer (about 480 KB) dwarfs every other block
/// the stages allocate, the journal reader's 64 KiB buffer included.
ServeConfig buffer_config() {
  ServeConfig c;
  c.accelerated = true;
  c.duration = 4000.0;
  return c;
}

constexpr std::size_t kRequestBytes = sizeof(workload::Request);

TEST(RequestBuffer, CopyingATraceSharesItsBuffer) {
  const ServeConfig config = buffer_config();
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  const LoadDriver driver(cat, pop, config.target_qps, config.duration,
                          config.seed);
  const workload::Trace& plan = driver.plan();
  ASSERT_GT(plan.size(), 10000u);
  std::size_t news = 0;
  {
    const AllocationCount count;
    const workload::Trace copy = plan;
    const LoadDriver replanned(plan);
    news = count.news();
    EXPECT_EQ(copy.requests().data(), plan.requests().data());
    EXPECT_EQ(replanned.plan().requests().data(), plan.requests().data());
  }
  EXPECT_EQ(news, 0u);
}

TEST(RequestBuffer, LoadDriverSynthesisAllocatesItsPlanOnce) {
  const ServeConfig config = buffer_config();
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  // A plan grown by doubling allocates its last two buffers at half the
  // final size or more; one reserved for the Poisson tail allocates one.
  const std::size_t expected = static_cast<std::size_t>(
      config.target_qps * config.duration);
  std::size_t large = 0;
  std::size_t planned = 0;
  {
    const AllocationCount count(expected / 2 * kRequestBytes);
    const LoadDriver driver(cat, pop, config.target_qps, config.duration,
                            config.seed);
    large = count.large();
    planned = driver.plan().size();
  }
  EXPECT_NEAR(static_cast<double>(planned), static_cast<double>(expected),
              0.05 * static_cast<double>(expected));
  EXPECT_EQ(large, 1u);
}

/// Records an accelerated run of buffer_config() to a journal file.
std::string record_buffer_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  const ServeConfig config = buffer_config();
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  LoadDriver driver(cat, pop, config.target_qps, config.duration,
                    config.seed);
  JournalFile file(path);
  TraceRecorder recorder(file, config);
  LiveServer server(cat, pop, config);
  (void)server.run_accelerated(driver, &recorder);
  return path;
}

TEST(RequestBuffer, LoadTraceFileAllocatesItsRequestBufferOnce) {
  const std::string path = record_buffer_journal("request_buffer_load.sv2");
  std::size_t large = 0;
  std::size_t loaded = 0;
  {
    // 5,000 requests' bytes: above the reader's 64 KiB buffer and every
    // other block of the decode, below the last sizes of a buffer grown by
    // doubling.
    const AllocationCount count(5000 * kRequestBytes);
    const RecordedRun run = load_trace_file(path);
    large = count.large();
    loaded = run.requests.size();
  }
  std::remove(path.c_str());
  ASSERT_GT(loaded, 10000u);
  EXPECT_EQ(large, 1u);
}

TEST(RequestBuffer, ReplayRunsOverTheRecordingInPlace) {
  const std::string path = record_buffer_journal("request_buffer_replay.sv2");
  const RecordedRun run = load_trace_file(path);
  std::remove(path.c_str());
  ASSERT_GT(run.requests.size(), 10000u);
  std::size_t largest = 0;
  {
    const AllocationCount count;
    const std::vector<core::SimResult> results = replay(run);
    largest = count.largest();
    EXPECT_EQ(results.size(), 1u);
  }
  EXPECT_LT(largest, run.requests.size() * kRequestBytes);
}

}  // namespace
}  // namespace pushpull::serve
