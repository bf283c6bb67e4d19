// Unit tests for the workload model: service classes, client population,
// Poisson request generation and trace record/replay.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "rng/xoshiro256ss.hpp"
#include "workload/population.hpp"
#include "workload/request_generator.hpp"
#include "workload/trace.hpp"

namespace pushpull::workload {
namespace {

catalog::Catalog test_catalog() {
  return catalog::Catalog(50, 0.6, catalog::LengthModel::paper_default(), 7);
}

// --------------------------------------------------------- ClientPopulation

TEST(ClientPopulation, PaperDefaultShape) {
  const auto pop = ClientPopulation::paper_default();
  ASSERT_EQ(pop.num_classes(), 3u);
  // Class-A: highest priority, fewest clients.
  EXPECT_DOUBLE_EQ(pop.priority(0), 3.0);
  EXPECT_DOUBLE_EQ(pop.priority(1), 2.0);
  EXPECT_DOUBLE_EQ(pop.priority(2), 1.0);
  EXPECT_LT(pop.share(0), pop.share(1));
  EXPECT_LT(pop.share(1), pop.share(2));
  EXPECT_EQ(pop.cls(0).name, "class-A");
  EXPECT_EQ(pop.cls(2).name, "class-C");
}

TEST(ClientPopulation, SharesSumToOne) {
  const auto pop = ClientPopulation::zipf_classes(5, 0.8);
  double sum = 0.0;
  for (ClassId c = 0; c < pop.num_classes(); ++c) sum += pop.share(c);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ClientPopulation, ExplicitSharesNormalized) {
  ClientPopulation pop({{"gold", 3.0, 2.0}, {"silver", 1.0, 6.0}});
  EXPECT_NEAR(pop.share(0), 0.25, 1e-12);
  EXPECT_NEAR(pop.share(1), 0.75, 1e-12);
}

TEST(ClientPopulation, MaxPriority) {
  ClientPopulation pop({{"a", 5.0, 1.0}, {"b", 2.0, 1.0}});
  EXPECT_DOUBLE_EQ(pop.max_priority(), 5.0);
}

TEST(ClientPopulation, RejectsBadInput) {
  EXPECT_THROW(ClientPopulation({}), std::invalid_argument);
  EXPECT_THROW(ClientPopulation({{"a", 1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(ClientPopulation({{"a", -1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(ClientPopulation::zipf_classes(0, 1.0), std::invalid_argument);
}

TEST(ClientPopulation, SampleFollowsShares) {
  const auto pop = ClientPopulation::paper_default();
  rng::Xoshiro256ss eng(3);
  std::vector<int> counts(3, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[pop.sample_class(eng)];
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_NEAR(static_cast<double>(counts[c]) / n, pop.share(c), 0.005);
  }
}

// --------------------------------------------------------- RequestGenerator

TEST(RequestGenerator, ArrivalsStrictlyIncrease) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 11);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const Request r = gen.next();
    EXPECT_GT(r.arrival, last);
    last = r.arrival;
  }
}

TEST(RequestGenerator, RateMatches) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 12);
  const int n = 100000;
  Request last;
  for (int i = 0; i < n; ++i) last = gen.next();
  EXPECT_NEAR(static_cast<double>(n) / last.arrival, 5.0, 0.1);
}

TEST(RequestGenerator, IdsSequential) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 1.0, 13);
  for (RequestId i = 0; i < 100; ++i) EXPECT_EQ(gen.next().id, i);
  EXPECT_EQ(gen.generated(), 100u);
}

TEST(RequestGenerator, DeterministicForSeed) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator a(cat, pop, 5.0, 14);
  RequestGenerator b(cat, pop, 5.0, 14);
  for (int i = 0; i < 500; ++i) {
    const Request ra = a.next();
    const Request rb = b.next();
    EXPECT_DOUBLE_EQ(ra.arrival, rb.arrival);
    EXPECT_EQ(ra.item, rb.item);
    EXPECT_EQ(ra.cls, rb.cls);
  }
}

TEST(RequestGenerator, ItemFrequenciesFollowCatalog) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 15);
  std::vector<int> counts(cat.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[gen.next().item];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, cat.probability(0), 0.01);
  EXPECT_GT(counts[0], counts[49]);
}

TEST(RequestGenerator, RejectsBadRate) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  EXPECT_THROW(RequestGenerator(cat, pop, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(RequestGenerator(cat, pop, -2.0, 1), std::invalid_argument);
}

// -------------------------------------------------------------------- Trace

TEST(Trace, RecordCount) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 16);
  const Trace trace = Trace::record(gen, 1234);
  EXPECT_EQ(trace.size(), 1234u);
  EXPECT_GT(trace.span(), 0.0);
}

TEST(Trace, RecordUntilHorizon) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 17);
  const Trace trace = Trace::record_until(gen, 100.0);
  EXPECT_LE(trace.span(), 100.0);
  // Rate 5 over horizon 100 ⇒ about 500 requests.
  EXPECT_NEAR(static_cast<double>(trace.size()), 500.0, 120.0);
}

TEST(Trace, EmptyTrace) {
  const Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.span(), 0.0);
}

TEST(Trace, CopiesShareOneBuffer) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 19);
  const Trace trace = Trace::record(gen, 300);
  const Trace copy = trace;
  Trace assigned;
  assigned = trace;
  EXPECT_EQ(copy.requests().data(), trace.requests().data());
  EXPECT_EQ(assigned.requests().data(), trace.requests().data());
  EXPECT_EQ(copy.size(), 300u);
}

TEST(Trace, ReleaseMovesTheSoleHoldersBuffer) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 20);
  Trace trace = Trace::record(gen, 300);
  const Request* buffer = trace.requests().data();
  const std::vector<Request> released = std::move(trace).release();
  EXPECT_EQ(released.data(), buffer);
  EXPECT_EQ(released.size(), 300u);
  EXPECT_TRUE(Trace().empty());
  EXPECT_TRUE(std::move(Trace()).release().empty());
}

TEST(Trace, ReleaseOfASharedBufferCopiesIt) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 21);
  const Trace held = Trace::record(gen, 300);
  Trace copy = held;
  const std::vector<Request> released = std::move(copy).release();
  EXPECT_TRUE(copy.empty());
  EXPECT_NE(released.data(), held.requests().data());
  ASSERT_EQ(released.size(), held.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(released[i].id, held[i].id);
    EXPECT_EQ(released[i].arrival, held[i].arrival);
  }
  // The other holder still reads the whole trace.
  EXPECT_EQ(held.size(), 300u);
}

TEST(Trace, RecordUntilReservesForThePoissonTail) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 22);
  Trace trace = Trace::record_until(gen, 2000.0);
  // λT = 10,000; the buffer holds λT + 8·√(λT) = 10,800 requests.
  const std::vector<Request> released = std::move(trace).release();
  EXPECT_EQ(released.capacity(), 10800u);
  EXPECT_LT(released.size(), released.capacity());
}

TEST(Trace, RejectsUnsortedArrivals) {
  std::vector<Request> reqs(2);
  reqs[0].arrival = 5.0;
  reqs[1].arrival = 1.0;
  EXPECT_THROW(Trace{reqs}, std::invalid_argument);
}

TEST(Trace, CsvRoundTrip) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 18);
  const Trace trace = Trace::record(gen, 200);

  std::stringstream buffer;
  trace.save_csv(buffer);
  const Trace loaded = Trace::load_csv(buffer);

  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].id, trace[i].id);
    EXPECT_EQ(loaded[i].item, trace[i].item);
    EXPECT_EQ(loaded[i].cls, trace[i].cls);
    EXPECT_NEAR(loaded[i].arrival, trace[i].arrival, 1e-4);
  }
}

TEST(Trace, LoadRejectsMalformed) {
  std::stringstream missing_header("1,2,3,4\n");
  EXPECT_THROW(Trace::load_csv(missing_header), std::invalid_argument);

  std::stringstream bad_row("id,arrival,item,class\n1,2,3\n");
  EXPECT_THROW(Trace::load_csv(bad_row), std::invalid_argument);

  std::stringstream empty;
  EXPECT_THROW(Trace::load_csv(empty), std::invalid_argument);
}

TEST(Trace, ClassMixMatchesPopulation) {
  const auto cat = test_catalog();
  const auto pop = ClientPopulation::paper_default();
  RequestGenerator gen(cat, pop, 5.0, 19);
  const Trace trace = Trace::record(gen, 100000);
  std::vector<int> counts(3, 0);
  for (const auto& r : trace.requests()) ++counts[r.cls];
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_NEAR(static_cast<double>(counts[c]) / static_cast<double>(trace.size()),
                pop.share(c), 0.01);
  }
}

}  // namespace
}  // namespace pushpull::workload
