#include "dr/source.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace asyncdr::dr {
namespace {

TEST(Source, AnswersTruthfully) {
  Source src(BitVec::from_string("10110"), 3);
  EXPECT_TRUE(src.query(0, 0));
  EXPECT_FALSE(src.query(0, 1));
  EXPECT_EQ(src.query_range(1, 1, 3).to_string(), "011");
  EXPECT_EQ(src.query_indices(2, {4, 0}).to_string(), "01");
}

TEST(Source, AccountsPerPeerBits) {
  Source src(BitVec(100), 2);
  src.query(0, 5);
  src.query_range(0, 10, 20);
  src.query_indices(1, {1, 2, 3});
  EXPECT_EQ(src.bits_queried(0), 21u);
  EXPECT_EQ(src.bits_queried(1), 3u);
  src.reset_accounting();
  EXPECT_EQ(src.bits_queried(0), 0u);
}

TEST(Source, RepeatQueriesBilledAgain) {
  // Query complexity counts queries, not distinct bits learned.
  Source src(BitVec(10), 1);
  src.query(0, 3);
  src.query(0, 3);
  EXPECT_EQ(src.bits_queried(0), 2u);
}

TEST(Source, IndexRecording) {
  Source src(BitVec(50), 2);
  src.enable_index_recording(true);
  src.query(0, 7);
  src.query_range(0, 10, 5);
  const IntervalSet& q = src.queried_indices(0);
  EXPECT_TRUE(q.contains(7));
  EXPECT_TRUE(q.contains(12));
  EXPECT_FALSE(q.contains(8));
  EXPECT_EQ(q.count(), 6u);
}

TEST(Source, RecordingDisabledThrows) {
  Source src(BitVec(10), 1);
  EXPECT_THROW((void)src.queried_indices(0), contract_violation);
}

TEST(Source, OverlayRedirectsOnePeerOnly) {
  Source src(BitVec::from_string("0000"), 2);
  src.set_overlay(1, BitVec::from_string("1111"));
  EXPECT_FALSE(src.query(0, 2));
  EXPECT_TRUE(src.query(1, 2));
  // Accounting still applies to overlay queries.
  EXPECT_EQ(src.bits_queried(1), 1u);
  // Ground truth unchanged.
  EXPECT_EQ(src.data().to_string(), "0000");
}

TEST(Source, SetDataKeepsCounters) {
  Source src(BitVec::from_string("00"), 1);
  src.query(0, 0);
  src.set_data(BitVec::from_string("11"));
  EXPECT_TRUE(src.query(0, 0));
  EXPECT_EQ(src.bits_queried(0), 2u);
  EXPECT_THROW(src.set_data(BitVec(3)), contract_violation);
}

TEST(Source, BoundsChecked) {
  Source src(BitVec(8), 2);
  EXPECT_THROW(src.query(0, 8), contract_violation);
  EXPECT_THROW(src.query(2, 0), contract_violation);
  EXPECT_THROW(src.query_range(0, 5, 4), contract_violation);
  EXPECT_THROW(src.set_overlay(0, BitVec(9)), contract_violation);
}

TEST(Source, OutOfBoundsMessageNamesIndexAndArraySize) {
  Source src(BitVec(8), 2);
  try {
    src.query(0, 12);
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Source::query"), std::string::npos) << what;
    EXPECT_NE(what.find("index 12"), std::string::npos) << what;
    EXPECT_NE(what.find("n=8"), std::string::npos) << what;
  }
}

TEST(Source, QueryRangeRejectsOverflowingRanges) {
  Source src(BitVec(8), 1);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  // lo + len wraps around; the naive `lo + len <= n` check would pass.
  EXPECT_THROW(src.query_range(0, 2, huge), contract_violation);
  EXPECT_THROW(src.query_range(0, huge, 2), contract_violation);
  EXPECT_THROW(src.query_range(0, 8, 1), contract_violation);
  // The full range is still fine.
  EXPECT_EQ(src.query_range(0, 0, 8).size(), 8u);
}

TEST(Source, QueryIndicesRejectsAnyOutOfRangeIndex) {
  Source src(BitVec(8), 1);
  EXPECT_THROW(src.query_indices(0, {0, 3, 8}), contract_violation);
  try {
    src.query_indices(0, {0, 3, 9});
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("index 9"), std::string::npos)
        << e.what();
  }
}

// A query_indices call is one batch: the observer sees it once with its
// full size, and a batch with an out-of-bounds index accounts nothing.
TEST(Source, QueryIndicesAccountsOneBatch) {
  Source src(BitVec(16), 2);
  src.enable_index_recording(true);
  std::vector<std::pair<sim::PeerId, std::size_t>> seen;
  src.set_query_observer(
      [&](sim::PeerId peer, std::size_t bits) { seen.emplace_back(peer, bits); });

  src.query_indices(1, {3, 4, 9, 15});
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(sim::PeerId{1}, std::size_t{4}));
  EXPECT_EQ(src.bits_queried(1), 4u);
  EXPECT_EQ(src.total_bits_served(), 4u);
  const IntervalSet& q = src.queried_indices(1);
  EXPECT_EQ(q.count(), 4u);
  EXPECT_TRUE(q.contains(9));
  EXPECT_FALSE(q.contains(5));

  EXPECT_THROW(src.query_indices(1, {0, 1, 16}), contract_violation);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(src.bits_queried(1), 4u);
  EXPECT_EQ(src.total_bits_served(), 4u);
  EXPECT_EQ(src.queried_indices(1).count(), 4u);
  EXPECT_FALSE(src.queried_indices(1).contains(0));

  // An empty batch costs nothing and is not observed.
  src.query_indices(0, {});
  EXPECT_EQ(seen.size(), 1u);
}

}  // namespace
}  // namespace asyncdr::dr
