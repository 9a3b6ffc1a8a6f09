#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace asyncdr {
namespace {

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, ConstructAllOne) {
  BitVec v(130, true);
  EXPECT_EQ(v.popcount(), 130u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_TRUE(v.get(i));
}

TEST(BitVec, SetGetFlip) {
  BitVec v(100);
  v.set(63, true);
  v.set(64, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(62));
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.set(64, false);
  EXPECT_EQ(v.popcount(), 0u);
}

// flip_all complements whole words and must re-zero the tail past size(),
// or == and hash() would see the flipped padding.
TEST(BitVec, FlipAllMatchesPerBitFlip) {
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 129u}) {
    Rng rng(n + 1);
    const BitVec v = BitVec::generate(n, [&] { return rng.flip(); });
    BitVec reference = v;
    for (std::size_t i = 0; i < n; ++i) reference.flip(i);
    BitVec flipped = v;
    flipped.flip_all();
    EXPECT_EQ(flipped, reference) << "n=" << n;
    EXPECT_EQ(flipped.hash(), reference.hash()) << "n=" << n;
    EXPECT_EQ(flipped.popcount(), n - v.popcount()) << "n=" << n;
    flipped.flip_all();
    EXPECT_EQ(flipped, v) << "n=" << n;
  }
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(10);
  EXPECT_THROW((void)v.get(10), contract_violation);
  EXPECT_THROW(v.set(10, true), contract_violation);
  EXPECT_THROW(v.flip(11), contract_violation);
}

TEST(BitVec, FromToString) {
  const BitVec v = BitVec::from_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.to_string(), "10110");
  EXPECT_THROW(BitVec::from_string("10x"), contract_violation);
}

TEST(BitVec, PushBack) {
  BitVec v;
  for (int i = 0; i < 70; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 70u);
  for (int i = 0; i < 70; ++i) EXPECT_EQ(v.get(i), i % 3 == 0);
}

TEST(BitVec, SliceAndSplice) {
  const BitVec v = BitVec::from_string("110100111010");
  const BitVec mid = v.slice(3, 5);
  EXPECT_EQ(mid.to_string(), "10011");
  BitVec w(12);
  w.splice(3, mid);
  EXPECT_EQ(w.to_string(), "000100110000");
  EXPECT_THROW(v.slice(10, 5), contract_violation);
}

TEST(BitVec, SliceCrossesWordBoundary) {
  BitVec v(200);
  for (std::size_t i = 60; i < 70; ++i) v.set(i, true);
  const BitVec s = v.slice(58, 14);
  EXPECT_EQ(s.to_string(), "00111111111100");
}

TEST(BitVec, EqualityIgnoresNothing) {
  BitVec a(65), b(65);
  EXPECT_EQ(a, b);
  b.set(64, true);
  EXPECT_NE(a, b);
  b.set(64, false);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, BitVec(64));  // different sizes differ
}

TEST(BitVec, FirstDifference) {
  BitVec a(130), b(130);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  b.set(129, true);
  EXPECT_EQ(a.first_difference(b), 129u);
  b.set(7, true);
  EXPECT_EQ(a.first_difference(b), 7u);
  a.set(7, true);
  EXPECT_EQ(a.first_difference(b), 129u);
}

TEST(BitVec, FirstDifferenceSizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW((void)a.first_difference(b), contract_violation);
}

TEST(BitVec, HashDistinguishesContentAndSize) {
  const BitVec a = BitVec::from_string("1010");
  const BitVec b = BitVec::from_string("1011");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(BitVec(64).hash(), BitVec(65).hash());
  EXPECT_EQ(a.hash(), BitVec::from_string("1010").hash());
}

TEST(BitVec, MaskAlgebra) {
  BitVec a = BitVec::from_string("110010");
  const BitVec b = BitVec::from_string("011011");
  BitVec o = a;
  o.or_with(b);
  EXPECT_EQ(o.to_string(), "111011");
  BitVec i = a;
  i.and_with(b);
  EXPECT_EQ(i.to_string(), "010010");
  BitVec d = a;
  d.andnot_with(b);
  EXPECT_EQ(d.to_string(), "100000");
  EXPECT_EQ(a.count_and(b), 2u);
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_TRUE(i.is_subset_of(b));
  EXPECT_FALSE(a.is_subset_of(b));
}

TEST(BitVec, ForEachSetVisitsInOrder) {
  BitVec v(200);
  const std::vector<std::size_t> want{0, 63, 64, 127, 128, 199};
  for (std::size_t i : want) v.set(i, true);
  std::vector<std::size_t> got;
  v.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitVec, GenerateMatchesCallback) {
  std::size_t calls = 0;
  const BitVec v = BitVec::generate(10, [&] { return (calls++ % 2) == 0; });
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(v.to_string(), "1010101010");
}

// Property sweep: random masks round-trip through slice/splice and satisfy
// algebra identities at many sizes (incl. word boundaries).
class BitVecProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecProperty, SliceSpliceRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  const BitVec v = BitVec::generate(n, [&] { return rng.flip(); });
  for (int trial = 0; trial < 16; ++trial) {
    const auto lo = static_cast<std::size_t>(rng.below(n));
    const auto len = static_cast<std::size_t>(rng.below(n - lo + 1));
    const BitVec part = v.slice(lo, len);
    BitVec w = v;
    w.splice(lo, part);  // splicing a slice back must be a no-op
    EXPECT_EQ(w, v);
  }
}

TEST_P(BitVecProperty, DeMorgan) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 3);
  const BitVec a = BitVec::generate(n, [&] { return rng.flip(); });
  const BitVec b = BitVec::generate(n, [&] { return rng.flip(); });
  // |a| + |b| = |a&b| + |a|b|
  BitVec u = a;
  u.or_with(b);
  EXPECT_EQ(a.popcount() + b.popcount(), a.count_and(b) + u.popcount());
  // a \ b is a subset of a and disjoint from b
  BitVec d = a;
  d.andnot_with(b);
  EXPECT_TRUE(d.is_subset_of(a));
  EXPECT_EQ(d.count_and(b), 0u);
}

TEST_P(BitVecProperty, PopcountMatchesForEachSet) {
  const std::size_t n = GetParam();
  Rng rng(n + 99);
  const BitVec v = BitVec::generate(n, [&] { return rng.flip(); });
  std::size_t visits = 0;
  v.for_each_set([&](std::size_t i) {
    EXPECT_TRUE(v.get(i));
    ++visits;
  });
  EXPECT_EQ(visits, v.popcount());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecProperty,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

}  // namespace
}  // namespace asyncdr
