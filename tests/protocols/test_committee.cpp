#include "protocols/committee.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "harness.hpp"
#include "obs/mem.hpp"
#include "protocols/bounds.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

TEST(CommitteeAssignment, RoundRobinStructure) {
  const CommitteeAssignment a(/*n=*/10, /*k=*/7, /*t=*/2);
  EXPECT_EQ(a.committee_size(), 5u);
  EXPECT_EQ(a.threshold(), 3u);
  for (std::size_t bit = 0; bit < 10; ++bit) {
    const auto members = a.members_of(bit);
    ASSERT_EQ(members.size(), 5u);
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      EXPECT_TRUE(a.is_member(members[pos], bit));
      EXPECT_EQ(a.position(members[pos], bit), pos);
    }
  }
}

TEST(CommitteeAssignment, BitsOfMatchesMembership) {
  const CommitteeAssignment a(64, 9, 3);
  for (sim::PeerId p = 0; p < 9; ++p) {
    for (std::size_t bit : a.bits_of(p)) EXPECT_TRUE(a.is_member(p, bit));
  }
  // Every committee slot is covered by exactly one peer position.
  std::size_t total = 0;
  for (sim::PeerId p = 0; p < 9; ++p) total += a.bits_of(p).size();
  EXPECT_EQ(total, 64u * 7u);
}

TEST(CommitteeAssignment, LoadIsBalancedWithinOne) {
  const CommitteeAssignment a(1000, 11, 4);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (sim::PeerId p = 0; p < 11; ++p) {
    const std::size_t load = a.bits_of(p).size();
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(CommitteeAssignment, RejectsMajorityByzantine) {
  EXPECT_THROW(CommitteeAssignment(10, 8, 4), contract_violation);  // 2t+1 > k
}

TEST(Committee, FaultFreeCorrect) {
  Scenario s;
  s.cfg = cfg(2048, 12, 0.25);
  s.honest = make_committee();
  const auto report = expect_ok(s, "fault-free");
  EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
}

TEST(Committee, ZeroFaultDegeneratesToSharing) {
  Scenario s;
  s.cfg = cfg(1024, 8, 0.0);
  s.honest = make_committee();
  const auto report = expect_ok(s, "t=0");
  EXPECT_EQ(report.query_complexity, 128u);  // committees of size 1
}

TEST(Committee, QueryBoundIsTwoBetaNPlusNOverK) {
  const auto c = cfg(4096, 16, 0.25);
  // c = 2*4+1 = 9 -> Q <= ceil(4096*9/16)+1 = 2305.
  EXPECT_EQ(bounds::committee_q(c), 2305u);
}

// Attack sweep: every Byzantine behaviour in the library, at max t.
class CommitteeAttack : public ::testing::TestWithParam<int> {};

TEST_P(CommitteeAttack, CorrectUnderAttack) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s;
    s.cfg = cfg(1024, 13, 0.3, seed);  // t = 3, c = 7
    s.honest = make_committee();
    switch (GetParam()) {
      case 0: s.byzantine = make_silent_byz(); break;
      case 1: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll); break;
      case 2: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kRandom); break;
      case 3: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kEquivocate); break;
      case 4: s.byzantine = make_garbage_byz(); break;
    }
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), seed);
    const auto report = expect_ok(s, "attack");
    EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Attacks, CommitteeAttack, ::testing::Values(0, 1, 2, 3, 4));

TEST(Committee, AdversarialSchedulingWithLiars) {
  Scenario s;
  s.cfg = cfg(512, 9, 0.4, 4);  // t = 3, c = 7
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = {1, 4, 8};
  s.latency = seniority_latency();
  expect_ok(s, "liars + seniority scheduling");
}

TEST(Committee, StaggeredStarts) {
  Scenario s;
  s.cfg = cfg(512, 9, 0.2, 5);
  s.honest = make_committee();
  s.byzantine = make_silent_byz();
  s.byz_ids = {2};
  s.start_times[0] = 10.0;
  s.start_times[5] = 4.0;
  expect_ok(s, "staggered starts");
}

// dr.peer.state must see the per-bit vote books, not just the output: every
// honest peer holds an n x (2t+1) dedup table, two n-entry tallies and an
// n-bit decided mask from its first vote on. The bound is modeled here from
// the shape alone, independently of CommitteePeer::memory_bytes.
TEST(Committee, PeerStateChargesVoteTables) {
  Scenario s;
  s.cfg = cfg(2048, 12, 0.25, 6);  // t = 3, c = 7
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = {0, 5, 11};
  const dr::RunReport report = expect_ok(s, "vote-table accounting");

  const std::uint64_t n = s.cfg.n;
  const std::uint64_t c = 2 * s.cfg.max_faulty() + 1;
  const auto words = [](std::uint64_t bits) { return (bits + 63) / 64 * 8; };
  const std::uint64_t per_peer =
      obs::modeled_alloc_bytes(n * sizeof(std::vector<bool>)) +  // voted_ rows
      n * obs::modeled_alloc_bytes(words(c)) +                   // row bits
      2 * obs::modeled_alloc_bytes(n * sizeof(std::uint32_t)) +  // tallies
      obs::modeled_alloc_bytes(words(n));                        // decided_
  const std::uint64_t honest = s.cfg.k - s.byz_ids.size();
  std::uint64_t peak = 0;
  for (const obs::MemPoolStats& pool : report.mem_pools) {
    if (pool.name == "dr.peer.state") peak = pool.peak;
  }
  EXPECT_GE(peak, honest * per_peer);
}

TEST(Committee, BetaHalfRejected) {
  Scenario s;
  s.cfg = cfg(64, 8, 0.5);
  s.honest = make_committee();
  EXPECT_THROW(run_scenario(s), contract_violation);
}

// Beta sweep under the strongest liar.
class CommitteeBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(CommitteeBetaSweep, CorrectForAllMinorityBeta) {
  Scenario s;
  s.cfg = cfg(1024, 16, GetParam(), 21);
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
  const auto report = expect_ok(s, "beta sweep");
  EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
}

INSTANTIATE_TEST_SUITE_P(Betas, CommitteeBetaSweep,
                         ::testing::Values(0.05, 0.125, 0.25, 0.375, 0.45));

}  // namespace
}  // namespace asyncdr::proto
