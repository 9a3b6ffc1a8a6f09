#include "protocols/committee.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "dr/world.hpp"
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

// The walk in bits_of/for_each_bit against a full membership scan, over
// shapes where gcd(c, k) > 1 (k=9, t=1; k=12, t=1), where n is below the
// period k / gcd(c, k) of the committee starts, and where n is not a
// multiple of it.
TEST(CommitteeAssignment, BitsOfMatchesBruteForce) {
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u, 9u, 12u, 16u, 17u}) {
    for (std::size_t t = 0; 2 * t + 1 <= k; ++t) {
      for (const std::size_t n : {1u, 2u, 5u, 8u, 13u, 35u, 64u, 100u}) {
        const CommitteeAssignment a(n, k, t);
        std::size_t total = 0;
        for (sim::PeerId p = 0; p < k; ++p) {
          std::vector<std::size_t> scan;
          for (std::size_t bit = 0; bit < n; ++bit) {
            if (a.is_member(p, bit)) scan.push_back(bit);
          }
          EXPECT_EQ(a.bits_of(p), scan)
              << "n=" << n << " k=" << k << " t=" << t << " p=" << p;
          EXPECT_EQ(a.load(p), scan.size());
          total += scan.size();
        }
        EXPECT_EQ(total, n * (2 * t + 1));
      }
    }
  }
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

// A test-local committee liar (the complement of the truth) with a scripted
// send sequence: its votes once, its votes twice, or a wrong-length vector
// before its votes.
class ScriptedLiarPeer final : public dr::Peer {
 public:
  enum class Script { kOnce, kTwice, kMalformedFirst };
  explicit ScriptedLiarPeer(Script script) : script_(script) {}

  void on_start() override {
    const CommitteeAssignment a(n(), k(), world().config().max_faulty());
    BitVec lie = query_indices(a.bits_of(id()));
    lie.flip_all();
    if (script_ == Script::kMalformedFirst) {
      broadcast(std::make_shared<committee::Votes>(BitVec(lie.size() + 1)));
    }
    broadcast(std::make_shared<committee::Votes>(lie));
    if (script_ == Script::kTwice) {
      broadcast(std::make_shared<committee::Votes>(lie));
    }
  }

 protected:
  void on_message(sim::PeerId, const sim::Payload&) override {}

 private:
  Script script_;
};

// t = 2, so a bit decides on 3 matching votes. The two liars' votes arrive
// long before any honest one: if peer 1's repeat counted again, its two
// votes plus peer 2's would decide the bits they share wrongly. Repeats
// and a malformed vector change no output, no query and no timing.
TEST(Committee, DuplicateAndMalformedVotesIgnored) {
  const auto run = [](ScriptedLiarPeer::Script first,
                      ScriptedLiarPeer::Script second,
                      std::vector<BitVec>& outputs) {
    Scenario s;
    s.cfg = cfg(512, 7, 0.3, 8);
    s.honest = make_committee();
    s.byzantine = [=](const dr::Config&, sim::PeerId id) {
      return std::make_unique<ScriptedLiarPeer>(id == 1 ? first : second);
    };
    s.byz_ids = {1, 2};
    s.latency = sender_delay_latency({0, 3, 4, 5, 6}, /*slow=*/5.0);
    s.post_run = [&](dr::World& world, const dr::RunReport&) {
      for (sim::PeerId p : {0u, 3u, 4u, 5u, 6u}) {
        outputs.push_back(world.peer(p).output());
      }
    };
    return expect_ok(s, "scripted liars");
  };
  using Script = ScriptedLiarPeer::Script;
  std::vector<BitVec> once_out, noisy_out;
  const dr::RunReport once = run(Script::kOnce, Script::kOnce, once_out);
  const dr::RunReport noisy =
      run(Script::kTwice, Script::kMalformedFirst, noisy_out);
  EXPECT_EQ(noisy_out, once_out);
  EXPECT_EQ(noisy.query_complexity, once.query_complexity);
  EXPECT_EQ(noisy.time_complexity, once.time_complexity);
}

// The same rule one delivery at a time, at peer 0 of k=5, t=1 (c=3, two
// matching votes decide). Senders 1 and 2 share bits 0, 2, 5 and 7. A
// repeat from 1 adds nothing, and a malformed vector from 2 does not use
// up 2's one counted Votes.
TEST(Committee, VotesCountOncePerSender) {
  dr::World world(cfg(8, 5, 0.2), BitVec(8, true));
  for (sim::PeerId p = 0; p < 5; ++p) {
    world.set_peer(p, std::make_unique<CommitteePeer>());
  }
  const auto deliver = [&](sim::PeerId from, std::size_t bits) {
    world.peer(0).deliver(sim::Message{
        .from = from,
        .to = 0,
        .payload = std::make_shared<committee::Votes>(BitVec(bits, true))});
  };
  const auto decided = [&](const std::string& want) {
    const std::string status = world.peer(0).status();
    EXPECT_NE(status.find("decided " + want + " bits"), std::string::npos)
        << status;
  };
  deliver(1, 5);
  deliver(1, 5);
  decided("0/8");
  deliver(2, 6);
  decided("0/8");
  deliver(2, 5);
  decided("4/8");
}

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

// dr.peer.state charges exactly the honest peers' books at the end of the
// run: the output, the decided mask, the n tally pairs, the k-bit heard
// mask and the assignment. The liars hold none of them. Modeled here from
// the shape alone, independently of CommitteePeer::memory_bytes.
TEST(Committee, PeerStateChargesVoteTables) {
  Scenario s;
  s.cfg = cfg(2048, 12, 0.25, 6);  // t = 3, c = 7
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = {0, 5, 11};
  const dr::RunReport report = expect_ok(s, "vote-table accounting");

  const std::uint64_t n = s.cfg.n;
  const std::uint64_t k = s.cfg.k;
  const auto words = [](std::uint64_t bits) { return (bits + 63) / 64 * 8; };
  using obs::modeled_alloc_bytes;
  const std::uint64_t per_peer =
      2 * modeled_alloc_bytes(words(n)) +                  // output, out_
      modeled_alloc_bytes(words(n)) +                      // decided_
      modeled_alloc_bytes(n * 2 * sizeof(std::uint16_t)) +  // tallies
      modeled_alloc_bytes(words(k)) +                      // heard_
      modeled_alloc_bytes(sizeof(CommitteeAssignment));
  const std::uint64_t honest = k - s.byz_ids.size();
  std::uint64_t peak = 0;
  for (const obs::MemPoolStats& pool : report.mem_pools) {
    if (pool.name == "dr.peer.state") peak = pool.peak;
  }
  EXPECT_EQ(peak, honest * per_peer);
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
