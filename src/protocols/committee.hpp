// Theorem 3.4: deterministic asynchronous Download under Byzantine faults
// with beta < 1/2. A committee of c = 2t+1 peers is assigned to every bit in
// round-robin order; each member queries its bits and broadcasts the values;
// every peer decides bit j on the first value reported by t+1 distinct
// members of j's committee. Since a committee has at least t+1 honest
// members and at most t Byzantine ones, the t+1 threshold is reachable only
// by the true value, and is always eventually reached.
//
// Q = (number of committees per peer) = ceil(n*c/k) ~ 2*beta*n + n/k.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "dr/peer.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Round-robin committee structure: committee of bit j is the c consecutive
/// peer IDs starting at (j*c) mod k. Equivalently, committee slot s = j*c + i
/// (position i of bit j) belongs to peer s mod k, so peer p holds the slots
/// p, p+k, p+2k, ... below n*c. Since c <= k, no two of them share a bit.
class CommitteeAssignment {
 public:
  CommitteeAssignment(std::size_t n, std::size_t k, std::size_t t);

  [[nodiscard]] std::size_t committee_size() const { return c_; }
  [[nodiscard]] std::size_t threshold() const { return t_ + 1; }

  [[nodiscard]] bool is_member(sim::PeerId p, std::size_t bit) const;
  /// Position of p within bit's committee (0..c-1). p must be a member.
  [[nodiscard]] std::size_t position(sim::PeerId p, std::size_t bit) const;
  /// Number of bits whose committee contains p (the length of its votes).
  [[nodiscard]] std::size_t load(sim::PeerId p) const;
  /// Calls fn(bit) for every bit whose committee contains p, in increasing
  /// order. O(load(p)): consecutive slots p + m*k lie q = k/c or q+1 bits
  /// apart, so the walk only adds.
  template <typename F>
  void for_each_bit(sim::PeerId p, F&& fn) const {
    const std::size_t q = k_ / c_, r = k_ % c_;
    std::size_t bit = p / c_, pos = p % c_;
    for (std::size_t m = load(p); m > 0; --m) {
      fn(bit);
      pos += r;
      bit += q;
      if (pos >= c_) {
        pos -= c_;
        ++bit;
      }
    }
  }
  /// Bits whose committee contains p, in increasing order.
  [[nodiscard]] std::vector<std::size_t> bits_of(sim::PeerId p) const;
  /// The committee of a bit, in position order.
  [[nodiscard]] std::vector<sim::PeerId> members_of(std::size_t bit) const;

 private:
  std::size_t n_, k_, t_, c_;
};

namespace committee {

/// One batched broadcast per peer: the values of every bit the sender's
/// committees cover, in increasing bit order. Receivers recompute the bit
/// list from the sender ID (the assignment is deterministic), so only the
/// values are charged.
struct Votes final : sim::Payload {
  BitVec values;

  explicit Votes(BitVec v) : values(std::move(v)) {}
  [[nodiscard]] std::size_t size_bits() const override { return values.size() + 64; }
  [[nodiscard]] std::string type_name() const override { return "committee::Votes"; }
};

}  // namespace committee

/// An honest peer of the committee protocol. Requires beta < 1/2.
class CommitteePeer final : public dr::Peer {
 public:
  struct Options {
    /// FAULT INJECTION, never set outside tests/chaos sweeps: accept a bit
    /// on t matching votes instead of t+1. The off-by-one lets a full
    /// Byzantine coalition inside one committee outvote the honest members
    /// — exactly the class of bug the chaos sweep must catch and shrink.
    bool buggy_vote_threshold = false;
  };

  CommitteePeer() = default;
  explicit CommitteePeer(Options opts) : opts_(opts) {}

  void on_start() override;
  [[nodiscard]] std::string status() const override;
  /// Output plus the vote books: the decided mask, the per-bit tally pairs
  /// and the k-bit heard_ mask.
  [[nodiscard]] std::size_t memory_bytes() const override;

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void init();
  void process_votes(sim::PeerId from, const committee::Votes& votes);
  void decide(std::size_t bit, bool value);
  void maybe_finish();
  [[nodiscard]] std::size_t accept_threshold() const;

  Options opts_;
  std::unique_ptr<CommitteeAssignment> assignment_;
  BitVec out_;
  std::vector<bool> decided_;
  std::size_t decided_count_ = 0;
  // Per bit: votes received for value 0 / value 1 from distinct members.
  // A count never exceeds c, which init() checks fits in 16 bits.
  std::vector<std::array<std::uint16_t, 2>> tally_;
  // Per sender: its votes were counted. A well-formed Votes covers every
  // bit of its sender at once, so one bit per sender dedups all of them.
  std::vector<bool> heard_;
  bool started_ = false;
  // Termination is gated on having broadcast my own votes: an honest member
  // that finished early but silently would strand other peers below the
  // t+1 threshold.
  bool votes_sent_ = false;
};

}  // namespace asyncdr::proto
