#include "dr/world.hpp"
#include "protocols/committee.hpp"

#include <sstream>

#include "common/check.hpp"
#include "obs/mem.hpp"

namespace asyncdr::proto {

CommitteeAssignment::CommitteeAssignment(std::size_t n, std::size_t k,
                                         std::size_t t)
    : n_(n), k_(k), t_(t), c_(2 * t + 1) {
  ASYNCDR_EXPECTS_MSG(c_ <= k_,
                      "committee protocol needs beta < 1/2 (2t+1 <= k)");
}

bool CommitteeAssignment::is_member(sim::PeerId p, std::size_t bit) const {
  ASYNCDR_EXPECTS(p < k_ && bit < n_);
  return ((p + k_ - (bit * c_) % k_) % k_) < c_;
}

std::size_t CommitteeAssignment::position(sim::PeerId p, std::size_t bit) const {
  ASYNCDR_EXPECTS(is_member(p, bit));
  return (p + k_ - (bit * c_) % k_) % k_;
}

std::size_t CommitteeAssignment::load(sim::PeerId p) const {
  ASYNCDR_EXPECTS(p < k_);
  const std::size_t slots = n_ * c_;
  return p < slots ? (slots - 1 - p) / k_ + 1 : 0;
}

std::vector<std::size_t> CommitteeAssignment::bits_of(sim::PeerId p) const {
  std::vector<std::size_t> bits;
  bits.reserve(load(p));
  for_each_bit(p, [&](std::size_t bit) { bits.push_back(bit); });
  return bits;
}

std::vector<sim::PeerId> CommitteeAssignment::members_of(std::size_t bit) const {
  ASYNCDR_EXPECTS(bit < n_);
  std::vector<sim::PeerId> members;
  members.reserve(c_);
  for (std::size_t i = 0; i < c_; ++i) members.push_back((bit * c_ + i) % k_);
  return members;
}

void CommitteePeer::on_start() {
  init();
  begin_phase("committee-query+vote");
  // Query every bit of my committees; my own queries are ground truth, so
  // those bits decide immediately.
  const std::vector<std::size_t> mine = assignment_->bits_of(id());
  const BitVec values = query_indices(mine);
  for (std::size_t j = 0; j < mine.size(); ++j) {
    decide(mine[j], values.get(j));
  }
  broadcast(std::make_shared<committee::Votes>(values));
  votes_sent_ = true;
  begin_phase("vote-collection");
  maybe_finish();
}

void CommitteePeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  const auto* votes = sim::payload_as<committee::Votes>(payload);
  if (votes == nullptr) return;  // foreign/garbage payload: ignore
  init();
  process_votes(from, *votes);
  maybe_finish();
}

void CommitteePeer::init() {
  if (started_) return;
  started_ = true;
  const std::size_t t = world().config().max_faulty();
  assignment_ = std::make_unique<CommitteeAssignment>(n(), k(), t);
  out_ = BitVec(n());
  decided_.assign(n(), false);
  ASYNCDR_EXPECTS_MSG(assignment_->committee_size() <= UINT16_MAX,
                      "committee vote tallies are 16-bit (2t+1 <= 65535)");
  tally_.assign(n(), {0, 0});
  heard_.assign(k(), false);
}

void CommitteePeer::process_votes(sim::PeerId from,
                                  const committee::Votes& votes) {
  if (from >= k() || heard_[from]) return;  // repeats add no vote
  // A malformed (wrong-length) vote vector can only come from a Byzantine
  // sender; drop it entirely, leaving the sender's well-formed votes open.
  if (votes.values.size() != assignment_->load(from)) return;
  heard_[from] = true;

  // Decided bits are tallied too: a bit decides when a count first reaches
  // the threshold, and decide() ignores any later crossing, so the loop
  // needs no branch on decided_.
  const std::size_t threshold = accept_threshold();
  std::size_t j = 0;
  assignment_->for_each_bit(from, [&](std::size_t bit) {
    const bool value = votes.values.get(j++);
    if (++tally_[bit][value] == threshold) decide(bit, value);
  });
}

std::size_t CommitteePeer::memory_bytes() const {
  using obs::modeled_alloc_bytes;
  // vector<bool> stores its bits in 64-bit words.
  const auto bit_bytes = [](const std::vector<bool>& v) -> std::uint64_t {
    return (v.capacity() + 63) / 64 * 8;
  };
  std::uint64_t bytes = dr::Peer::memory_bytes();
  if (assignment_ != nullptr) {
    bytes += modeled_alloc_bytes(sizeof(CommitteeAssignment));
  }
  bytes += modeled_alloc_bytes(out_.memory_bytes());
  bytes += modeled_alloc_bytes(bit_bytes(decided_));
  bytes += modeled_alloc_bytes(tally_.capacity() * sizeof(tally_[0]));
  bytes += modeled_alloc_bytes(bit_bytes(heard_));
  return static_cast<std::size_t>(bytes);
}

std::size_t CommitteePeer::accept_threshold() const {
  const std::size_t threshold = assignment_->threshold();
  // The injected off-by-one: t votes suffice, so t colluding liars can
  // decide a bit. Guarded so the bug cannot fire accidentally.
  if (opts_.buggy_vote_threshold && threshold > 1) return threshold - 1;
  return threshold;
}

std::string CommitteePeer::status() const {
  if (terminated()) return "terminated";
  if (!started_) return "not started";
  std::ostringstream os;
  os << "decided " << decided_count_ << "/" << n() << " bits, votes "
     << (votes_sent_ ? "sent" : "NOT sent")
     << "; waiting for committee votes on the undecided bits";
  return os.str();
}

void CommitteePeer::decide(std::size_t bit, bool value) {
  if (decided_[bit]) return;
  decided_[bit] = true;
  ++decided_count_;
  out_.set(bit, value);
}

void CommitteePeer::maybe_finish() {
  if (!terminated() && votes_sent_ && decided_count_ == n()) finish(out_);
}

}  // namespace asyncdr::proto
