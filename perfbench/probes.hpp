// Measurement probes the benchmark installs on a World through its public
// hooks. None of them changes what the program does; each one counts or
// times what crosses one layer boundary.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dr/peer.hpp"
#include "dr/world.hpp"
#include "sim/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Counts network traffic from the World's observer fan-out: every send
/// copy, the unit messages nonfaulty senders spent (the benchmark's own
/// tally of M), deliveries, and send operations (a broadcast's copies
/// arrive as consecutive on_send calls with one sender and one body).
class TrafficTally final : public asyncdr::sim::NetworkObserver {
 public:
  explicit TrafficTally(std::vector<bool> faulty)
      : faulty_(std::move(faulty)) {}

  void on_send(const asyncdr::sim::Message& msg,
               std::size_t unit_messages) override;
  void on_deliver(const asyncdr::sim::Message& msg) override;

  std::uint64_t sends = 0;
  std::uint64_t send_ops = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t nonfaulty_units = 0;

 private:
  std::vector<bool> faulty_;
  asyncdr::sim::PeerId last_from_ = asyncdr::sim::kNoPeer;
  const asyncdr::sim::Payload* last_body_ = nullptr;
};

/// The payload types the handler timer tells apart; anything else is
/// charged to kOther.
enum PayloadKind : std::size_t {
  kReq1, kResp1, kReq2, kResp2, kVotes, kReport, kOther, kPayloadKinds
};
inline constexpr std::array<const char*, kPayloadKinds> kPayloadKindNames = {
    "Req1", "Resp1", "Req2", "Resp2", "Votes", "Report", "other"};

/// Inclusive wall time inside Peer::deliver, per payload kind. Calls to a
/// terminated peer return at once and are counted but not timed, so the
/// timer adds no clock reads where the handlers are bypassed.
struct HandlerClock {
  std::uint64_t calls = 0;
  std::array<double, kPayloadKinds> seconds{};

  [[nodiscard]] double total_seconds() const;
};

/// Reattaches every peer of `world` behind a timing sim::Receiver. The
/// returned receivers must outlive the world's run.
std::vector<std::unique_ptr<asyncdr::sim::Receiver>> attach_handler_timers(
    asyncdr::dr::World& world, HandlerClock& clock);

/// Resident set size of this process now, and its high-water mark, in
/// bytes (0 if unreadable).
std::uint64_t current_rss_bytes();
std::uint64_t peak_rss_bytes();

}  // namespace perfbench
