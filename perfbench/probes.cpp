#include "probes.hpp"

#include <sys/resource.h>

#include <fstream>
#include <numeric>
#include <string>
#include <typeinfo>

#include "protocols/byz2cycle.hpp"
#include "protocols/committee.hpp"
#include "protocols/crash_multi.hpp"

namespace perfbench {

namespace sim = asyncdr::sim;
namespace proto = asyncdr::proto;

void TrafficTally::on_send(const sim::Message& msg, std::size_t unit_messages) {
  ++sends;
  if (msg.from != last_from_ || msg.payload.get() != last_body_) ++send_ops;
  last_from_ = msg.from;
  last_body_ = msg.payload.get();
  if (!faulty_[msg.from]) nonfaulty_units += unit_messages;
}

void TrafficTally::on_deliver(const sim::Message&) { ++deliveries; }

double HandlerClock::total_seconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

namespace {

PayloadKind kind_of(const std::type_info& type) {
  if (type == typeid(proto::crashm::Req1)) return kReq1;
  if (type == typeid(proto::crashm::Resp1)) return kResp1;
  if (type == typeid(proto::crashm::Req2)) return kReq2;
  if (type == typeid(proto::crashm::Resp2)) return kResp2;
  if (type == typeid(proto::committee::Votes)) return kVotes;
  if (type == typeid(proto::rnd::Report)) return kReport;
  return kOther;
}

class TimedReceiver final : public sim::Receiver {
 public:
  TimedReceiver(asyncdr::dr::Peer& peer, HandlerClock& clock)
      : peer_(peer), clock_(clock) {}

  void deliver(const sim::Message& msg) override {
    ++clock_.calls;
    if (peer_.terminated()) {
      peer_.deliver(msg);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    peer_.deliver(msg);
    const double dt = seconds_since(t0);
    const std::type_info& type = typeid(*msg.payload);
    if (&type != last_type_) {
      last_type_ = &type;
      last_kind_ = kind_of(type);
    }
    clock_.seconds[last_kind_] += dt;
  }

 private:
  asyncdr::dr::Peer& peer_;
  HandlerClock& clock_;
  const std::type_info* last_type_ = nullptr;
  PayloadKind last_kind_ = kOther;
};

std::uint64_t status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

}  // namespace

std::vector<std::unique_ptr<sim::Receiver>> attach_handler_timers(
    asyncdr::dr::World& world, HandlerClock& clock) {
  std::vector<std::unique_ptr<sim::Receiver>> receivers;
  receivers.reserve(world.config().k);
  for (sim::PeerId id = 0; id < world.config().k; ++id) {
    receivers.push_back(std::make_unique<TimedReceiver>(world.peer(id), clock));
    world.network().attach(id, receivers.back().get());
  }
  return receivers;
}

std::uint64_t current_rss_bytes() { return status_kib("VmRSS") * 1024; }

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace perfbench
