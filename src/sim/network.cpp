#include "sim/network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/check.hpp"

namespace asyncdr::sim {

LatencyPolicy::~LatencyPolicy() = default;
Receiver::~Receiver() = default;
NetworkObserver::~NetworkObserver() = default;
DeliveryStressor::~DeliveryStressor() = default;
void NetworkObserver::on_send(const Message&, std::size_t) {}
void NetworkObserver::on_deliver(const Message&) {}
void NetworkObserver::on_drop(const Message&) {}

FixedLatency::FixedLatency(Time delay) : delay_(delay) {
  ASYNCDR_EXPECTS(delay > 0 && delay <= 1.0);
}

Time FixedLatency::propagation(const Message&) { return delay_; }

Network::Network(Engine& engine, std::size_t k, std::size_t message_size_bits)
    : engine_(engine),
      k_(k),
      message_size_bits_(message_size_bits),
      receivers_(k, nullptr),
      crashed_(k, false),
      revived_at_(k, -1.0),
      sender_links_(k, SenderLinks(LinkAlloc(&links_pool_))),
      sent_units_(k, 0),
      sent_payloads_(k, 0),
      last_send_at_(k, -1.0),
      last_delivery_at_(k, -1.0),
      latency_(std::make_unique<FixedLatency>(1.0)) {
  ASYNCDR_EXPECTS(k >= 2);
  ASYNCDR_EXPECTS(message_size_bits >= 1);
}

Network::~Network() {
  // Teardown audit (cannot throw from a destructor): every in-flight copy
  // must hold exactly one bank reference, and a bank entry with no copy
  // left in flight is an unexplained leak. A run cut off mid-flight (stall
  // cutoff, event budget, copies addressed to permanently-crashed peers)
  // legitimately dies with live entries — but refs == in-flight still
  // holds, so the audit passes exactly when every residual is explained.
  if (bank_.live_refs() != total_in_flight_ ||
      (total_in_flight_ == 0 && bank_.live_payloads() != 0)) {
    // asyncdr-sema: allow(SA001) abort-path diagnostics only: this prints
    //   and dies; no simulation output can depend on it.
    std::fprintf(
        stderr,
        "asyncdr: Network teardown audit failed: payload bank holds %llu "
        "refs over %llu bodies but %llu copies are in flight\n",
        static_cast<unsigned long long>(bank_.live_refs()),
        static_cast<unsigned long long>(bank_.live_payloads()),
        static_cast<unsigned long long>(total_in_flight_));
    std::abort();
  }
}

void Network::set_mem_pools(obs::MemPool* links, obs::MemPool* fanout,
                            obs::MemPool* payloads) {
  links_pool_ = links;
  fanout_pool_ = fanout;
  bank_.set_pool(payloads);
  // Restart base accounting from zero so the full current footprint is
  // charged to the freshly wired pool (earlier settles ran poolless).
  links_base_recorded_ = 0;
  settle_links_base();
}

void Network::settle_links_base() {
  const std::uint64_t modeled =
      obs::modeled_alloc_bytes(sender_links_.capacity() * sizeof(SenderLinks));
  obs::settle_component(links_pool_, links_base_recorded_, modeled);
}

void Network::attach(PeerId id, Receiver* receiver) {
  ASYNCDR_EXPECTS(id < k_);
  ASYNCDR_EXPECTS(receiver != nullptr);
  receivers_[id] = receiver;
}

void Network::set_latency_policy(std::unique_ptr<LatencyPolicy> policy) {
  ASYNCDR_EXPECTS(policy != nullptr);
  latency_ = std::move(policy);
}

void Network::set_observer(NetworkObserver* observer) { observer_ = observer; }

void Network::set_delivery_stressor(std::unique_ptr<DeliveryStressor> stressor) {
  stressor_ = std::move(stressor);
}

void Network::set_pre_send_hook(PreSendHook hook) {
  pre_send_hook_ = std::move(hook);
}

std::size_t Network::unit_messages(const Payload& payload) const {
  const std::size_t bits = payload.size_bits();
  return std::max<std::size_t>(1, (bits + message_size_bits_ - 1) / message_size_bits_);
}

bool Network::pass_pre_send(const Message& msg) {
  if (!pre_send_hook_) return true;
  pre_send_hook_(msg);
  // The hook may have crashed the sender; the send is then lost, which is
  // exactly the "crashed mid-operation" semantics of the paper's model. A
  // message that was never sent consumes no id and reaches no observer —
  // otherwise the causal DAG would see link edges for phantom sends.
  return !crashed_[msg.from];
}

void Network::account_send(const Message& msg, std::size_t units) {
  sent_units_[msg.from] += units;
  sent_payloads_[msg.from] += 1;
  last_send_at_[msg.from] = engine_.now();
  if (observer_) observer_->on_send(msg, units);
}

Time Network::reserve_link(const Message& msg, std::size_t units) {
  // Link serialization: one unit message per directed link per time unit.
  Link& l = link(msg.from, msg.to);
  const Time departure = std::max(engine_.now(), l.next_free);
  l.next_free = departure + static_cast<Time>(units);
  l.used = true;
  const Time transmission = static_cast<Time>(units - 1);
  return departure + transmission + latency_->propagation(msg);
}

void Network::finish_delivery(const Message& msg) {
  // The revive gate: a copy sent strictly before the recipient's latest
  // revival belonged to the dead incarnation's inbox and stays lost (see
  // revive()); an on_restart-time send at now == revived_at goes through.
  if (crashed_[msg.to] || receivers_[msg.to] == nullptr ||
      msg.sent_at < revived_at_[msg.to]) {
    if (observer_) observer_->on_drop(msg);
    return;
  }
  ++total_deliveries_;
  last_delivery_at_[msg.to] = engine_.now();
  if (observer_) observer_->on_deliver(msg);
  receivers_[msg.to]->deliver(msg);
}

void Network::deliver_or_drop(const Message& msg) {
  --link(msg.from, msg.to).in_flight;
  --total_in_flight_;
  bank_.credit(msg.payload.get(), 1);
  finish_delivery(msg);
}

void Network::deliver_bucket(PeerId from, const PayloadPtr& payload,
                             Time sent_at, const SpanList& spans) {
  std::uint64_t copies = 0;
  for (const FanoutSpan& s : spans) copies += s.count;

  // Settle link state before any receiver runs: deliveries below may send
  // new traffic, and reservations must already reflect these arrivals.
  SenderLinks& sl = sender_links_[from];
  std::uint64_t shared_members = 0;
  if (sl.exceptions.empty()) {
    shared_members = copies;  // every member is in the shared class
  } else {
    for (const FanoutSpan& s : spans) {
      for (std::uint64_t j = 0; j < s.count; ++j) {
        const auto it = sl.exceptions.find(s.to_first + j);
        if (it == sl.exceptions.end()) {
          ++shared_members;
        } else {
          --it->second.in_flight;
        }
      }
    }
  }
  if (shared_members > 0) {
    // Only the fast broadcast path produces shared members, and it buckets
    // each recipient at most once — so the members seen here are distinct.
    ASYNCDR_INVARIANT(sl.shared.in_flight > 0);
    const std::size_t non_self_exceptions =
        sl.exceptions.size() -
        (sl.exceptions.find(from) != sl.exceptions.end() ? 1 : 0);
    if (shared_members == k_ - 1 - non_self_exceptions) {
      // The bucket settles one copy on EVERY shared link at once (the
      // fault-free FixedLatency schedule): one decrement covers them all.
      --sl.shared.in_flight;
    } else {
      // Partial settle: the members fall out of step with the rest of the
      // shared class. Materialize them as exceptions that already settled
      // this copy; the class keeps its count for the links left behind.
      for (const FanoutSpan& s : spans) {
        for (std::uint64_t j = 0; j < s.count; ++j) {
          const PeerId to = s.to_first + j;
          if (sl.exceptions.find(to) == sl.exceptions.end()) {
            sl.exceptions.emplace(to, Link{sl.shared.next_free,
                                           sl.shared.in_flight - 1,
                                           sl.shared.used});
          }
        }
      }
    }
  }
  total_in_flight_ -= copies;
  bank_.credit(payload.get(), copies);

  // Deliveries in span order = recipient-ID order within the bucket.
  // Crash state is re-checked per entry at delivery time (an earlier
  // entry's receiver may crash a later entry's), exactly as if each copy
  // were its own event.
  Message msg{from, kNoPeer, payload, sent_at, 0};
  for (const FanoutSpan& s : spans) {
    for (std::uint64_t j = 0; j < s.count; ++j) {
      msg.to = s.to_first + j;
      msg.id = s.id_first + j;
      finish_delivery(msg);
    }
  }
}

void Network::send(PeerId from, PeerId to, PayloadPtr payload) {
  ASYNCDR_EXPECTS(from < k_ && to < k_);
  ASYNCDR_EXPECTS(payload != nullptr);
  if (crashed_[from]) return;
  payload = bank_.intern(std::move(payload));

  Message msg{from, to, std::move(payload), engine_.now(), next_message_id_};
  if (!pass_pre_send(msg)) return;
  ++next_message_id_;

  const std::size_t units = unit_messages(*msg.payload);
  account_send(msg, units);
  const Time arrival = reserve_link(msg, units);

  // A beyond-model stressor may replicate the delivery and/or hold copies
  // past the scheduled arrival. In-model runs take the single-copy path.
  const std::size_t copies =
      stressor_ ? std::max<std::size_t>(1, stressor_->copies(msg)) : 1;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    Time at = arrival;
    if (stressor_) {
      const Time extra = stressor_->extra_delay(msg, copy);
      ASYNCDR_EXPECTS_MSG(extra >= 0, "stressor extra delay must be >= 0");
      at += extra;
    }
    ++link(from, msg.to).in_flight;
    ++total_in_flight_;
    bank_.charge(msg.payload, 1);
    engine_.schedule_at(at, [this, msg]() { deliver_or_drop(msg); });
  }
}

void Network::broadcast(PeerId from, PayloadPtr payload) {
  ASYNCDR_EXPECTS(from < k_);
  ASYNCDR_EXPECTS(payload != nullptr);
  if (crashed_[from]) return;
  payload = bank_.intern(std::move(payload));
  const Time sent_at = engine_.now();
  const std::size_t units = unit_messages(*payload);

  // Bucket the fan-out by arrival time: recipients (and stressor copies)
  // landing at the same instant share ONE scheduled event that delivers to
  // each in turn. Per-recipient semantics are those of k-1 individual
  // sends — the pre-send hook, accounting, link reservation, and stressor
  // sampling all run per recipient in increasing ID order — so only the
  // engine's event count shrinks.
  //
  // Fast path (no hook, no stressor): every non-exception link shares an
  // identical reservation history, so the whole wave departs at one
  // precomputed instant and the shared Link advances ONCE after the loop —
  // O(1) link state for a k-wide broadcast. A hook or stressor makes
  // per-recipient outcomes diverge, so that path reserves each link
  // individually (materializing exceptions), exactly like send().
  std::map<Time, SpanList> buckets;
  const auto append_span = [](SpanList& spans, PeerId to, std::uint64_t id) {
    if (!spans.empty()) {
      FanoutSpan& last = spans.back();
      if (last.to_first + last.count == to && last.id_first + last.count == id) {
        ++last.count;
        return;
      }
    }
    spans.push_back(FanoutSpan{to, id, 1});
  };

  SenderLinks& sl = sender_links_[from];
  const bool fast = !pre_send_hook_ && stressor_ == nullptr;
  const Time shared_departure = std::max(sent_at, sl.shared.next_free);
  bool any_shared = false;

  for (PeerId to = 0; to < k_; ++to) {
    if (to == from) continue;
    // pass_pre_send returning false means the hook crashed the sender:
    // the remaining recipients never get their sends (died mid-broadcast),
    // but already-buffered deliveries below still go out.
    Message msg{from, to, payload, sent_at, next_message_id_};
    if (!pass_pre_send(msg)) break;
    ++next_message_id_;
    account_send(msg, units);

    if (fast) {
      const auto it = sl.exceptions.find(to);
      Time arrival;
      if (it == sl.exceptions.end()) {
        any_shared = true;
        arrival = shared_departure + static_cast<Time>(units - 1) +
                  latency_->propagation(msg);
      } else {
        Link& l = it->second;
        const Time departure = std::max(sent_at, l.next_free);
        l.next_free = departure + static_cast<Time>(units);
        l.used = true;
        ++l.in_flight;
        arrival = departure + static_cast<Time>(units - 1) +
                  latency_->propagation(msg);
      }
      ++total_in_flight_;
      bank_.charge(payload, 1);
      append_span(buckets[arrival], to, msg.id);
      continue;
    }

    const Time arrival = reserve_link(msg, units);
    const std::size_t copies =
        stressor_ ? std::max<std::size_t>(1, stressor_->copies(msg)) : 1;
    for (std::size_t copy = 0; copy < copies; ++copy) {
      Time at = arrival;
      if (stressor_) {
        const Time extra = stressor_->extra_delay(msg, copy);
        ASYNCDR_EXPECTS_MSG(extra >= 0, "stressor extra delay must be >= 0");
        at += extra;
      }
      ++link(from, to).in_flight;
      ++total_in_flight_;
      bank_.charge(payload, 1);
      append_span(buckets[at], to, msg.id);
    }
  }

  if (fast && any_shared) {
    sl.shared.next_free = shared_departure + static_cast<Time>(units);
    sl.shared.used = true;
    ++sl.shared.in_flight;
  }

  for (auto& [at, bucket] : buckets) {
    // The span buffer's modeled bytes are charged to the fanout pool for
    // its in-flight lifetime; the bucket event credits them back from the
    // capacity it actually carried (vector move preserves capacity, so
    // charge and credit agree byte-for-byte). The credit runs inside the
    // existing closure — adding a capture would push it past
    // InlineAction's 64-byte inline buffer.
    if (fanout_pool_ != nullptr) {
      fanout_pool_->add(obs::modeled_alloc_bytes(
          bucket.capacity() * sizeof(FanoutSpan)));
    }
    engine_.schedule_at(
        at, [this, from, payload, sent_at, spans = std::move(bucket)]() {
          deliver_bucket(from, payload, sent_at, spans);
          if (fanout_pool_ != nullptr) {
            fanout_pool_->sub(obs::modeled_alloc_bytes(
                spans.capacity() * sizeof(FanoutSpan)));
          }
        });
  }
}

void Network::crash(PeerId id) {
  ASYNCDR_EXPECTS(id < k_);
  crashed_[id] = true;
}

void Network::revive(PeerId id) {
  ASYNCDR_EXPECTS(id < k_);
  crashed_[id] = false;
  revived_at_[id] = engine_.now();
  // Clear the dead incarnation's OUTGOING bandwidth reservations: the
  // fresh incarnation's first sends must not queue behind ghost traffic
  // from before the crash. In-flight counters stay untouched — copies the
  // dead peer did get out still settle normally at arrival — and incoming
  // links are untouched too (their senders really transmitted; the revive
  // gate in finish_delivery is what keeps stale mail out).
  SenderLinks& sl = sender_links_[id];
  sl.shared.next_free = 0;
  // asyncdr-sema: allow(SA002) unordered visit writes the same constant
  //   into independent per-link fields; no output depends on the order.
  for (auto& [to, l] : sl.exceptions) l.next_free = 0;
}

bool Network::is_crashed(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return crashed_[id];
}

std::size_t Network::crashed_count() const {
  return static_cast<std::size_t>(
      std::count(crashed_.begin(), crashed_.end(), true));
}

std::uint64_t Network::sent_units(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return sent_units_[id];
}

std::uint64_t Network::sent_payloads(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return sent_payloads_[id];
}

std::uint64_t Network::in_flight(PeerId from, PeerId to) const {
  ASYNCDR_EXPECTS(from < k_ && to < k_);
  const SenderLinks& sl = sender_links_[from];
  const auto it = sl.exceptions.find(to);
  if (it != sl.exceptions.end()) return it->second.in_flight;
  // The shared class never includes the self link (broadcasts skip self).
  return to == from ? 0 : sl.shared.in_flight;
}

std::size_t Network::active_links() const {
  std::size_t total = 0;
  for (PeerId from = 0; from < k_; ++from) {
    const SenderLinks& sl = sender_links_[from];
    if (sl.shared.used) {
      // A used shared Link means every non-exception recipient link has
      // carried traffic, and exceptions split off WITH that history — so
      // all k-1 peer links count. A self-send exception adds from->from.
      total += (k_ - 1) +
               (sl.exceptions.find(from) != sl.exceptions.end() ? 1 : 0);
    } else {
      // Only individually-reserved links ever carried traffic.
      total += sl.exceptions.size();
    }
  }
  return total;
}

std::vector<Network::BusyLink> Network::busy_links() const {
  std::vector<BusyLink> busy;
  for (PeerId from = 0; from < k_; ++from) {
    const SenderLinks& sl = sender_links_[from];
    if (sl.shared.in_flight == 0 && sl.exceptions.empty()) continue;
    if (sl.shared.in_flight > 0) {
      // Part of the sender's link state is implicit in the shared Link:
      // walk every recipient in ID order and resolve each.
      for (PeerId to = 0; to < k_; ++to) {
        const auto it = sl.exceptions.find(to);
        std::uint64_t inflight = 0;
        if (it != sl.exceptions.end()) {
          inflight = it->second.in_flight;
        } else if (to != from) {
          inflight = sl.shared.in_flight;
        }
        if (inflight > 0) busy.push_back({from, to, inflight});
      }
      continue;
    }
    // asyncdr-sema: allow(SA002) hash-order iteration only collects an
    //   unordered set of busy links; the sort below restores the canonical
    //   (from, to) order before callers see it.
    for (const auto& [to, l] : sl.exceptions) {
      if (l.in_flight > 0) busy.push_back({from, to, l.in_flight});
    }
  }
  // Collection order is unspecified per sender; sort for the deterministic
  // (from, to) order.
  std::sort(busy.begin(), busy.end(), [](const BusyLink& a, const BusyLink& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  return busy;
}

Time Network::last_send_at(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return last_send_at_[id];
}

Time Network::last_delivery_at(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return last_delivery_at_[id];
}

Network::Link& Network::link(PeerId from, PeerId to) {
  SenderLinks& sl = sender_links_[from];
  // Individual access diverges the link from the broadcast class: seed the
  // exception with the shared snapshot (identical history up to now). The
  // self link never belonged to the class, so it starts fresh.
  return sl.exceptions.try_emplace(to, to == from ? Link{} : sl.shared)
      .first->second;
}

}  // namespace asyncdr::sim
