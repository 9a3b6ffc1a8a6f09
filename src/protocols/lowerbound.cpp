#include "protocols/lowerbound.hpp"

#include <algorithm>

#include "adversary/latency.hpp"
#include "common/check.hpp"

namespace asyncdr::proto {

namespace {

struct Coalitions {
  sim::PeerId victim;
  std::vector<sim::PeerId> corrupted;  // B, size t
  std::vector<sim::PeerId> delayed;    // S, size k - t - 1 (honest but slow)
};

Coalitions split_coalitions(const dr::Config& cfg) {
  const std::size_t t = cfg.max_faulty();
  ASYNCDR_EXPECTS_MSG(
      2 * t + 1 >= cfg.k,
      "majority attack needs t >= (k-1)/2 so B + victim covers any quorum");
  Coalitions c;
  c.victim = 0;
  for (sim::PeerId id = 1; id <= t; ++id) c.corrupted.push_back(id);
  for (sim::PeerId id = t + 1; id < cfg.k; ++id) c.delayed.push_back(id);
  return c;
}

/// First index of [0, n) not contained in `queried`; nullopt if full.
std::optional<std::size_t> first_unqueried(const IntervalSet& queried,
                                           std::size_t n) {
  std::size_t at = 0;
  for (const Interval& iv : queried.intervals()) {
    if (iv.lo > at) return at;
    at = std::max(at, iv.hi);
  }
  return at < n ? std::optional<std::size_t>(at) : std::nullopt;
}

/// Builds and runs the two-world attack execution: input X' (truth), the
/// corrupted coalition simulating input X via source overlays, the honest
/// group S slowed beyond the victim's horizon.
dr::RunReport run_attack_world(const dr::Config& cfg, const BitVec& x_prime,
                               const BitVec& x_fake,
                               const Coalitions& coalitions,
                               const PeerFactory& honest, sim::Time slow) {
  dr::World world(cfg, x_prime);
  // asyncdr-sema: allow(DR003) Theorem 3.1/3.2 adversary: index recording and
  // the per-peer overlay ARE the two-world construction; queries stay
  // accounted.
  world.source().enable_index_recording(true);
  for (sim::PeerId id = 0; id < cfg.k; ++id) {
    world.set_peer(id, honest(cfg, id));
  }
  for (sim::PeerId b : coalitions.corrupted) {
    world.mark_faulty(b);
    // asyncdr-sema: allow(DR003) corrupted coalition runs honest code against
    // the other world's input (still query-accounted).
    world.source().set_overlay(b, x_fake);
  }
  world.network().set_latency_policy(std::make_unique<adv::SenderDelayLatency>(
      std::unordered_set<sim::PeerId>(coalitions.delayed.begin(),
                                      coalitions.delayed.end()),
      slow, 0.5));
  return world.run();
}

}  // namespace

DetAttackResult run_deterministic_majority_attack(const dr::Config& cfg,
                                                  const PeerFactory& honest) {
  const Coalitions coalitions = split_coalitions(cfg);
  DetAttackResult result;
  result.victim = coalitions.victim;

  const BitVec x = random_input(cfg.n, cfg.seed);

  // ---- Probe execution E_S: S silent from the start, input X. ----
  sim::Time probe_horizon = 0;
  {
    dr::World probe(cfg, x);
    // asyncdr-sema: allow(DR003) probe execution records indices to find a
    // bit the victim never queried; accounting is untouched.
    probe.source().enable_index_recording(true);
    for (sim::PeerId id = 0; id < cfg.k; ++id) probe.set_peer(id, honest(cfg, id));
    for (sim::PeerId s : coalitions.delayed) probe.schedule_crash_at(s, 0.0);
    probe.network().set_latency_policy(std::make_unique<sim::FixedLatency>(0.5));
    const dr::RunReport report = probe.run();

    const dr::Peer& victim = probe.peer(coalitions.victim);
    if (!victim.terminated()) {
      result.detail = "victim did not terminate in the probe (protocol is "
                      "S-vulnerable; Download already fails)";
      result.attackable = true;
      result.succeeded = true;  // non-termination is already a failure
      return result;
    }
    probe_horizon = victim.termination_time();
    result.victim_probe_queries = report.per_peer_queries[coalitions.victim];
    const auto bit = first_unqueried(
        probe.source().queried_indices(coalitions.victim), cfg.n);
    if (!bit) {
      result.detail = "victim queried every bit (Q = n): not attackable — "
                      "the Theorem 3.1 bound is tight";
      return result;
    }
    result.planted_bit = *bit;
    result.attackable = true;
  }

  // ---- Attack execution: input X' (flipped at i*), B simulates X. ----
  BitVec x_prime = x;
  x_prime.flip(result.planted_bit);
  const sim::Time slow = probe_horizon * 4 + 1000.0;
  const dr::RunReport attack =
      run_attack_world(cfg, x_prime, x, coalitions, honest, slow);

  result.victim_terminated =
      attack.outputs[coalitions.victim].size() == cfg.n;
  if (result.victim_terminated) {
    const bool victim_value =
        attack.outputs[coalitions.victim].get(result.planted_bit);
    result.succeeded = victim_value == x.get(result.planted_bit);
    result.detail = result.succeeded
                        ? "victim adopted the simulated world's value"
                        : "victim got the planted bit right";
  } else {
    // The victim hung: also a Download failure (termination violated).
    result.succeeded = true;
    result.detail = "victim did not terminate under the attack";
  }
  return result;
}

double RandAttackStats::predicted_floor(std::size_t n) const {
  if (n == 0) return 0.0;
  return std::max(0.0, 1.0 - mean_victim_queries / static_cast<double>(n));
}

RandAttackStats run_randomized_majority_attack(const dr::Config& cfg,
                                               const PeerFactory& honest,
                                               std::size_t trials) {
  const Coalitions coalitions = split_coalitions(cfg);
  RandAttackStats stats;
  stats.trials = trials;
  double total_queries = 0;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    dr::Config trial_cfg = cfg;
    trial_cfg.seed = cfg.seed + 7717 * (trial + 1);
    Rng rng = Rng(trial_cfg.seed).split(0xa77ac4ull);

    const BitVec x = random_input(trial_cfg.n, trial_cfg.seed);
    const auto planted = static_cast<std::size_t>(rng.below(trial_cfg.n));
    BitVec x_prime = x;
    x_prime.flip(planted);

    const dr::RunReport attack = run_attack_world(
        trial_cfg, x_prime, x, coalitions, honest, /*slow=*/100000.0);

    total_queries +=
        static_cast<double>(attack.per_peer_queries[coalitions.victim]);
    if (attack.outputs[coalitions.victim].size() != trial_cfg.n) {
      ++stats.victim_unterminated;
      ++stats.succeeded;  // non-termination is a Download failure too
    } else if (attack.outputs[coalitions.victim].get(planted) ==
               x.get(planted)) {
      ++stats.succeeded;
    }
  }
  stats.mean_victim_queries =
      trials == 0 ? 0.0 : total_queries / static_cast<double>(trials);
  return stats;
}

}  // namespace asyncdr::proto
