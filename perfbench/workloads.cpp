#include "workloads.hpp"

#include <algorithm>

#include "adversary/crash_plan.hpp"
#include "common/rng.hpp"

namespace perfbench {

namespace proto = asyncdr::proto;
namespace dr = asyncdr::dr;
namespace adv = asyncdr::adv;
using asyncdr::BitVec;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

dr::Config config(Shape shape, double beta, std::uint64_t seed) {
  dr::Config cfg;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.beta = beta;
  cfg.message_bits = 1024;
  cfg.seed = seed;
  return cfg;
}

proto::Scenario base(const dr::Config& cfg, std::uint64_t input_seed) {
  proto::Scenario s;
  s.cfg = cfg;
  s.input = make_input(cfg.n, input_seed);
  return s;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Bits queried in phases whose name starts with `prefix`, and how many
/// such phases queried anything.
std::pair<std::uint64_t, std::size_t> phase_bits(const dr::RunReport& report,
                                                 const char* prefix) {
  std::uint64_t bits = 0;
  std::size_t active = 0;
  for (const auto& p : report.phases) {
    if (!starts_with(p.name, prefix)) continue;
    bits += p.bits_queried;
    if (p.bits_queried > 0) ++active;
  }
  return {bits, active};
}

// ---- crash_alg2: Algorithm 2 (Thm 2.13) with n = 16k^2 ----

proto::Scenario build_crash_alg2(Shape shape, std::uint64_t seed,
                                 std::uint64_t input_seed) {
  proto::Scenario s = base(config(shape, 0.5, seed), input_seed);
  s.honest = proto::make_crash_multi();
  asyncdr::Rng rng(seed * 31 + 5);
  s.crashes = adv::CrashPlan::random(s.cfg, rng, s.cfg.max_faulty(), 10.0);
  s.latency = proto::uniform_latency(0.05, 1.0);
  return s;
}

std::string guard_crash_alg2(const dr::Config& cfg,
                             const dr::RunReport& report) {
  if (cfg.n < 4 * cfg.k * cfg.k) return "n < 4k^2: not the query-round regime";
  const auto [round_bits, rounds] = phase_bits(report, "round-");
  const std::uint64_t complete_bits = phase_bits(report, "complete").first;
  if (rounds < 2) return "fewer than two rounds queried bits";
  if (round_bits <= complete_bits) {
    return "direct completion queried as much as the rounds";
  }
  return "";
}

// ---- committee_byz: the committee protocol (Thm 3.4) against liars ----

proto::Scenario build_committee_byz(Shape shape, std::uint64_t seed,
                                    std::uint64_t input_seed) {
  proto::Scenario s = base(config(shape, 0.125, seed), input_seed);
  s.honest = proto::make_committee();
  s.byzantine =
      proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty());
  s.latency = proto::uniform_latency(0.05, 1.0);
  return s;
}

std::string guard_committee_byz(const dr::Config& cfg,
                                const dr::RunReport& report) {
  const std::size_t c = 2 * cfg.max_faulty() + 1;
  if (c > cfg.k) return "2t+1 > k: no committee fits";
  // Every peer sits on exactly c*n/k committees (round-robin assignment).
  if ((c * cfg.n) % cfg.k != 0) return "c*n/k is not whole";
  if (report.query_complexity != c * cfg.n / cfg.k) {
    return "Q != (2t+1)n/k: got " + std::to_string(report.query_complexity);
  }
  return "";
}

// ---- multicycle_byz: the multi-cycle protocol (Thm 3.12) ----

proto::Scenario build_multicycle_byz(Shape shape, std::uint64_t seed,
                                     std::uint64_t input_seed) {
  constexpr double kConcentration = 2.0;
  proto::Scenario s = base(config(shape, 0.125, seed), input_seed);
  s.honest = proto::make_multi_cycle(kConcentration);
  s.byzantine = proto::make_vote_stuffer(kConcentration, 0);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty());
  s.latency = proto::uniform_latency(0.05, 1.0);
  return s;
}

std::string guard_multicycle_byz(const dr::Config&,
                                 const dr::RunReport& report) {
  std::size_t cycles = 0;
  for (const auto& p : report.phases) {
    if (p.name == "bulk-download") return "fell back to bulk download";
    if (starts_with(p.name, "cycle-")) ++cycles;
  }
  if (cycles < 2) return "fewer than two cycles ran";
  return "";
}

}  // namespace

BitVec make_input(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::uint64_t word = 0;
  std::size_t i = 0;
  return BitVec::generate(n, [&] {
    if (i++ % 64 == 0) word = splitmix64(state);
    const bool bit = (word & 1u) != 0;
    word >>= 1;
    return bit;
  });
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // name, round length, {k, n}, self-test {k, n}
      {"crash_alg2", 4, {32, 16 * 32 * 32}, {16, 16 * 16 * 16},
       build_crash_alg2, guard_crash_alg2},
      {"committee_byz", 4, {32, 1 << 14}, {16, 1 << 11},
       build_committee_byz, guard_committee_byz},
      {"multicycle_byz", 4, {128, 1 << 14}, {64, 1 << 12},
       build_multicycle_byz, guard_multicycle_byz},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  return it == all.end() ? nullptr : &*it;
}

}  // namespace perfbench
