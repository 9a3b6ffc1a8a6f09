// Byzantine experiments: E3/E4 (the majority lower bounds, Thms 3.1, 3.2),
// E5 (the committee protocol, Thm 3.4), E6/E7 (the randomized protocols,
// Thms 3.7, 3.12) and F3 (decision-tree resolution cost, Protocol 3).
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "driver.hpp"
#include "protocols/decision_tree.hpp"
#include "protocols/lowerbound.hpp"

namespace asyncdr::bench {

using proto::CommitteeLiarPeer;
using proto::PeerFactory;
using proto::RandParams;

namespace {

double flag(bool b) { return b ? 1.0 : 0.0; }

/// Queries `determine` spends resolving `truth` in `tree`, and whether it
/// resolved to it.
std::pair<std::size_t, bool> resolve(const proto::DecisionTree& tree,
                                     const BitVec& truth) {
  std::size_t spent = 0;
  const BitVec& winner = tree.determine([&](std::size_t i) {
    ++spent;
    return truth.get(i);
  });
  return {spent, winner == truth};
}

}  // namespace

// E3: the deterministic two-world construction against every sub-n-query
// deterministic protocol (and the naive control, exactly tight and hence
// unattackable). E4: the randomized planted-bit attack against the 2-cycle
// protocol forced into the majority regime with optimistic parameters;
// success vs the theorem's 1 - q/n floor as the query budget sweeps.
Experiment lowerbound_experiment() {
  Experiment exp{"E3/E4 — Byzantine-majority lower bounds (Thms 3.1, 3.2)",
                 "any Download protocol with Q < n fails once beta >= 1/2",
                 {}};
  exp.sections.push_back(
      {.title = "E3: deterministic two-world attack (n=4096, k=10, beta=1/2)",
       .offline = [](BenchJson& bj) {
         Table table({"victim protocol", "victim q (probe)", "attackable",
                      "attack succeeded", "planted bit", "note"});
         const dr::Config c{.n = 4096, .k = 10, .beta = 0.5,
                            .message_bits = 1024, .seed = 3};
         for (const auto& [name, victim] :
              std::vector<std::pair<std::string, PeerFactory>>{
                  {"Algorithm 2 (crash-optimal)", proto::make_crash_multi()},
                  {"Algorithm 1 (one-crash)", proto::make_crash_one()},
                  {"naive (Q = n, the tight case)", proto::make_naive()}}) {
           const auto r = proto::run_deterministic_majority_attack(c, victim);
           table.add(name, r.victim_probe_queries, r.attackable, r.succeeded,
                     r.planted_bit, r.detail);
           bj.record("E3", name,
                     {{"q_mean", static_cast<double>(r.victim_probe_queries)},
                      {"attackable", flag(r.attackable)},
                      {"succeeded", flag(r.succeeded)}});
         }
         table.print();
         std::printf("shape: every protocol with q < n falls to the two-world\n"
                     "indistinguishability argument; only Q = n survives — "
                     "the\nTheorem 3.1 dichotomy.\n");
       }});
  exp.sections.push_back(
      {.title = "E3 across beta >= 1/2 (Algorithm 2 victim, k=16)",
       .offline = [](BenchJson& bj) {
         Table table({"beta", "t", "|B| corrupted", "|S| delayed", "victim q",
                      "succeeded"});
         for (double beta : {0.5, 0.625, 0.75, 0.875}) {
           const dr::Config c{.n = 2048, .k = 16, .beta = beta,
                              .message_bits = 512, .seed = 5};
           const auto r = proto::run_deterministic_majority_attack(
               c, proto::make_crash_multi());
           table.add(beta, c.max_faulty(), c.max_faulty(),
                     c.k - c.max_faulty() - 1, r.victim_probe_queries,
                     r.succeeded);
           bj.record("E3-beta", "beta=" + Table::to_cell(beta),
                     {{"q_mean", static_cast<double>(r.victim_probe_queries)},
                      {"succeeded", flag(r.succeeded)}});
         }
         table.print();
         std::printf("note: as beta -> 1 the victim's quorum shrinks toward\n"
                     "itself and Algorithm 2 degrades to querying everything "
                     "—\nexactly the only defense Theorem 3.1 leaves.\n");
       }});
  exp.sections.push_back(
      {.title = "E4: randomized attack success vs query budget (n=4096, k=24)",
       .offline = [](BenchJson& bj) {
         Table table({"segments s", "mean victim q", "q/n", "success measured",
                      "floor 1-q/n", "trials"});
         const dr::Config c{.n = 4096, .k = 24, .beta = 0.5,
                            .message_bits = 4096, .seed = 17};
         for (std::size_t segments : {2ul, 4ul, 8ul}) {
           RandParams optimistic;  // what the victim wrongly believes
           optimistic.segments = segments;
           optimistic.tau = 1;
           optimistic.eta = 4;
           const auto r = proto::run_randomized_majority_attack(
               c, proto::make_two_cycle_with(optimistic), 32);
           const double q = r.mean_victim_queries;
           table.add(segments, q, q / static_cast<double>(c.n),
                     r.success_rate(), r.predicted_floor(c.n), r.trials);
           bj.record("E4", "s=" + std::to_string(segments),
                     {{"q_mean", q},
                      {"success_rate", r.success_rate()},
                      {"floor", r.predicted_floor(c.n)}});
         }
         table.print();
         std::printf(
             "shape: success tracks the 1 - q/n floor of Theorem 3.2 —\n"
             "cheaper victims fail more often, and driving failure to 0\n"
             "requires q -> n, i.e. Q = Omega(n). (Runs land slightly\n"
             "below the floor because our implementation's fallback\n"
             "re-queries candidate-less segments, which covers the\n"
             "planted bit more often than q uniform queries would.)\n");
       }});
  return exp;
}

namespace {

constexpr double kCommitteeBetas[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.45};

dr::Config committee_cfg(std::size_t k, double beta, std::size_t bits,
                         std::uint64_t seed) {
  return dr::Config{
      .n = 1 << 14, .k = k, .beta = beta, .message_bits = bits, .seed = seed};
}

/// A "label, Q, T, M, fails" table; `label_from` trims a label prefix.
void print_qtm(const std::vector<Row>& rows, std::vector<std::string> headers,
               std::size_t label_from = 0) {
  Table table(std::move(headers));
  for (const Row& row : rows) {
    table.add(row.label.substr(label_from), mean_cell(row.q),
              mean_cell(row.t), mean_cell(row.m),
              row.failures);
  }
  table.print();
}

}  // namespace

// E5 (Thm 3.4): (a) Q/T/M vs beta with the strongest liar coalition, the
// claim Q = O(beta n + n/k); (b) attack families at fixed beta -- the t+1
// threshold makes every lie harmless; (c) message size B: T = O(n (2t+1) /
// (k B)) via the batched vote broadcasts, and M, counting unit messages,
// grows as B shrinks.
Experiment committee_experiment() {
  constexpr std::size_t kRepeats = 5;
  const PeerFactory flip_all =
      proto::make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  Experiment exp{
      "E5 — deterministic Byzantine committee protocol (Thm 3.4)",
      "Q = O(beta n + n/k) for beta < 1/2, deterministic, asynchronous",
      {}};

  // Traced: the critical path splits each row's T into link latency vs
  // local sequencing.
  Section by_beta{.title = "Q vs beta, n=16384, k=32, flip-all liars at max t",
                  .traced = true};
  for (double beta : kCommitteeBetas) {
    add_repeats(
        by_beta, "q-vs-beta", "beta=" + Table::to_cell(beta), kRepeats,
        [&](std::size_t rep) {
          return byz_scenario(committee_cfg(32, beta, 4096, 500 + rep),
                              proto::make_committee(), flip_all, rep);
        },
        bounds::committee_q(committee_cfg(32, beta, 4096, 1)));
  }
  by_beta.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"beta", "t", "committee", "Q measured", "Q bound", "T", "M",
                 "T breakdown", "fails"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double beta = kCommitteeBetas[i];
      const std::size_t t = committee_cfg(32, beta, 4096, 1).max_faulty();
      table.add(beta, t, 2 * t + 1, mean_cell(row.q), row.bound,
                mean_cell(row.t), mean_cell(row.m),
                critpath_cell(row), row.failures);
    }
    table.print();
    std::printf("shape: Q ~ (2 beta + 1/k) n — linear in beta, the paper's\n"
                "deterministic price for Byzantine tolerance below 1/2.\n"
                "T breakdown: the critical path's link-latency share vs\n"
                "same-instant local sequencing (path length == T exactly).\n");
  };
  exp.sections.push_back(std::move(by_beta));

  Section attacks{
      .title = "attack family sweep, n=16384, k=25, beta=0.4 (t=10, c=21)"};
  for (const auto& [name, liar] :
       std::vector<std::pair<std::string, PeerFactory>>{
           {"silent", proto::make_silent_byz()},
           {"flip all votes", flip_all},
           {"random votes",
            proto::make_committee_liar(CommitteeLiarPeer::Mode::kRandom)},
           {"equivocate",
            proto::make_committee_liar(CommitteeLiarPeer::Mode::kEquivocate)},
           {"garbage payloads", proto::make_garbage_byz()}}) {
    add_repeats(attacks, "attacks", name, kRepeats, [&](std::size_t rep) {
      return byz_scenario(committee_cfg(25, 0.4, 4096, 600 + rep),
                          proto::make_committee(), liar, rep);
    });
  }
  attacks.report = [](const std::vector<Row>& rows, BenchJson&) {
    print_qtm(rows, {"attack", "Q measured", "T", "M", "fails"});
  };
  exp.sections.push_back(std::move(attacks));

  Section sizes{.title = "message size B sweep, n=16384, k=25, beta=0.2"};
  for (std::size_t b : {256u, 1024u, 4096u, 16384u}) {
    add_repeats(sizes, "B-sweep", "B=" + std::to_string(b), kRepeats,
                [&](std::size_t rep) {
                  return byz_scenario(committee_cfg(25, 0.2, b, 700 + rep),
                                      proto::make_committee(), flip_all, rep);
                });
  }
  sizes.report = [](const std::vector<Row>& rows, BenchJson&) {
    print_qtm(rows, {"B (bits)", "Q", "T", "M (unit msgs)", "fails"}, 2);
    std::printf("shape: Q independent of B; T and M scale ~1/B (the n/B link\n"
                "serialization term of the paper's time analysis).\n");
  };
  exp.sections.push_back(std::move(sizes));
  return exp;
}

namespace {

constexpr std::size_t kRandN = 1 << 14;
constexpr double kRandC = 2.0;
constexpr std::size_t kRandRepeats = 5;

dr::Config rand_cfg(std::uint64_t seed) {
  return dr::Config{.n = kRandN, .k = 192, .beta = 0.125,
                    .message_bits = 8192, .seed = seed};
}

/// The randomized protocols vs seven attack families, with each honest
/// peer's decision-tree separator queries and fallback segments read off
/// the world.
template <typename PeerT>
Section attack_section(const std::string& title, const std::string& series,
                       const PeerFactory& honest, std::size_t bound) {
  Section sec{.title = title};
  for (const auto& [name, attack] :
       std::vector<std::pair<std::string, PeerFactory>>{
           {"none", nullptr},
           {"silent", proto::make_silent_byz()},
           {"vote stuffing", proto::make_vote_stuffer(kRandC, 0)},
           {"comb stuffing (tree worst case)",
            proto::make_comb_stuffer(kRandC, 0)},
           {"equivocation", proto::make_equivocator(kRandC)},
           {"quorum rushing", proto::make_quorum_rusher(kRandC)},
           {"garbage", proto::make_garbage_byz()}}) {
    add_repeats(
        sec, series, name, kRandRepeats,
        [&](std::size_t rep) {
          proto::Scenario s =
              byz_scenario(rand_cfg(1000 + rep), honest, attack, rep);
          // The stream World::adversary_rng(7) draws from, not
          // run_scenario's default latency stream.
          s.latency = [](const dr::Config& c) {
            return std::make_unique<adv::UniformLatency>(
                Rng(c.seed).split(0x4adull * (7 + 1) + c.k), 0.05, 1.0);
          };
          return s;
        },
        bound);
  }
  sec.post_run = [](dr::World& world, const dr::RunReport&, Readings& out) {
    for (sim::PeerId id = 0; id < world.config().k; ++id) {
      if (world.is_faulty(id)) continue;
      const auto& peer = dynamic_cast<const PeerT&>(world.peer(id));
      out.emplace_back("tree", static_cast<double>(peer.tree_queries()));
      out.emplace_back("fallback",
                       static_cast<double>(peer.fallback_segments()));
    }
  };
  sec.report = [](const std::vector<Row>& rows, BenchJson& bj) {
    Table table({"attack", "Q (max/peer)", "tree queries (mean)",
                 "fallback segs (mean)", "Q bound", "fails"});
    for (const Row& row : rows) {
      const Summary tree = row.reading("tree");
      const Summary fallback = row.reading("fallback");
      table.add(row.label, mean_cell(row.q), mean_cell(tree),
                mean_cell(fallback), row.bound, row.failures);
      if (tree.empty()) continue;
      bj.record(row.section, row.label + " peers",
                {{"tree_queries_mean", tree.mean()},
                 {"fallback_segments_mean", fallback.mean()}});
    }
    table.print();
  };
  return sec;
}

}  // namespace

// E6 (Thm 3.7) and E7 (Thm 3.12): the randomized protocols vs attack
// families, with separator queries and fallbacks broken out; the "whp"
// claim as a measured failure rate over 40 seeds; and two ablations --
// threshold tau, and decision trees vs majority voting under vote stuffing
// (majority voting is WRONG there). Fallback preserves correctness, so a
// whp failure shows up as extra queries or a failed run, never silently.
Experiment randomized_experiment() {
  const RandParams params = RandParams::derive(rand_cfg(1), kRandC);
  Experiment exp{"E6/E7 — randomized Byzantine Download (Thms 3.7, 3.12)",
                 "n=" + std::to_string(kRandN) + ", k=192, beta=" +
                     std::to_string(0.125) + ", " + params.to_string(),
                 {}};

  exp.sections.push_back(attack_section<proto::TwoCyclePeer>(
      "E6: 2-cycle protocol vs attacks", "E6",
      proto::make_two_cycle_with(params),
      bounds::two_cycle_q(rand_cfg(1), params)));
  exp.sections.push_back({.offline = [params](BenchJson&) {
    std::printf("shape: Q ~ n/s + trees = %zu + O(k); stuffing only adds\n"
                "separator queries, never wrong outputs (Protocol 3).\n",
                kRandN / params.segments);
  }});
  exp.sections.push_back(attack_section<proto::MultiCyclePeer>(
      "E7: multi-cycle protocol vs attacks", "E7",
      proto::make_multi_cycle_with(params),
      bounds::multi_cycle_q(rand_cfg(1), params)));

  // The paper's "w.h.p." made empirical, with the tau-margin knob: Claim
  // 5's margin (2) at this small scale leaves a few percent of runs where
  // some segment misses tau honest picks; a wider margin (smaller tau)
  // trades that for extra candidates. Seed sweeps record their failures;
  // no bound gates them.
  Section whp{.title =
                  "whp failure rate over 40 seeds (2-cycle, vote stuffing)"};
  for (int margin : {2, 3}) {
    add_repeats(whp, "whp", "tau margin " + std::to_string(margin), 40,
                [&](std::size_t rep) {
                  return byz_scenario(
                      rand_cfg(5000 + rep),
                      proto::make_two_cycle(kRandC, margin),
                      proto::make_vote_stuffer(kRandC, rep % params.segments),
                      rep);
                });
  }
  whp.report = [](const std::vector<Row>& rows, BenchJson&) {
    for (const Row& row : rows) {
      Summary q;  // over every run, failed ones included
      for (const PointResult* run : row.points) {
        q.add(static_cast<double>(run->report.query_complexity));
      }
      std::printf("%s: runs=%zu wrong_or_hung=%zu (failure rate %.3f), Q=%s\n",
                  row.label.c_str(), row.points.size(), row.failures,
                  static_cast<double>(row.failures) /
                      static_cast<double>(row.points.size()),
                  q.to_string().c_str());
    }
  };
  exp.sections.push_back(std::move(whp));

  // Vote stuffing concentrates t identical fakes (beats any tau <= t); comb
  // stuffing spreads t DISTINCT fakes (each gets one vote, so it only bites
  // at tau = 1 -- where it degenerates the tree to depth t).
  Section tau{.title =
                  "ablation: tau sensitivity (2-cycle, vote + comb stuffing)"};
  for (std::size_t t : {1ul, 2ul, params.tau, 2 * params.tau}) {
    RandParams p = params;
    p.tau = t;
    for (const bool comb : {false, true}) {
      add_repeats(tau, "tau",
                  std::to_string(t) + (comb ? " comb stuff" : " vote stuff"),
                  kRandRepeats, [&](std::size_t rep) {
                    return byz_scenario(
                        rand_cfg(6000 + rep), proto::make_two_cycle_with(p),
                        comb ? proto::make_comb_stuffer(kRandC, 0)
                             : proto::make_vote_stuffer(kRandC, 0),
                        rep);
                  });
    }
  }
  tau.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"tau", "attack", "Q", "fails/5"});
    for (const Row& row : rows) {
      const std::size_t space = row.label.find(' ');
      table.add(row.label.substr(0, space), row.label.substr(space + 1),
                mean_cell(row.q), row.failures);
    }
    table.print();
    std::printf(
        "shape: small tau admits fake candidates (comb at tau=1 costs ~t\n"
        "separators but stays correct). Oversized tau is the real danger\n"
        "zone: once tau exceeds the honest per-segment support but not the\n"
        "Byzantine coalition size (support t), the truth drops OUT of the\n"
        "candidate set while the stuffed fake stays IN — wrong outputs (the\n"
        "fails column). The paper's tau = eta/(2s) sits safely below both.\n");
  };
  exp.sections.push_back(std::move(tau));

  // Offline, on one segment's vote multiset: t stuffed fakes vs tau..eta
  // honest copies of the truth. Majority voting picks the fake once t
  // exceeds the honest copies; the decision tree never does.
  exp.sections.push_back(
      {.title = "ablation: decision tree vs majority vote under stuffing",
       .offline = [params](BenchJson& bj) {
         Rng rng(42);
         const BitVec truth = BitVec::generate(kRandN / params.segments,
                                               [&] { return rng.flip(); });
         BitVec fake = truth;
         fake.flip_all();
         const proto::DecisionTree tree({truth, fake});
         Table table({"honest copies", "stuffed copies", "majority verdict",
                      "tree verdict", "tree queries"});
         const std::size_t t = rand_cfg(1).max_faulty();
         for (std::size_t honest : {params.tau, 2 * params.tau, t + 1}) {
           const auto [queries, right] = resolve(tree, truth);
           table.add(honest, t, honest > t ? "correct" : "WRONG",
                     right ? "correct" : "WRONG", queries);
           bj.record("majority-vs-tree", "honest=" + std::to_string(honest),
                     {{"q_mean", static_cast<double>(queries)},
                      {"majority_correct", flag(honest > t)},
                      {"tree_correct", flag(right)}});
         }
         table.print();
         std::printf(
             "the paper's design point: votes select CANDIDATES only;\n"
             "the source itself (via separator queries) selects the value.\n");
       }});
  return exp;
}

namespace {

std::vector<BitVec> random_candidates(Rng& rng, std::size_t count,
                                      std::size_t len) {
  std::vector<BitVec> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    const BitVec c = BitVec::generate(len, [&] { return rng.flip(); });
    if (seen.insert(c.to_string()).second) out.push_back(c);
  }
  return out;
}

/// Adversarial "comb": candidates differing from the truth in exactly one
/// late position each -- maximizes tree depth.
std::vector<BitVec> comb_candidates(const BitVec& truth, std::size_t count) {
  std::vector<BitVec> out{truth};
  for (std::size_t j = 1; j < count; ++j) {
    out.push_back(truth);
    out.back().flip(truth.size() - j);
  }
  return out;
}

}  // namespace

// F3 -- decision-tree resolution cost (Protocol 3). The paper bounds each
// segment's resolution cost by the number of strings received for it
// (internal nodes = candidates - 1, path queries <= depth): cost vs
// candidate-set size and vs adversarial candidate shapes.
Experiment decision_tree_experiment() {
  Experiment exp{"F3 — decision-tree resolution cost (Protocol 3)",
                 "internal nodes = candidates-1; per-resolution queries <= "
                 "depth; the true string always survives",
                 {}};
  exp.sections.push_back(
      {.title = "random candidate sets (segment length 512)",
       .offline = [](BenchJson& bj) {
         Table table({"candidates", "internal nodes", "depth", "mean queries",
                      "always correct"});
         Rng rng(7);
         for (std::size_t count : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
           Summary queries;
           std::size_t wrong = 0;
           std::size_t depth = 0;
           std::size_t internal = 0;
           for (int trial = 0; trial < 20; ++trial) {
             const auto cands = random_candidates(rng, count, 512);
             const proto::DecisionTree tree(cands);
             depth = std::max(depth, tree.depth());
             internal = tree.internal_nodes();
             const auto [spent, right] =
                 resolve(tree, cands[rng.below(cands.size())]);
             queries.add(static_cast<double>(spent));
             wrong += right ? 0 : 1;
           }
           table.add(count, internal, depth, queries.mean(), wrong == 0);
           bj.record("random", "candidates=" + std::to_string(count),
                     {{"q_mean", queries.mean()},
                      {"depth", static_cast<double>(depth)},
                      {"failures", static_cast<double>(wrong)}});
         }
         table.print();
         std::printf("shape: random separators split ~evenly, so queries ~ "
                     "log\nof the candidate count despite internal nodes = "
                     "count-1.\n");
       }});
  exp.sections.push_back(
      {.title = "adversarial comb candidates (worst-case depth)",
       .offline = [](BenchJson& bj) {
         Table table({"candidates", "internal nodes", "depth",
                      "queries to truth", "correct"});
         Rng rng(11);
         const BitVec truth = BitVec::generate(512, [&] { return rng.flip(); });
         for (std::size_t count : {2ul, 8ul, 32ul, 128ul}) {
           const proto::DecisionTree tree(comb_candidates(truth, count));
           const auto [spent, right] = resolve(tree, truth);
           table.add(count, tree.internal_nodes(), tree.depth(), spent, right);
           bj.record("comb", "candidates=" + std::to_string(count),
                     {{"q_mean", static_cast<double>(spent)},
                      {"depth", static_cast<double>(tree.depth())},
                      {"failures", flag(!right)}});
         }
         table.print();
         std::printf(
             "shape: a coordinated adversary can force depth = count-1\n"
             "— exactly the paper's sum_i R_i <= k per-peer allowance,\n"
             "since each Byzantine peer buys one candidate per segment.\n");
       }});
  return exp;
}

}  // namespace asyncdr::bench
