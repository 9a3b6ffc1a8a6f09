// Crash-fault experiments: E1/E2 (Thms 2.3, 2.13), the warm-vs-cold
// recovery bench, and the substrate scaling sweep S1.
#include <algorithm>
#include <string>
#include <vector>

#include "driver.hpp"
#include "obs/mem.hpp"

namespace asyncdr::bench {

using proto::Scenario;

namespace {

dr::Config crash_cfg(std::size_t n, std::size_t k, double beta,
                     std::uint64_t seed) {
  return dr::Config{
      .n = n, .k = k, .beta = beta, .message_bits = 1024, .seed = seed};
}

constexpr double kCrashBetas[] = {0.0, 0.25, 0.5, 0.625, 0.75, 0.875, 0.9375};
constexpr std::size_t kStormCounts[] = {2, 4, 8};

using Recovery = dr::RecoveryStats;

/// One RunReport::recovery counter over a row's successful runs.
Summary counter(const Row& row, std::uint64_t Recovery::*field) {
  Summary s;
  for (const PointResult* p : row.points) {
    if (p->report.ok()) s.add(static_cast<double>(p->report.recovery.*field));
  }
  return s;
}

/// Records a row's recovery counter means as "<label> recovery".
void record_recovery(const Row& row, BenchJson& bj) {
  using R = Recovery;
  bj.record(row.section, row.label + " recovery",
            {{"restarts_mean", counter(row, &R::restarts).mean()},
             {"replays_mean", counter(row, &R::journal_replays).mean()},
             {"cold_fallbacks_mean", counter(row, &R::cold_fallbacks).mean()},
             {"bits_recovered_mean", counter(row, &R::bits_recovered).mean()},
             {"queries_saved_mean", counter(row, &R::queries_saved).mean()}});
}

}  // namespace

// E1 (Thm 2.3) and E2 (Thm 2.13): (a) Algorithm 1 across crash timings
// against ceil(n/k) + ceil(ceil(n/k)/(k-1)); (b) Algorithm 2 vs beta
// against the geometric-sum bound, the optimality claim Q = O(n/((1-b)k))
// for ANY beta < 1; (c) adversary styles; (d) Thm 2.13's fast cancel.
Experiment crash_experiment() {
  constexpr std::size_t kRepeats = 5;
  Experiment exp{
      "E1/E2 — deterministic crash-fault Download (Thms 2.3, 2.13)",
      "Q optimal at n/((1-beta)k) for any beta < 1, async, deterministic",
      {}};

  Section e1{.title = "E1: Algorithm 1 (single crash), n=32768, k=16"};
  // One crash at most: (pattern, victim = rep * step % 16, crash time; a
  // negative time crashes the victim after its third send instead).
  struct Pattern {
    std::string name;
    std::size_t step;  ///< 0 = no crash
    sim::Time at;
  };
  const std::size_t e1_bound =
      bounds::crash_one_q(crash_cfg(1 << 15, 16, 1.0 / 16, 1));
  for (const Pattern& p : std::vector<Pattern>{
           {"none", 0, 0.0},
           {"silent from start", 1, 0.0},
           {"mid-broadcast (3 sends)", 5, -1.0},
           {"late (t=2.5)", 7, 2.5}}) {
    add_repeats(
        e1, "E1", p.name, kRepeats,
        [&p](std::size_t rep) {
          Scenario s;
          s.cfg = crash_cfg(1 << 15, 16, 1.0 / 16, 100 + rep);
          s.honest = proto::make_crash_one();
          const sim::PeerId victim = rep * p.step % 16;
          if (p.step > 0 && p.at < 0) s.crashes.add_after_sends(victim, 3);
          if (p.step > 0 && p.at >= 0) s.crashes.add_at_time(victim, p.at);
          return s;
        },
        e1_bound);
  }
  e1.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"crash pattern", "Q measured", "Q bound", "T", "M", "fails"});
    for (const Row& row : rows) {
      table.add(row.label, mean_cell(row.q), row.bound,
                mean_cell(row.t), mean_cell(row.m),
                row.failures);
    }
    table.print();
  };
  exp.sections.push_back(std::move(e1));

  Section e2{
      .title = "E2: Algorithm 2 vs beta, n=32768, k=32, max crashes (silent)"};
  for (double beta : kCrashBetas) {
    add_repeats(e2, "E2-beta", "beta=" + Table::to_cell(beta), kRepeats,
                [beta](std::size_t rep) {
                  Scenario s;
                  s.cfg = crash_cfg(1 << 15, 32, beta, 200 + rep);
                  s.honest = proto::make_crash_multi();
                  s.crashes =
                      adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
                  return s;
                },
                bounds::crash_multi_q(crash_cfg(1 << 15, 32, beta, 1)));
  }
  e2.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"beta", "t", "Q measured", "Q bound", "n/((1-b)k)", "T", "M",
                 "fails"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double beta = kCrashBetas[i];
      const dr::Config c = crash_cfg(1 << 15, 32, beta, 1);
      const double ideal = static_cast<double>(c.n) /
                           ((1.0 - beta) * static_cast<double>(c.k));
      table.add(beta, c.max_faulty(), mean_cell(row.q), row.bound,
                ideal, mean_cell(row.t), mean_cell(row.m),
                row.failures);
    }
    table.print();
    std::printf("shape: Q grows as 1/(1-beta), stays at its bound, and is\n"
                "far below naive (Q=%u) even at beta=0.9375.\n", 1u << 15);
  };
  exp.sections.push_back(std::move(e2));

  Section styles{.title = "E2 adversary styles, n=32768, k=32, beta=0.5"};
  constexpr const char* kStyles[] = {
      "silent prefix", "random times + partial sends",
      "staggered across phases", "mid-broadcast everywhere"};
  for (std::uint64_t style = 0; style < 4; ++style) {
    add_repeats(styles, "E2-adversary", kStyles[style], kRepeats,
                [style](std::size_t rep) {
                  Scenario s;
                  s.cfg = crash_cfg(1 << 15, 32, 0.5, 300 + rep);
                  s.honest = proto::make_crash_multi();
                  Rng rng(rep * 13 + style);
                  const std::size_t t = s.cfg.max_faulty();
                  using Plan = adv::CrashPlan;
                  s.crashes =
                      style == 0   ? Plan::silent_prefix(t)
                      : style == 1 ? Plan::random(s.cfg, rng, t, 10.0)
                      : style == 2 ? Plan::staggered(s.cfg, rng, t, 2.0)
                                   : Plan::partial_broadcast(s.cfg, rng, t, 5);
                  return s;
                });
  }
  styles.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"adversary", "Q measured", "T", "M", "phases-ish", "fails"});
    for (const Row& row : rows) {
      table.add(row.label, mean_cell(row.q), mean_cell(row.t),
                mean_cell(row.m), "see test diag", row.failures);
    }
    table.print();
  };
  exp.sections.push_back(std::move(styles));

  // Theorem 2.13's adversarial schedule: stage-2 answers to peer 0 crawl at
  // the latency cap and peer 1's stage-1 answer to peer 0 is merely slow
  // (0.9), so peer 0, missing exactly peer 1 each phase, either waits for
  // the full response quorum (plain Algorithm 2) or is released the moment
  // peer 1's late answer covers everything (fast cancel).
  Section cancel{
      .title =
          "Ablation: Thm 2.13 fast-cancel under a quorum-throttling schedule"};
  for (bool fast : {true, false}) {
    add_repeats(cancel, "fast-cancel", fast ? "on" : "off", kRepeats,
                [fast](std::size_t rep) {
                  Scenario s;
                  s.cfg = crash_cfg(1 << 14, 16, 0.25, 400 + rep);
                  s.honest = proto::make_crash_multi({.fast_cancel = fast});
                  s.latency = [](const dr::Config&) {
                    return std::make_unique<adv::CallbackLatency>(
                        [](const sim::Message& msg) -> sim::Time {
                          using proto::crashm::Resp2;
                          if (msg.to != 0) return 0.05;
                          if (sim::payload_as<Resp2>(*msg.payload)) return 1.0;
                          // The "missing" peer's answers.
                          return msg.from == 1 ? 0.9 : 0.05;
                        });
                  };
                  return s;
                });
  }
  cancel.report = [](const std::vector<Row>& rows, BenchJson&) {
    Table table({"fast_cancel", "Q", "T", "M", "fails"});
    for (const Row& row : rows) {
      table.add(row.label == "on", mean_cell(row.q), mean_cell(row.t),
                mean_cell(row.m), row.failures);
    }
    table.print();
    std::printf("shape: identical Q; fast-cancel releases the stage-3\n"
                "wait as soon as late answers cover it, cutting T — the\n"
                "Theorem 2.13 refinement made visible.\n");
  };
  exp.sections.push_back(std::move(cancel));
  return exp;
}

// Warm vs cold restart. Warm and cold share ALL machinery (same crash
// schedule, same restart path); RecoveryOptions::cold_restart only makes
// the replay see an empty log, so any Q difference is exactly the
// write-ahead journal's contribution. R1: Algorithm 1, the crashed peer
// comes back. R2: Algorithm 2 under a restart storm across crash counts.
// R3: flapping peers, warm only -- the second resume should be free.
Experiment recovery_experiment() {
  constexpr std::size_t kRepeats = 5;
  Experiment exp{
      "Recovery — warm (journal) vs cold restart",
      "a revived peer re-queries only the bits its journal cannot prove",
      {}};
  Section r1{.title = "R1: Algorithm 1, one crash at t=2.5 + restart, "
                      "n=16384, k=16"};
  for (const bool cold : {false, true}) {
    add_repeats(r1, "R1", cold ? "cold" : "warm", kRepeats,
                [cold](std::size_t rep) {
                  Scenario s;
                  s.cfg = crash_cfg(1 << 14, 16, 1.0 / 16, 500 + rep);
                  s.honest = proto::make_crash_one();
                  s.recovery.factory = proto::make_crash_one();
                  s.recovery.options.cold_restart = cold;
                  const sim::PeerId victim = rep % 16;
                  s.crashes.add_at_time(victim, 2.5);
                  s.crashes.add_restart_after(victim, 3.0);
                  return s;
                });
  }
  r1.report = [](const std::vector<Row>& rows, BenchJson& bj) {
    Table table({"restart", "Q", "T", "M", "bits recovered", "Q saved",
                 "fails"});
    for (const Row& row : rows) {
      table.add(row.label, mean_cell(row.q), mean_cell(row.t),
                mean_cell(row.m),
                mean_cell(counter(row, &Recovery::bits_recovered)),
                mean_cell(counter(row, &Recovery::queries_saved)),
                row.failures);
      record_recovery(row, bj);
    }
    table.print();
  };
  exp.sections.push_back(std::move(r1));

  Section r2{.title = "R2: Algorithm 2 restart storm vs crash count, "
                      "n=16384, k=16, beta=0.5"};
  for (const std::size_t crashes : kStormCounts) {
    for (const bool cold : {false, true}) {
      add_repeats(
          r2, "R2",
          "crashes=" + std::to_string(crashes) + (cold ? " cold" : " warm"),
          kRepeats,
          [crashes, cold](std::size_t rep) {
            Scenario s;
            s.cfg = crash_cfg(1 << 14, 16, 0.5, 600 + rep);
            s.honest = proto::make_crash_multi();
            s.recovery.factory = proto::make_crash_multi();
            s.recovery.options.cold_restart = cold;
            Rng rng(rep * 17 + crashes);
            s.crashes = adv::CrashPlan::restart_storm(
                s.cfg, rng, crashes, /*spacing=*/1.0,
                /*storm_at=*/static_cast<sim::Time>(crashes) + 2.0,
                /*window=*/2.0);
            return s;
          });
    }
  }
  r2.report = [](const std::vector<Row>& rows, BenchJson& bj) {
    Table table({"crashes", "restart", "Q", "T", "M", "Q saved", "fails"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      table.add(kStormCounts[i / 2], i % 2 == 1 ? "cold" : "warm",
                mean_cell(row.q), mean_cell(row.t), mean_cell(row.m),
                mean_cell(counter(row, &Recovery::queries_saved)),
                row.failures);
      record_recovery(row, bj);
    }
    table.print();
    std::printf("shape: warm Q sits strictly below cold Q at every crash\n"
                "count; the gap is the journal's recovered prefix.\n");
  };
  exp.sections.push_back(std::move(r2));

  Section r3{.title = "R3: flapping (2 peers x 2 cycles), warm, n=16384, "
                      "k=16, beta=0.5"};
  add_repeats(r3, "R3", "flapping warm", kRepeats, [](std::size_t rep) {
    Scenario s;
    s.cfg = crash_cfg(1 << 14, 16, 0.5, 700 + rep);
    s.honest = proto::make_crash_multi();
    s.recovery.factory = proto::make_crash_multi();
    Rng rng(rep * 29 + 3);
    s.crashes = adv::CrashPlan::flapping(s.cfg, rng, /*count=*/2,
                                         /*cycles=*/2, /*period=*/6.0,
                                         /*up_delay=*/1.5, /*jitter=*/0.5);
    return s;
  });
  r3.report = [](const std::vector<Row>& rows, BenchJson& bj) {
    Table table({"restart", "Q", "T", "restarts", "Q saved", "fails"});
    const Row& row = rows.front();
    table.add("warm", mean_cell(row.q), mean_cell(row.t),
              mean_cell(counter(row, &Recovery::restarts)),
              mean_cell(counter(row, &Recovery::queries_saved)), row.failures);
    record_recovery(row, bj);
    table.print();
    std::printf("shape: the second resume of a flapping peer replays a\n"
                "journal that already covers the array — it re-queries\n"
                "nothing, so Q saved exceeds a single incarnation's share.\n");
  };
  exp.sections.push_back(std::move(r3));
  return exp;
}

namespace {

std::size_t max_k_cap() {
  const char* cap = std::getenv("ASYNCDR_SCALE_MAX_K");
  if (cap == nullptr || *cap == '\0') return ~std::size_t{0};
  return static_cast<std::size_t>(std::strtoull(cap, nullptr, 10));
}

constexpr std::size_t kScaleKs[] = {64, 256, 1024, 4096, 16384, 65536};

}  // namespace

// S1 -- substrate scaling sweep, not a paper artifact. Algorithm 2 under a
// silent-prefix crash plan and FixedLatency (the bucketing-maximal
// schedule) across k, recording Q/T/M plus the substrate's side: engine
// events, active directed links (vs k^2), wall clock, peak RSS and the
// modeled per-pool memory. n is deliberately modest: the event budget and
// link state this measures depend on k, not n. ASYNCDR_SCALE_MAX_K caps the
// sweep (CI runs k <= 4096 against the committed full baseline).
//
// Q/T/M, events, active links and the modeled mem_* fields are per-seed
// deterministic and gated by compare_bench.py; wall_ms and rss_mb are
// machine-dependent diagnostics it ignores; mem_unattributed_frac is
// measured and gated as an absolute bound.
Experiment scale_experiment() {
  Experiment exp{"S — substrate scaling sweep (not a paper artifact)",
                 "large-k runs within the default event budget; flyweight "
                 "links + bucketed broadcast",
                 {},
                 /*threads=*/1,
                 /*per_point_rss=*/true};
  const std::size_t cap = max_k_cap();
  Section s1{.title =
                 "S1: crash_multi k-sweep, n=8192, beta=0.125, silent prefix"};
  s1.post_run = [](dr::World& world, const dr::RunReport&, Readings& out) {
    out.emplace_back("active_links",
                     static_cast<double>(world.network().active_links()));
  };
  for (const std::size_t k : kScaleKs) {
    if (k > cap) continue;
    Scenario s;
    s.cfg = crash_cfg(1 << 13, k, 0.125, 500 + k);
    s.honest = proto::make_crash_multi();
    s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
    // FixedLatency collapses every broadcast's arrivals onto one instant.
    s.latency = proto::fixed_latency(1.0);
    s1.grid.push_back({"S1", "k=" + std::to_string(k), std::move(s)});
  }
  s1.report = [cap](const std::vector<Row>& rows, BenchJson& bj) {
    Table table({"k", "Q", "T", "M", "events", "active links", "k^2",
                 "wall ms", "peak RSS MB", "ok"});
    auto row = rows.begin();
    for (const std::size_t k : kScaleKs) {
      if (k > cap) {
        std::printf("(k=%zu skipped: ASYNCDR_SCALE_MAX_K=%zu)\n", k, cap);
        continue;
      }
      const PointResult& point = *row->points.front();
      const dr::RunReport& report = point.report;
      const double links = point.readings.at(0).second;  // post_run's one
      table.add(k, mean_cell(row->q), mean_cell(row->t), mean_cell(row->m),
                report.events, links,
                static_cast<double>(k) * static_cast<double>(k), point.wall_ms,
                point.rss_mb, report.ok());
      bj.record("S1-substrate", row->label,
                {{"events", static_cast<double>(report.events)},
                 {"active_links", links}});
      bj.record("S1-wall", row->label, {{"wall_ms", point.wall_ms}});
      bj.record("S1-rss", row->label, {{"rss_mb", point.rss_mb}});
      // Modeled memory: one peak-bytes field per pool (dots become
      // underscores to keep flat keys) plus the simultaneous total. The
      // unattributed fraction compares that total against the measured RSS
      // delta, and only when the delta is large enough that allocator
      // arena granularity does not dominate (the memprof tripwire's floor).
      std::vector<std::pair<std::string, double>> mem;
      for (const obs::MemPoolStats& p : report.mem_pools) {
        std::string field = "mem_" + p.name + "_peak_bytes";
        std::replace(field.begin(), field.end(), '.', '_');
        mem.emplace_back(field, static_cast<double>(p.peak));
      }
      mem.emplace_back("mem_accounted_bytes",
                       static_cast<double>(report.mem_total_peak));
      const double rss_bytes = point.rss_mb * 1024.0 * 1024.0;
      if (point.rss_mechanism != "unavailable" &&
          rss_bytes >= 16.0 * 1024.0 * 1024.0) {
        const double attributed =
            static_cast<double>(report.mem_total_peak) / rss_bytes;
        mem.emplace_back("mem_unattributed_frac",
                         attributed < 1.0 ? 1.0 - attributed : 0.0);
      }
      bj.record("S1-mem", row->label, mem,
                {{"rss_mechanism", point.rss_mechanism}});
      ++row;
    }
    table.print();
    std::printf("shape: events stays far below the per-recipient count\n"
                "(bucketed broadcast), and the run completes within the\n"
                "default %zu-event budget at every k.\n",
                sim::Engine::kDefaultEventBudget);
  };
  exp.sections.push_back(std::move(s1));
  return exp;
}

}  // namespace asyncdr::bench
