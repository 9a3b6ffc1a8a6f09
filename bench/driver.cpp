// asyncdr_bench: runs the paper experiments of the registry below.
//
//   asyncdr_bench [--progress 1] [--timing 1] [ID...]
//
// With no ID it runs every experiment, in registry order. Each experiment
// writes BENCH_<id>.json and, when it has scenario points, the campaign's
// CAMPAIGN_<id>.json summary and bench_<id>.events.jsonl stream, all into
// $ASYNCDR_BENCH_DIR (default: the working directory). `--progress 1`
// turns on the live progress line; `--timing 1` adds the machine-dependent
// timing section to the campaign summaries. ASYNCDR_THREADS sizes the
// campaign worker pool.
//
// Exit status: 0 = every gated row held its theorem bound, 1 = some row's
// Q exceeded it (named on stderr), 2 = usage error (unknown id or flag).
#include "driver.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "campaign/runner.hpp"
#include "common/check.hpp"
#include "obs/mem.hpp"

namespace asyncdr::bench {

Summary Row::reading(const std::string& name) const {
  Summary s;
  for (const PointResult* point : points) {
    if (!point->report.ok()) continue;
    for (const auto& [key, value] : point->readings) {
      if (key == name) s.add(value);
    }
  }
  return s;
}

const Row* find_row(const std::vector<Row>& rows, const std::string& section,
                    const std::string& label) {
  for (const Row& row : rows) {
    if (row.section == section && row.label == label) return &row;
  }
  return nullptr;
}

BenchJson::BenchJson(const std::string& id) {
  doc_["schema"] = "asyncdr-bench-v1";
  doc_["bench"] = id;
  doc_["entries"] = obs::Json::array();
}

void BenchJson::record(const Row& row) {
  obs::Json e = obs::Json::object();
  e["section"] = row.section;
  e["label"] = row.label;
  e["runs"] = static_cast<std::uint64_t>(row.points.size());
  e["failures"] = static_cast<std::uint64_t>(row.failures);
  // Mean (plus min/max for Q) and exact linear-interpolated percentiles, so
  // the baselines pin tail behaviour, not just the centre.
  const auto dist = [&e](const std::string& m, const Summary& s, bool range) {
    if (s.empty()) return;
    e[m + "_mean"] = s.mean();
    if (range) {
      e[m + "_min"] = s.min();
      e[m + "_max"] = s.max();
    }
    for (int p : {50, 90, 99}) {
      e[m + "_p" + std::to_string(p)] = s.percentile(p);
    }
  };
  dist("q", row.q, true);
  dist("t", row.t, false);
  dist("m", row.m, false);
  if (!row.cp_len.empty()) {
    e["critpath_len_mean"] = row.cp_len.mean();
    e["critpath_link_mean"] = row.cp_link.mean();
    e["critpath_local_mean"] = row.cp_local.mean();
    e["critpath_reconciled"] = static_cast<std::uint64_t>(row.cp_len.count());
  }
  if (row.bound > 0) {
    e["q_bound"] = static_cast<std::uint64_t>(row.bound);
    if (!row.q.empty()) {
      e["bound_ratio"] = row.q.max() / static_cast<double>(row.bound);
    }
  }
  doc_["entries"].push_back(std::move(e));
}

void BenchJson::record(
    const std::string& section, const std::string& label,
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::vector<std::pair<std::string, std::string>>& tags) {
  obs::Json e = obs::Json::object();
  e["section"] = section;
  e["label"] = label;
  for (const auto& [metric, value] : metrics) e[metric] = value;
  for (const auto& [tag, value] : tags) e[tag] = value;
  doc_["entries"].push_back(std::move(e));
}

bool BenchJson::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << doc_.dump(2) << '\n';
  return true;
}

void add_repeats(Section& section, const std::string& series,
                 const std::string& label, std::size_t repeats,
                 const std::function<proto::Scenario(std::size_t rep)>& build,
                 std::size_t bound) {
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    section.grid.push_back({series, label, build(rep), bound});
  }
}

proto::Scenario byz_scenario(const dr::Config& cfg,
                             const proto::PeerFactory& honest,
                             const proto::PeerFactory& byzantine,
                             std::size_t rep) {
  proto::Scenario s;
  s.cfg = cfg;
  s.honest = honest;
  if (byzantine && cfg.max_faulty() > 0) {
    s.byzantine = byzantine;
    s.byz_ids = proto::pick_faulty(cfg, cfg.max_faulty(), rep);
  }
  return s;
}

std::string mean_cell(const Summary& s) {
  return s.empty() ? "-" : Table::to_cell(s.mean());
}

std::string critpath_cell(const Row& row) {
  if (row.cp_len.empty() || row.cp_len.mean() <= 0) return "-";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.0f%% link / %.0f%% local",
                100.0 * row.cp_link.mean() / row.cp_len.mean(),
                100.0 * row.cp_local.mean() / row.cp_len.mean());
  return buf;
}

namespace {

/// The registry: one row per experiment, in the order a bare
/// `asyncdr_bench` runs them.
struct Entry {
  const char* id;
  Experiment (*make)();
};
constexpr Entry kRegistry[] = {
    {"table1", table1_experiment},
    {"crash", crash_experiment},
    {"lowerbound", lowerbound_experiment},
    {"committee", committee_experiment},
    {"randomized", randomized_experiment},
    {"qc_vs_n", qc_vs_n_experiment},
    {"qc_vs_beta", qc_vs_beta_experiment},
    {"decision_tree", decision_tree_experiment},
    {"oracle", oracle_experiment},
    {"sync_vs_async", sync_vs_async_experiment},
    {"scale", scale_experiment},
    {"recovery", recovery_experiment},
};

std::string out_dir() {
  const char* dir = std::getenv("ASYNCDR_BENCH_DIR");
  return dir != nullptr && *dir != '\0' ? dir : ".";
}

/// One point's run, as the campaign job performs it.
void run_point(const BenchPoint& point, const Section& section,
               bool per_point_rss, PointResult& out) {
  proto::Scenario s = point.scenario;
  if (section.traced) {
    s.instrument = [inner = std::move(s.instrument)](dr::World& world) {
      world.enable_trace();
      if (inner) inner(world);
    };
  }
  if (section.post_run) {
    s.post_run = [&section, &out](dr::World& world,
                                  const dr::RunReport& report) {
      section.post_run(world, report, out.readings);
    };
  }
  if (!per_point_rss) {
    out.report = proto::run_scenario(s);
    return;
  }
  obs::RssTracker rss;
  rss.begin();
  // asyncdr-sema: allow(DR001) the run's real wall-clock cost, measured
  // from outside it; nothing inside the run reads this clock.
  const auto start = std::chrono::steady_clock::now();
  out.report = proto::run_scenario(s);
  // asyncdr-sema: allow(DR001) the stop stamp of the same bracket.
  const auto stop = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  out.rss_mb = static_cast<double>(rss.peak_delta_bytes()) / (1 << 20);
  out.rss_mechanism = rss.mechanism_name();
}

/// The grid runner: every scenario point of the experiment on one
/// campaign, results at their grid index.
std::vector<PointResult> run_grid(
    const std::string& id, const Experiment& exp,
    const campaign::TelemetryOptions& flags) {
  std::vector<const BenchPoint*> points;
  std::vector<const Section*> owners;
  for (const Section& section : exp.sections) {
    for (const BenchPoint& point : section.grid) {
      points.push_back(&point);
      owners.push_back(&section);
    }
  }
  std::vector<PointResult> results(points.size());
  if (points.empty()) return results;

  campaign::CampaignOptions copts;
  copts.name = id;
  copts.total = points.size();
  ASYNCDR_EXPECTS_MSG(!exp.per_point_rss || exp.threads == 1,
                      "per-point RSS needs a single worker");
  copts.threads = exp.threads;
  copts.seed_base = points.front()->scenario.cfg.seed;
  copts.seed_fn = [&points](std::size_t i) {
    return points[i]->scenario.cfg.seed;
  };
  copts.telemetry = flags;
  copts.telemetry.events_path = out_dir() + "/bench_" + id + ".events.jsonl";
  copts.telemetry.summary_path = out_dir() + "/CAMPAIGN_" + id + ".json";
  campaign::Campaign camp(std::move(copts));
  const bool per_point_rss = exp.per_point_rss;
  camp.run([&points, &owners, &results, per_point_rss](std::size_t i,
                                                        std::uint64_t) {
    run_point(*points[i], *owners[i], per_point_rss, results[i]);
    campaign::RunOutcome out;
    out.label = points[i]->section + "/" + points[i]->label;
    out.report = results[i].report;
    if (!out.report.ok()) {
      out.status = obs::RunStatus::kFailed;
      out.detail = "run failed (predicate or budget)";
    }
    return out;
  });
  camp.finish();
  return results;
}

/// Folds a section's points per (section, label), in grid order: the same
/// accumulation order as a serial repeat loop.
std::vector<Row> fold(const std::vector<BenchPoint>& grid,
                      const PointResult* results) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const BenchPoint& point = grid[i];
    const Row* found = find_row(rows, point.section, point.label);
    Row& row = found != nullptr ? rows[found - rows.data()]
                                : rows.emplace_back(Row{
                                      point.section, point.label, point.bound});
    const dr::RunReport& report = results[i].report;
    row.points.push_back(&results[i]);
    if (!report.ok()) {
      ++row.failures;
      continue;
    }
    row.q.add(static_cast<double>(report.query_complexity));
    row.t.add(report.time_complexity);
    row.m.add(static_cast<double>(report.message_complexity));
    if (report.critical_path.has_value() && report.critical_path->reconciled) {
      const obs::CriticalPathReport& cp = *report.critical_path;
      double link = 0;
      for (const obs::CriticalPathReport::Attribution& a : cp.by_edge_kind) {
        if (a.key == std::string("link")) link = a.time;
      }
      row.cp_len.add(cp.path_length);
      row.cp_link.add(link);
      row.cp_local.add(cp.path_length - cp.start_offset - link);
    }
  }
  return rows;
}

/// Runs one experiment; returns the number of rows over their bound.
std::size_t run_experiment(const std::string& id, const Experiment& exp,
                           const campaign::TelemetryOptions& flags) {
  const char* rule =
      "==============================================================";
  std::printf("\n%s\n%s\n%s\n%s\n", rule, exp.artifact.c_str(),
              exp.claim.c_str(), rule);

  const std::vector<PointResult> results = run_grid(id, exp, flags);
  BenchJson bj(id);
  std::size_t violations = 0;
  std::size_t next = 0;
  for (const Section& section : exp.sections) {
    if (!section.title.empty()) {
      std::printf("\n--- %s ---\n", section.title.c_str());
    }
    if (section.offline) {
      section.offline(bj);
      continue;
    }
    const std::vector<Row> rows = fold(section.grid, results.data() + next);
    next += section.grid.size();
    for (const Row& row : rows) {
      bj.record(row);
      if (row.bound > 0 && !row.q.empty() &&
          row.q.max() > static_cast<double>(row.bound)) {
        ++violations;
        std::fprintf(stderr, "bound violated: %s %s/%s: q_max %.0f > %zu\n",
                     id.c_str(), row.section.c_str(), row.label.c_str(),
                     row.q.max(), row.bound);
      }
    }
    section.report(rows, bj);
  }
  const std::string path = out_dir() + "/BENCH_" + id + ".json";
  std::fprintf(stderr, bj.write(path) ? "bench json: %s\n"
                                      : "warning: cannot write %s\n",
               path.c_str());
  return violations;
}

int usage(const char* bad) {
  std::fprintf(stderr, "asyncdr_bench: unknown argument '%s'\n", bad);
  std::fprintf(stderr,
               "usage: asyncdr_bench [--progress 1] [--timing 1] [ID...]\n"
               "valid ids:");
  for (const Entry& e : kRegistry) std::fprintf(stderr, " %s", e.id);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace asyncdr::bench

int main(int argc, char** argv) {
  using namespace asyncdr::bench;
  asyncdr::campaign::TelemetryOptions flags;
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const bool progress = std::strcmp(argv[i], "--progress") == 0;
    if (progress || std::strcmp(argv[i], "--timing") == 0) {
      if (i + 1 >= argc) return usage(argv[i]);
      const bool on = std::strtoul(argv[++i], nullptr, 10) != 0;
      (progress ? flags.progress : flags.include_timing) = on;
      continue;
    }
    const Entry* match = nullptr;
    for (const Entry& e : kRegistry) {
      if (std::strcmp(argv[i], e.id) == 0) match = &e;
    }
    if (match == nullptr) return usage(argv[i]);
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Entry& e : kRegistry) selected.push_back(&e);
  }
  std::size_t violations = 0;
  for (const Entry* e : selected) {
    violations += run_experiment(e->id, e->make(), flags);
  }
  return violations > 0 ? 1 : 0;
}
