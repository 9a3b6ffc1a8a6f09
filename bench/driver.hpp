// The paper-experiment driver behind `asyncdr_bench` (registry and CLI in
// driver.cpp). An experiment is a list of sections. A scenario section's
// grid of BenchPoints runs on the campaign substrate; the driver folds the
// reports per (section, label) in grid order -- the sums of a serial repeat
// loop, bit for bit -- gates each row against its theorem bound, records
// it, and hands the rows to the section's report to print. An offline
// section is a plain function that prints and records on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "protocols/bounds.hpp"
#include "protocols/runner.hpp"

namespace asyncdr::bench {

namespace bounds = proto::bounds;

/// Named values a section's post_run reads off one finished run. A name may
/// repeat (one value per honest peer, say).
using Readings = std::vector<std::pair<std::string, double>>;

/// One grid point: a ready-to-run scenario (its campaign seed is
/// scenario.cfg.seed) and the (section, label) row it folds into. A
/// non-zero `bound` gates the row: every successful run's Q must stay
/// within it.
struct BenchPoint {
  std::string section;
  std::string label;
  proto::Scenario scenario;
  std::size_t bound = 0;
};

/// One run as the section's report sees it.
struct PointResult {
  dr::RunReport report;
  Readings readings;  ///< the section's post_run values
  // Experiment::per_point_rss only: the run's wall time, its peak-RSS delta
  // and how that was taken (see obs/mem.hpp).
  double wall_ms = 0;
  double rss_mb = 0;
  std::string rss_mechanism;
};

/// One (section, label) row, folded from its points in grid order: Q/T/M
/// over the successful runs, and on traced sections the critical path's
/// length (== T on reconciled runs), link-latency share and local residue.
struct Row {
  std::string section;
  std::string label;
  std::size_t bound = 0;
  std::vector<const PointResult*> points{};  ///< grid order, failed too
  std::size_t failures = 0;
  Summary q{}, t{}, m{};
  Summary cp_len{}, cp_link{}, cp_local{};

  /// One post_run reading over the row's successful runs.
  [[nodiscard]] Summary reading(const std::string& name) const;
};

/// The row with this key, or null.
const Row* find_row(const std::vector<Row>& rows, const std::string& section,
                    const std::string& label);

/// Machine-readable twin of the printed tables: entries keyed by (section,
/// label), written as BENCH_<id>.json (schema asyncdr-bench-v1) into
/// $ASYNCDR_BENCH_DIR, or the working directory when unset. CI diffs fresh
/// files against the committed baselines with tools/compare_bench.py.
class BenchJson {
 public:
  explicit BenchJson(const std::string& id);

  /// A folded row: runs, failures, Q/T/M mean and percentiles, the
  /// critical-path means on traced rows, and the bound it is gated by.
  void record(const Row& row);

  /// Named scalars under one (section, label) key, with optional string
  /// tags alongside (the comparator skips non-numeric fields).
  void record(const std::string& section, const std::string& label,
              const std::vector<std::pair<std::string, double>>& metrics,
              const std::vector<std::pair<std::string, std::string>>& tags =
                  {});

  /// Writes the file; returns false if it cannot be opened.
  bool write(const std::string& path) const;

 private:
  obs::Json doc_ = obs::Json::object();
};

struct Section {
  /// Printed as "--- title ---" before the section's output; empty = none.
  std::string title{};

  // ---- Scenario section ----
  std::vector<BenchPoint> grid{};
  /// Trace each run so its critical path lands in the cp_* fields.
  bool traced = false;
  /// Reads the world after each run (world-owned state a report lacks).
  std::function<void(dr::World&, const dr::RunReport&, Readings&)> post_run{};
  /// Prints the section from its rows (grid order); records any entries
  /// beyond the per-row ones the driver writes.
  std::function<void(const std::vector<Row>&, BenchJson&)> report{};

  // ---- Offline section: no grid; prints and records on its own ----
  std::function<void(BenchJson&)> offline{};
};

struct Experiment {
  std::string artifact;  ///< the paper artifact (banner line 1)
  std::string claim;     ///< what it shows (banner line 2)
  std::vector<Section> sections;
  /// Campaign workers; 0 = auto (ASYNCDR_THREADS, else the core count).
  std::size_t threads = 0;
  /// Bracket each point with wall-time and peak-RSS measurements. Needs
  /// threads = 1: per-point RSS means nothing once points overlap.
  bool per_point_rss = false;
};

/// Appends `repeats` points of one row; rep r runs build(r).
void add_repeats(Section& section, const std::string& series,
                 const std::string& label, std::size_t repeats,
                 const std::function<proto::Scenario(std::size_t rep)>& build,
                 std::size_t bound = 0);

/// `honest` peers under cfg; when `byzantine` is set and t > 0, the max t
/// peers (picked with salt `rep`) run it instead.
proto::Scenario byz_scenario(const dr::Config& cfg,
                             const proto::PeerFactory& honest,
                             const proto::PeerFactory& byzantine,
                             std::size_t rep);

/// Table cell for a summary's mean; "-" when it has no samples.
std::string mean_cell(const Summary& s);

/// "NN% link / NN% local" for a traced row's critical path.
std::string critpath_cell(const Row& row);

// ---- The registry's experiments (one function each, bench/exp_*.cpp) ----
Experiment table1_experiment();
Experiment crash_experiment();
Experiment lowerbound_experiment();
Experiment committee_experiment();
Experiment randomized_experiment();
Experiment qc_vs_n_experiment();
Experiment qc_vs_beta_experiment();
Experiment decision_tree_experiment();
Experiment oracle_experiment();
Experiment sync_vs_async_experiment();
Experiment scale_experiment();
Experiment recovery_experiment();

}  // namespace asyncdr::bench
