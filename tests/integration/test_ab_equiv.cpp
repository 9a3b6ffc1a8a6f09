// Golden network traces: six protocol scenarios plus a crash-recovery run,
// each pinned to tests/integration/golden_traces.json. An entry records a
// 64-bit FNV-1a digest of the rendered trace text and its event count, the
// full RunReport::to_string() (so the bucketed engine event count is pinned
// too), and the sim.msg.payloads peak. The goldens were generated while the
// legacy dense link layout still existed and agreed byte-for-byte with the
// flyweight layout on every scenario here, so they stand in for that
// reference: any change to delivery order, link reservations, bucketing or
// payload accounting shows up as a drift. Regenerate deliberately with
//   ASYNCDR_WRITE_GOLDEN=1 ./test_ab_equiv
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "adversary/crash_plan.hpp"
#include "chaos/stressors.hpp"
#include "common/rng.hpp"
#include "dr/world.hpp"
#include "obs/json.hpp"
#include "protocols/runner.hpp"
#include "sim/trace.hpp"

#ifndef ASYNCDR_SOURCE_DIR
#define ASYNCDR_SOURCE_DIR "."
#endif

namespace asyncdr {
namespace {

using obs::Json;

/// 64-bit FNV-1a over the rendered trace, as a fixed-width hex string
/// (JSON numbers are doubles and cannot carry 64 bits exactly).
std::string fnv1a64_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Runs the scenario traced and renders its golden entry.
Json run_traced(proto::Scenario s, bool expect_payload_traffic) {
  Json entry = Json::object();
  auto inner = std::move(s.instrument);
  s.instrument = [inner = std::move(inner)](dr::World& world) {
    world.enable_trace();
    if (inner) inner(world);
  };
  s.post_run = [&](dr::World& world, const dr::RunReport& report) {
    const sim::Trace* trace = world.trace();
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->dropped_events(), 0u);  // a truncated trace proves nothing
    ASSERT_FALSE(trace->events().empty());
    EXPECT_TRUE(report.ok()) << report.to_string();
    std::string text;
    for (const sim::TraceEvent& ev : trace->events()) {
      text += ev.to_string();
      text += '\n';
    }
    std::uint64_t payload_pool_peak = 0;
    for (const obs::MemPoolStats& pool : report.mem_pools) {
      if (pool.name == "sim.msg.payloads") payload_pool_peak = pool.peak;
    }
    if (expect_payload_traffic) {
      EXPECT_GT(payload_pool_peak, 0u);
    }
    entry["trace_fnv1a64"] = fnv1a64_hex(text);
    entry["trace_events"] =
        static_cast<std::uint64_t>(trace->events().size());
    entry["report"] = report.to_string();
    entry["payload_pool_peak"] = payload_pool_peak;
  };
  proto::run_scenario(s);
  return entry;
}

std::string golden_path() {
  return std::string(ASYNCDR_SOURCE_DIR) +
         "/tests/integration/golden_traces.json";
}

std::optional<Json> load_goldens() {
  std::ifstream in(golden_path(), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void expect_golden(const char* name, const proto::Scenario& s,
                   bool expect_payload_traffic = true) {
  SCOPED_TRACE(name);
  Json entry = run_traced(s, expect_payload_traffic);
  if (std::getenv("ASYNCDR_WRITE_GOLDEN") != nullptr) {
    Json doc = load_goldens().value_or(Json::object());
    doc[name] = std::move(entry);
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << doc.dump(1) << "\n";
    GTEST_SKIP() << "golden entry regenerated: " << name;
  }
  const std::optional<Json> doc = load_goldens();
  ASSERT_TRUE(doc.has_value())
      << "missing or unparsable golden file " << golden_path()
      << " (regenerate with ASYNCDR_WRITE_GOLDEN=1)";
  const Json* want = doc->find(name);
  ASSERT_NE(want, nullptr) << "no golden entry (regenerate with "
                              "ASYNCDR_WRITE_GOLDEN=1)";
  EXPECT_EQ(entry.dump(1), want->dump(1))
      << "trace, report or payload peak drifted from the committed golden";
}

dr::Config small_cfg(std::size_t n, std::size_t k, double beta,
                     std::uint64_t seed, std::size_t message_bits = 256) {
  return dr::Config{
      .n = n, .k = k, .beta = beta, .message_bits = message_bits, .seed = seed};
}

// The randomized-committee protocols need k large enough that RandParams
// does not fall back to naive (see test_byz2cycle); everything else runs at
// genuinely small k so the suite stays fast.
dr::Config rand_cfg(std::uint64_t seed) {
  return small_cfg(1 << 12, 128, 0.125, seed, /*message_bits=*/1024);
}

TEST(GoldenTraces, NaiveFaultFree) {
  proto::Scenario s;
  s.cfg = small_cfg(256, 4, 0.0, 101, 128);
  s.honest = proto::make_naive();
  // Naive peers query the source directly -- no peer-to-peer payloads.
  expect_golden("naive", s, /*expect_payload_traffic=*/false);
}

TEST(GoldenTraces, CrashOneFixedLatencyBucketsMultipleRecipients) {
  // FixedLatency collapses every broadcast's arrivals onto one instant:
  // maximal bucket occupancy, the fan-out's most aggressive batching.
  proto::Scenario s;
  s.cfg = small_cfg(512, 8, 0.125, 102);
  s.honest = proto::make_crash_one();
  s.latency = proto::fixed_latency(1.0);
  s.crashes.add_at_time(3, 0.7);
  expect_golden("crash_one", s);
}

TEST(GoldenTraces, CrashMultiWithMidBroadcastHookCrash) {
  // add_after_sends drives the pre-send hook: the sender dies between the
  // individual sends of a broadcast, cutting a prefix and burning exactly
  // the message ids of the sends that went out.
  proto::Scenario s;
  s.cfg = small_cfg(1024, 6, 0.34, 103);
  s.honest = proto::make_crash_multi();
  s.crashes.add_after_sends(1, 3);
  s.crashes.add_at_time(4, 1.3);
  expect_golden("crash_multi", s);
}

TEST(GoldenTraces, CommitteeUnderLiarsAndDeliveryStressor) {
  // The stressor samples its RNG per recipient (copies, then extra delay per
  // copy): the bucketed broadcast must consume the stream in recipient
  // order or every later delay diverges.
  proto::Scenario s;
  s.cfg = small_cfg(256, 8, 0.25, 104, 1024);
  s.honest = proto::make_committee();
  s.byzantine =
      proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 104);
  s.latency = proto::fixed_latency(0.5);
  s.stressor = chaos::make_chaos_stressor(
      {.duplicate_prob = 0.4, .burst_prob = 0.3, .hold_max = 2.0});
  expect_golden("committee", s);
}

TEST(GoldenTraces, TwoCycleUnderVoteStuffing) {
  proto::Scenario s;
  s.cfg = rand_cfg(105);
  s.honest = proto::make_two_cycle(2.0);
  s.byzantine = proto::make_vote_stuffer(2.0, /*target_segment=*/0);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 105);
  expect_golden("two_cycle", s);
}

TEST(GoldenTraces, MultiCycleUnderSilentByzantine) {
  proto::Scenario s;
  s.cfg = rand_cfg(106);
  s.honest = proto::make_multi_cycle(2.0);
  s.byzantine = proto::make_silent_byz();
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 106);
  expect_golden("multi_cycle", s);
}

TEST(GoldenTraces, CrashMultiRecoveryRestarts) {
  // The revive path: two peers crash while their multi-unit payloads still
  // hold outgoing link reservations, one more dies at a journal sentinel,
  // and all three come back as fresh incarnations. Pins revive()'s
  // reservation reset and its stale-inbox gate.
  proto::Scenario s;
  s.cfg = small_cfg(1024, 8, 0.5, 107, /*message_bits=*/64);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  s.crashes.add_at_time(1, 1.0);
  s.crashes.add_at_time(6, 2.0);
  s.crashes.add_restart_after(1, 4.0);
  s.crashes.add_restart_after(6, 5.0);
  proto::RecoveryPlan::CrashPointKill kill;
  kill.peer = 3;
  kill.point = dr::CrashPoint::kAppendCommit;
  kill.nth = 1;
  kill.restart_delay = 1.0;
  s.recovery.kills.push_back(kill);
  expect_golden("crash_multi_recovery", s);
}

}  // namespace
}  // namespace asyncdr
