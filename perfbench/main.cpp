// perfbench — the paper-regime benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest 1
//
// A workload is a fixed list of scenarios (configuration seeds 1..L, see
// workloads.cpp); --seed only generates their inputs X. A run executes the
// first scenario once untimed (warm-up), then repeats the whole list in
// rounds, back to back on one thread, until the next round would end past
// --seconds. Every output is checked against the X generated here, and the
// counts the program reports are checked against the benchmark's own
// tallies (see check()). The last stdout line is one JSON object with the
// scenario counts and, per metric, the median over the run's rounds:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

namespace proto = asyncdr::proto;
namespace dr = asyncdr::dr;
namespace sim = asyncdr::sim;
using perfbench::Clock;
using perfbench::seconds_since;

using Values = std::map<std::string, double>;

/// Which tally the self-test corrupts before the checks run.
enum class Corruption { kNone, kOutputBit, kQueryTally };

struct Metric {
  std::string name;
  const char* unit;
};

// Both lists must match BENCHMARK.json.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},      {"run_s", "s"},   {"deliveries_per_s", "1/s"},
    {"peak_rss_mb", "MB"}, {"q_bits", "bits"}, {"source_bits", "bits"},
    {"m_msgs", "messages"},
};

const std::vector<std::string> kPools = {
    "sim.engine.heap", "sim.network.links", "sim.network.fanout",
    "sim.msg.payloads", "dr.peer.state", "dr.source", "dr.journal",
    "obs.trace"};

/// Phases broken out per name (the ones the four workloads run). A phase
/// outside this list still counts in protocols.rounds_run.
const std::vector<std::string> kPhases = {
    "round-1", "round-2", "round-3", "round-4", "complete", "cycle-1",
    "cycle-2", "committee-query+vote", "vote-collection"};

std::string phase_metric(const std::string& phase, const char* what) {
  std::string name = "phase." + phase + "." + what;
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> all = {{"protocols.factory_s", "s"},
                             {"dr.world.build_s", "s"},
                             {"protocols.handler_s", "s"}};
  for (const char* kind : perfbench::kPayloadKindNames) {
    all.push_back({std::string("protocols.handler_s.") + kind, "s"});
  }
  for (Metric m : std::vector<Metric>{
           {"protocols.handler_calls", "count"},
           {"protocols.handler_us_per_call", "us"},
           {"sim.dispatch_s", "s"},
           {"traced.run_s", "s"},
           {"sim.engine.events", "count"},
           {"sim.network.sends", "count"},
           {"sim.network.deliveries", "count"},
           {"sim.network.deliveries_per_event", "ratio"},
           {"sim.network.active_links", "count"},
           {"sim.payload_bank.intern_hits", "count"},
           {"sim.payload_bank.hit_ratio", "ratio"},
           {"dr.source.query_calls", "count"},
           {"dr.source.bits", "bits"}}) {
    all.push_back(std::move(m));
  }
  for (const std::string& pool : kPools) all.push_back({"mem." + pool, "MB"});
  all.push_back({"mem.total", "MB"});
  all.push_back({"mem.attributed_frac", "ratio"});
  for (const std::string& phase : kPhases) {
    all.push_back({phase_metric(phase, "q_bits"), "bits"});
    all.push_back({phase_metric(phase, "m_msgs"), "messages"});
  }
  all.push_back({"protocols.rounds_run", "count"});
  return all;
}

/// One finished scenario: its verdict, the figures it adds to its round,
/// and a fingerprint of its deterministic results.
struct Outcome {
  std::string failure;  ///< empty = passed every check
  Values values;
  std::string fingerprint;
};

std::vector<bool> faulty_set(const proto::Scenario& s) {
  std::vector<bool> faulty(s.cfg.k, false);
  for (sim::PeerId id : s.byz_ids) faulty[id] = true;
  for (const auto& spec : s.crashes.specs()) faulty[spec.peer] = true;
  return faulty;
}

/// What the benchmark observed of one run, apart from the report.
struct Observed {
  std::vector<std::uint64_t> queried;  ///< per-peer bits, from the listener
  std::uint64_t query_calls = 0;       ///< batches by nonfaulty peers
  std::uint64_t bank_live_refs = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t active_links = 0;
};

/// The output checks. Empty when the run is correct and every count the
/// program reports matches the benchmark's own tally.
std::string check(const perfbench::Workload& w, const proto::Scenario& s,
                  const std::vector<bool>& faulty, const dr::RunReport& report,
                  const Observed& seen, const perfbench::TrafficTally& tally) {
  const dr::Config& cfg = s.cfg;
  if (!report.ok()) {
    return report.stall.empty() ? "run not ok" : "run not ok: " + report.stall;
  }
  std::size_t q = 0;
  for (sim::PeerId id = 0; id < cfg.k; ++id) {
    if (seen.queried[id] != report.per_peer_queries[id]) {
      return "query tally of peer " + std::to_string(id) + " is " +
             std::to_string(seen.queried[id]) + ", report says " +
             std::to_string(report.per_peer_queries[id]);
    }
    if (faulty[id]) continue;
    q = std::max<std::size_t>(q, seen.queried[id]);
    if (report.outputs[id] != *s.input) {
      return "peer " + std::to_string(id) + " output differs from X";
    }
  }
  if (q != report.query_complexity) return "Q is not the tally's maximum";
  if (tally.nonfaulty_units != report.message_complexity) {
    return "observed " + std::to_string(tally.nonfaulty_units) +
           " nonfaulty unit messages, M is " +
           std::to_string(report.message_complexity);
  }
  if (tally.deliveries != seen.deliveries) {
    return "observed " + std::to_string(tally.deliveries) +
           " deliveries, the network counted " +
           std::to_string(seen.deliveries);
  }
  if (seen.bank_live_refs != seen.in_flight) {
    return "payload bank holds " + std::to_string(seen.bank_live_refs) +
           " refs for " + std::to_string(seen.in_flight) + " in flight";
  }
  return w.guard(cfg, report);
}

Outcome run_one(const perfbench::Workload& w, perfbench::Shape shape,
                std::uint64_t seed, std::uint64_t input_seed, bool traced,
                Corruption corruption = Corruption::kNone) {
  Outcome out;
  proto::Scenario s = w.build(shape, seed, input_seed);
  const std::vector<bool> faulty = faulty_set(s);
  const std::size_t k = s.cfg.k;

  double factory_s = 0;
  if (traced) {
    for (proto::PeerFactory* f : {&s.honest, &s.byzantine}) {
      if (*f == nullptr) continue;
      *f = [inner = *f, &factory_s](const dr::Config& cfg, sim::PeerId id) {
        const Clock::time_point t0 = Clock::now();
        auto peer = inner(cfg, id);
        factory_s += seconds_since(t0);
        return peer;
      };
    }
    // So the RSS delta below is this scenario's own. Untraced runs skip
    // it: handing pages back and faulting them in again made their run
    // times swing more.
    malloc_trim(0);
  }

  Observed seen;
  seen.queried.assign(k, 0);
  perfbench::TrafficTally tally(faulty);
  perfbench::HandlerClock handlers;
  std::vector<std::unique_ptr<sim::Receiver>> timers;
  Clock::time_point run_start;
  double run_s = 0;
  s.instrument = [&](dr::World& world) {
    world.add_query_listener([&](sim::PeerId peer, std::size_t bits) {
      seen.queried[peer] += bits;
      if (!faulty[peer]) ++seen.query_calls;
    });
    world.add_observer(&tally);
    if (traced) timers = perfbench::attach_handler_timers(world, handlers);
    run_start = Clock::now();
  };
  std::uint64_t rss_at_end = 0;
  s.post_run = [&](dr::World& world, const dr::RunReport&) {
    run_s = seconds_since(run_start);
    const sim::Network& net = world.network();
    seen.bank_live_refs = net.payload_bank().live_refs();
    seen.in_flight = net.total_in_flight();
    seen.deliveries = net.total_deliveries();
    seen.intern_hits = net.payload_bank().interned_payloads();
    seen.active_links = net.active_links();
    if (traced) rss_at_end = perfbench::current_rss_bytes();
  };

  const std::uint64_t rss_before = traced ? perfbench::current_rss_bytes() : 0;
  dr::RunReport report;
  const Clock::time_point t0 = Clock::now();
  try {
    report = proto::run_scenario(s);
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
    return out;
  }
  const double setup_s =
      std::chrono::duration<double>(run_start - t0).count();

  switch (corruption) {
    case Corruption::kNone:
      break;
    case Corruption::kOutputBit: {
      const auto id = static_cast<sim::PeerId>(
          std::find(faulty.begin(), faulty.end(), false) - faulty.begin());
      report.outputs[id].flip(report.outputs[id].size() / 2);
      break;
    }
    case Corruption::kQueryTally: {
      const auto id = static_cast<sim::PeerId>(
          std::find(faulty.begin(), faulty.end(), false) - faulty.begin());
      ++seen.queried[id];
      break;
    }
  }
  out.failure = check(w, s, faulty, report, seen, tally);

  std::ostringstream fp;
  fp << report.query_complexity << '/' << report.message_complexity << '/'
     << report.total_queries << '/' << report.events << '/'
     << report.time_complexity;
  out.fingerprint = fp.str();

  Values& v = out.values;
  v["setup_s"] = setup_s;
  v["run_s"] = run_s;
  v["deliveries"] = static_cast<double>(seen.deliveries);
  v["q_bits"] = static_cast<double>(report.query_complexity);
  v["source_bits"] = static_cast<double>(report.total_queries);
  v["m_msgs"] = static_cast<double>(report.message_complexity);
  v["virtual_t"] = report.time_complexity;
  if (!traced) return out;

  v["protocols.factory_s"] = factory_s;
  v["protocols.handler_s"] = handlers.total_seconds();
  for (std::size_t i = 0; i < perfbench::kPayloadKinds; ++i) {
    v[std::string("protocols.handler_s.") + perfbench::kPayloadKindNames[i]] =
        handlers.seconds[i];
  }
  v["protocols.handler_calls"] = static_cast<double>(handlers.calls);
  v["sim.engine.events"] = static_cast<double>(report.events);
  v["sim.network.sends"] = static_cast<double>(tally.sends);
  v["sim.network.send_ops"] = static_cast<double>(tally.send_ops);
  v["sim.network.deliveries"] = static_cast<double>(tally.deliveries);
  v["sim.network.active_links"] = static_cast<double>(seen.active_links);
  v["sim.payload_bank.intern_hits"] = static_cast<double>(seen.intern_hits);
  v["dr.source.query_calls"] = static_cast<double>(seen.query_calls);
  double source_bits = 0;
  for (sim::PeerId id = 0; id < k; ++id) {
    if (!faulty[id]) source_bits += static_cast<double>(seen.queried[id]);
  }
  v["dr.source.bits"] = source_bits;
  for (const auto& pool : report.mem_pools) {
    v["mem." + pool.name] = static_cast<double>(pool.peak);
  }
  v["mem.total"] = static_cast<double>(report.mem_total_peak);
  v["rss_delta"] = rss_at_end > rss_before
                       ? static_cast<double>(rss_at_end - rss_before)
                       : 0.0;
  double rounds_run = 0;
  for (const auto& p : report.phases) {
    if (p.bits_queried > 0 || p.unit_messages > 0) ++rounds_run;
    v[phase_metric(p.name, "q_bits")] += static_cast<double>(p.bits_queried);
    v[phase_metric(p.name, "m_msgs")] += static_cast<double>(p.unit_messages);
  }
  v["protocols.rounds_run"] = rounds_run;
  return out;
}

double get(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Turns one round's sums into reported metrics. Times are summed over the
/// round; counts, bits and bytes are means per scenario.
Values round_metrics(const Values& sum, std::size_t scenarios, bool traced) {
  const auto per = [&](const std::string& key) {
    return get(sum, key) / static_cast<double>(scenarios);
  };
  constexpr double kMB = 1024.0 * 1024.0;
  Values m;
  m["setup_s"] = get(sum, "setup_s");
  m["run_s"] = get(sum, "run_s");
  m["deliveries_per_s"] = ratio(get(sum, "deliveries"), get(sum, "run_s"));
  m["q_bits"] = per("q_bits");
  m["source_bits"] = per("source_bits");
  m["m_msgs"] = per("m_msgs");
  m["virtual_t"] = per("virtual_t");
  if (!traced) return m;

  const double handler_s = get(sum, "protocols.handler_s");
  m["protocols.factory_s"] = get(sum, "protocols.factory_s");
  m["dr.world.build_s"] = get(sum, "setup_s") - get(sum, "protocols.factory_s");
  m["protocols.handler_s"] = handler_s;
  for (const char* kind : perfbench::kPayloadKindNames) {
    const std::string key = std::string("protocols.handler_s.") + kind;
    m[key] = get(sum, key);
  }
  m["protocols.handler_calls"] = per("protocols.handler_calls");
  m["protocols.handler_us_per_call"] =
      1e6 * ratio(handler_s, get(sum, "protocols.handler_calls"));
  m["sim.dispatch_s"] = get(sum, "run_s") - handler_s;
  m["traced.run_s"] = get(sum, "run_s");
  for (const char* key : {"sim.engine.events", "sim.network.sends",
                          "sim.network.deliveries", "sim.network.active_links",
                          "sim.payload_bank.intern_hits",
                          "dr.source.query_calls", "dr.source.bits",
                          "protocols.rounds_run"}) {
    m[key] = per(key);
  }
  m["sim.network.deliveries_per_event"] =
      ratio(get(sum, "sim.network.deliveries"), get(sum, "sim.engine.events"));
  m["sim.payload_bank.hit_ratio"] =
      ratio(get(sum, "sim.payload_bank.intern_hits"),
            get(sum, "sim.network.send_ops"));
  for (const std::string& pool : kPools) {
    m["mem." + pool] = per("mem." + pool) / kMB;
  }
  m["mem.total"] = per("mem.total") / kMB;
  m["mem.attributed_frac"] =
      ratio(get(sum, "mem.total"), get(sum, "rss_delta"));
  for (const std::string& phase : kPhases) {
    for (const char* what : {"q_bits", "m_msgs"}) {
      const std::string key = phase_metric(phase, what);
      m[key] = per(key);
    }
  }
  return m;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

/// The input seed of scenario `index` in a run with workload seed
/// `run_seed`. Scenario seeds themselves are fixed: 1..round_length.
std::uint64_t input_seed(std::uint64_t run_seed, std::size_t index) {
  return run_seed * 1000003ull + index;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1>\n       perfbench --selftest 1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--selftest") {
        a.selftest = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  return a;
}

/// Runs every workload's self-test shape clean, with one output bit flipped,
/// and with one query tally bumped; the last two must count as failed.
int selftest() {
  int bad = 0;
  for (const perfbench::Workload& w : perfbench::workloads()) {
    for (const auto& [corruption, label] :
         std::vector<std::pair<Corruption, const char*>>{
             {Corruption::kNone, "clean"},
             {Corruption::kOutputBit, "output-bit"},
             {Corruption::kQueryTally, "query-tally"}}) {
      const Outcome o =
          run_one(w, w.selftest_shape, 1, 1, /*traced=*/false, corruption);
      const bool want_fail = corruption != Corruption::kNone;
      const bool as_expected = o.failure.empty() != want_fail;
      std::cout << "selftest " << w.name << ' ' << label << ": "
                << (o.failure.empty() ? "passed" : "failed (" + o.failure + ")")
                << (as_expected ? "" : "  <-- UNEXPECTED") << '\n';
      if (!as_expected) ++bad;
    }
  }
  std::cout << (bad == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return bad == 0 ? 0 : 1;
}

void print_number(std::ostream& os, double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  os << buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.selftest) return selftest();
  const perfbench::Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  const std::size_t per_round = w->round_length;
  bool correct = true;
  std::vector<std::string> fingerprints(per_round);
  const Outcome warm =
      run_one(*w, w->shape, 1, input_seed(args.seed, 0), args.trace);
  if (!warm.failure.empty()) {
    std::cerr << "warm-up scenario failed: " << warm.failure << '\n';
    correct = false;
  }
  fingerprints[0] = warm.fingerprint;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Values> rounds;
  const Clock::time_point start = Clock::now();
  double last_round_s = 0;
  do {
    const Clock::time_point round_start = Clock::now();
    Values sum;
    for (std::size_t i = 0; i < per_round; ++i) {
      const Outcome o =
          run_one(*w, w->shape, i + 1, input_seed(args.seed, i), args.trace);
      ++attempted;
      if (!o.failure.empty()) {
        ++failed;
        std::cerr << w->name << " scenario " << i + 1
                  << " failed: " << o.failure << '\n';
      }
      // Every round repeats the same scenarios: results must repeat exactly.
      if (fingerprints[i].empty()) fingerprints[i] = o.fingerprint;
      if (fingerprints[i] != o.fingerprint) {
        std::cerr << w->name << " scenario " << i + 1
                  << " is not deterministic: " << fingerprints[i] << " then "
                  << o.fingerprint << '\n';
        correct = false;
      }
      for (const auto& [key, value] : o.values) sum[key] += value;
    }
    rounds.push_back(round_metrics(sum, per_round, args.trace));
    last_round_s = seconds_since(round_start);
    std::cerr << w->name << " round " << rounds.size()
              << ": run_s=" << get(rounds.back(), "run_s")
              << " setup_s=" << get(rounds.back(), "setup_s")
              << '\n';
  } while (seconds_since(start) + last_round_s <= args.seconds);

  Values result;
  for (const auto& [key, unused] : rounds.front()) {
    std::vector<double> xs;
    for (const Values& r : rounds) xs.push_back(get(r, key));
    result[key] = median(xs);
  }
  result["peak_rss_mb"] =
      static_cast<double>(perfbench::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::cerr << w->name << ": " << rounds.size() << " rounds of "
            << per_round << " scenarios, median virtual T "
            << get(result, "virtual_t") << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics() : kEndToEnd;
  // `correct` is false only if the warm-up failed or a repeated scenario
  // gave different results; failed scenarios are counted in `failed`.
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
         << "\": {\"value\": ";
    print_number(json, get(result, metrics[i].name));
    json << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
