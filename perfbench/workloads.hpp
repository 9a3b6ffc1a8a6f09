// The benchmark's workloads. Each one builds a complete Scenario from
// a configuration seed and an input seed (the input X is generated here,
// not by the program), and states the regime it claims to measure as a
// guard the finished report must pass. A smaller self-test shape of every
// workload keeps the same regime at a size the self-test runs in well
// under a second.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "dr/world.hpp"
#include "protocols/runner.hpp"

namespace perfbench {

/// The benchmark's own input generator: n bits from a SplitMix64 stream.
asyncdr::BitVec make_input(std::size_t n, std::uint64_t seed);

/// Peers and input bits of one scenario.
struct Shape {
  std::size_t k;
  std::size_t n;
};

struct Workload {
  const char* name;
  /// Scenario seeds run back to back in one round; every round of a run
  /// repeats the same list, so each round does the same work.
  std::size_t round_length;
  Shape shape;
  Shape selftest_shape;
  /// Builds one scenario: `seed` fixes the configuration seed (peer and
  /// latency randomness, crash schedule, Byzantine IDs); `input_seed`
  /// generates the input X.
  asyncdr::proto::Scenario (*build)(Shape shape, std::uint64_t seed,
                                    std::uint64_t input_seed);
  /// Empty when the report is in the workload's regime and matches its
  /// closed forms; otherwise why not.
  std::string (*guard)(const asyncdr::dr::Config& cfg,
                       const asyncdr::dr::RunReport& report);
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
