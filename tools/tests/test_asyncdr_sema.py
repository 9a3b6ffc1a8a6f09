"""Unit tests for tools/asyncdr_sema.py.

Runs the analyzer in-process (main() returns the exit status) against
synthetic trees, one fixture per rule in each of the states the triage
contract cares about: positive (finding fires), negative (the idiom that is
actually fine), suppressed (allow() with a justification), and
baseline-matched (known finding tolerated, new one still fatal). Plus the
gate the repo ships with: the real tree under the fallback frontend must be
clean against the checked-in baseline, and a copy of it with a model
violation injected must not be.

unittest-style on purpose: runnable by both `python3 -m unittest` (what
ctest invokes; no third-party deps) and pytest.
"""

import importlib.util
import io
import json
import os
import shutil
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(TOOLS_DIR)

spec = importlib.util.spec_from_file_location(
    "asyncdr_sema", os.path.join(TOOLS_DIR, "asyncdr_sema.py"))
sema = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sema)


def run_sema(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = sema.main(list(argv))
    return status, out.getvalue() + err.getvalue()


class TreeCase(unittest.TestCase):
    """Base: a scratch repo root with helpers to drop files into it."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="asyncdr-sema-test-")
        self.addCleanup(shutil.rmtree, self.root)
        os.makedirs(os.path.join(self.root, "src"))

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def sema(self, *extra):
        return run_sema("--root", self.root, "--frontend", "fallback",
                        "--no-baseline", *extra)


# ------------------------------------------------------------- DR rules

CLEAN_CPP = """\
#include "common/util.hpp"
namespace asyncdr {
int f() { return 1; }
}  // namespace asyncdr
"""

RUNNER_WITH_FOO = ("namespace asyncdr {\n"
                   "auto f = std::make_unique<FooPeer>();\n}\n")
FOO_WITHOUT_PHASE = ("namespace asyncdr {\n"
                     "void FooPeer::on_start() { query(0); }\n}\n")


class DRRules(TreeCase):
    def test_clean_tree_passes(self):
        self.write("src/common/util.hpp",
                   "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/util.cpp", CLEAN_CPP)
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr001_wall_clock(self):
        self.write("src/sim/clock.cpp",
                   "namespace asyncdr {\n"
                   "auto t = std::chrono::steady_clock::now();\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("src/sim/clock.cpp:2: DR001", out)

    def test_dr001_time_call_but_not_identifiers_containing_time(self):
        self.write("src/sim/clock.cpp",
                   "namespace asyncdr {\n"
                   "double a = termination_time();\n"
                   "long b = time(nullptr);\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("clock.cpp:3", out)
        self.assertNotIn("clock.cpp:2", out)

    def test_dr002_random_device(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\nstd::random_device rd;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR002", out)

    def test_dr002_exempts_rng_files(self):
        self.write("src/common/rng.cpp",
                   "namespace asyncdr {\nstd::mt19937 gen(42);\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr002_ignores_comments_and_strings(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "// std::random_device would break determinism\n"
                   'const char* s = "rand()";\n}\n')
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr002_ignores_interior_of_block_comment(self):
        # The stripper works on the whole file: a line inside /* ... */ is
        # prose even though it carries no comment token of its own.
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "/* Determinism note:\n"
                   "   std::random_device is forbidden here\n"
                   "*/\n"
                   "int x = 0;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr003_source_internals(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   "void f(W& w) { w.source().set_overlay(0, fake); }\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR003", out)

    def test_dr003_exempts_oracle_and_source(self):
        self.write("src/oracle/dyn.cpp",
                   "namespace asyncdr {\n"
                   "void f(W& w) { w.source().set_data(BitVec{}); }\n}\n")
        self.write("src/dr/source.cpp",
                   "namespace asyncdr {\n"
                   "void Source::reset_accounting() {}\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr004_stdout_in_src_only(self):
        self.write("src/common/a.cpp",
                   'namespace asyncdr {\nvoid f() { std::cout << 1; }\n}\n')
        self.write("examples/cli.cpp", 'int main() { std::cout << 1; }\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("src/common/a.cpp:2: DR004", out)
        self.assertNotIn("examples/cli.cpp", out)

    def test_dr004_console_input(self):
        # std::cin is an iostream sink for DR004 as for SA001 (one table).
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\nint n = 0;\n"
                   "void f() { std::cin >> n; }\n}\n")
        status, out = self.sema("--rules", "DR004")
        self.assertEqual(status, 1)
        self.assertIn("src/common/a.cpp:3: DR004", out)
        self.assertIn("std::cin", out)

    def test_dr005_pragma_once(self):
        self.write("src/common/h.hpp", "namespace asyncdr {}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR005", out)

    def test_dr005_pragma_once_in_a_comment_does_not_count(self):
        self.write("src/common/h.hpp",
                   "// #pragma once\nnamespace asyncdr {}\n")
        status, out = self.sema()
        self.assertEqual(status, 1, out)
        self.assertIn("src/common/h.hpp:1: DR005", out)

    def test_dr006_parent_relative_include(self):
        self.write("src/common/a.cpp",
                   '#include "../dr/world.hpp"\nnamespace asyncdr {}\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR006", out)

    def test_dr006_unresolvable_quoted_include(self):
        self.write("src/common/a.cpp",
                   '#include "no/such/file.hpp"\nnamespace asyncdr {}\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR006", out)

    def test_dr006_accepts_src_rooted_and_sibling_includes(self):
        self.write("src/common/h.hpp", "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/a.cpp",
                   '#include "common/h.hpp"\nnamespace asyncdr {}\n')
        self.write("bench/bench_common.hpp",
                   "#pragma once\nnamespace asyncdr {}\n")
        self.write("bench/b.cpp",
                   '#include "bench_common.hpp"\nnamespace asyncdr {}\n')
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr006_angle_include_of_project_header(self):
        self.write("src/common/h.hpp", "#pragma once\nnamespace asyncdr {}\n")
        self.write("src/common/a.cpp",
                   "#include <common/h.hpp>\nnamespace asyncdr {}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("angle", out)

    def test_dr006_ignores_includes_in_comments(self):
        self.write("src/common/a.cpp",
                   '// Never write #include "../dr/world.hpp"\n'
                   '/* nor #include "no/such/file.hpp" */\n'
                   "namespace asyncdr {}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr007_namespace(self):
        self.write("src/common/a.cpp", "int global_thing() { return 2; }\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR007", out)

    def test_dr007_namespace_in_a_comment_does_not_count(self):
        self.write("src/common/a.cpp",
                   "// namespace asyncdr\nint global_thing() { return 2; }\n")
        status, out = self.sema()
        self.assertEqual(status, 1, out)
        self.assertIn("src/common/a.cpp:1: DR007", out)

    def test_dr008_raw_throw(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   'void f() { throw std::runtime_error("x"); }\n}\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR008", out)

    def test_dr008_exempts_check_hpp(self):
        self.write("src/common/check.hpp",
                   "#pragma once\nnamespace asyncdr {\n"
                   "[[noreturn]] void fail() { throw 1; }\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr009_protocol_without_begin_phase(self):
        self.write("src/protocols/runner.cpp", RUNNER_WITH_FOO)
        self.write("src/protocols/foo.cpp", FOO_WITHOUT_PHASE)
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR009", out)
        self.assertIn("FooPeer", out)

    def test_dr009_begin_phase_in_a_comment_does_not_count(self):
        self.write("src/protocols/runner.cpp", RUNNER_WITH_FOO)
        self.write("src/protocols/foo.cpp",
                   "namespace asyncdr {\n"
                   "// TODO: begin_phase(\"query\") here\n"
                   "void FooPeer::on_start() { query(0); }\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1, out)
        self.assertIn("src/protocols/foo.cpp:3: DR009", out)

    def test_dr009_commented_out_factory_registers_no_peer(self):
        self.write("src/protocols/runner.cpp",
                   "namespace asyncdr {\n"
                   "// auto f = std::make_unique<FooPeer>();\n}\n")
        self.write("src/protocols/foo.cpp", FOO_WITHOUT_PHASE)
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr009_survives_a_path_restricted_run(self):
        # The rule needs runner.cpp to know FooPeer is registered; naming
        # only foo.cpp restricts the report, not the analysis.
        self.write("src/protocols/runner.cpp", RUNNER_WITH_FOO)
        self.write("src/protocols/foo.cpp", FOO_WITHOUT_PHASE)
        status, out = self.sema("src/protocols/foo.cpp")
        self.assertEqual(status, 1, out)
        self.assertIn("src/protocols/foo.cpp:2: DR009", out)

    def test_dr009_attack_peers_exempt(self):
        self.write("src/protocols/runner.cpp",
                   "namespace asyncdr {\n"
                   "auto f = std::make_unique<LiarPeer>();\n}\n")
        self.write("src/protocols/attacks.cpp",
                   "namespace asyncdr {\n"
                   "void LiarPeer::on_start() {}\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr010_thread_primitives(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\nstd::mutex m;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR010", out)

    def test_dr010_campaign_and_threads_exempt(self):
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\nstd::atomic<int> cursor;\n}\n")
        self.write("src/common/threads.cpp",
                   "namespace asyncdr {\nint n = "
                   "std::thread::hardware_concurrency();\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr010_chaos_is_not_exempt(self):
        # The chaos layer runs on the campaign substrate and owns no
        # threads of its own, so it gets no exemption (same as SA001).
        self.write("src/chaos/runner.cpp",
                   "namespace asyncdr {\nstd::thread t;\n}\n")
        status, out = self.sema("--rules", "DR010")
        self.assertEqual(status, 1)
        self.assertIn("src/chaos/runner.cpp:2: DR010", out)

    def test_dr011_fstream_in_model_code(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\n"
                   'std::ofstream log("state.bin");\n}\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR011", out)

    def test_dr011_fopen_and_filesystem(self):
        self.write("src/protocols/p.cpp",
                   "namespace asyncdr {\n"
                   'FILE* f = fopen("x", "wb");\n'
                   'bool e = std::filesystem::exists("x");\n}\n')
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("p.cpp:2", out)
        self.assertIn("p.cpp:3", out)

    def test_dr011_journal_exempt(self):
        self.write("src/dr/journal.cpp",
                   "namespace asyncdr {\n"
                   'std::fstream backing("journal.bin");\n}\n')
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr011_bench_and_examples_exempt(self):
        self.write("bench/b.cpp",
                   "namespace asyncdr {\n"
                   'std::ofstream out("BENCH_x.json");\n}\n')
        self.write("examples/cli.cpp",
                   'int main() { std::ofstream f("report.json"); }\n')
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr011_identifiers_containing_fopen_ok(self):
        self.write("src/dr/p.cpp",
                   "namespace asyncdr {\n"
                   "int reopened = count_reopened();\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr012_static_world_in_campaign(self):
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\n"
                   "static dr::World shared_world;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("src/campaign/runner.cpp:2: DR012", out)

    def test_dr012_shared_ptr_engine_in_chaos(self):
        self.write("src/chaos/runner.cpp",
                   "namespace asyncdr {\n"
                   "std::shared_ptr<sim::Engine> cached_engine;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)
        self.assertIn("DR012", out)

    def test_dr012_run_local_worlds_and_static_const_ok(self):
        self.write("src/campaign/runner.cpp",
                   "namespace asyncdr {\n"
                   "static const dr::World* kNoWorld = nullptr;\n"
                   "void run_one() { dr::World world; (void)world; }\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_dr012_outside_sweep_dirs_ignored(self):
        # The rule guards the fan-out layers; dr/ itself composes worlds
        # from engines by design.
        self.write("src/dr/world.cpp",
                   "namespace asyncdr {\n"
                   "std::shared_ptr<sim::Engine> engine_;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)


class Suppressions(TreeCase):
    def test_same_line_allow(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-sema: allow(DR004) renderer\n"
                   "}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_comment_block_above_allow(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "// asyncdr-sema: allow(DR004) this renderer's whole job\n"
                   "// is console output, reason spans two comment lines.\n"
                   "std::cout << 1;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)

    def test_allow_does_not_leak_past_code_line(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "// asyncdr-sema: allow(DR004) meant for the next line\n"
                   "int x = 0;\n"
                   "std::cout << x;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)

    def test_allow_wrong_rule_does_not_suppress(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-sema: allow(DR001) renderer\n"
                   "}\n")
        status, out = self.sema()
        self.assertEqual(status, 1)

    def test_reasonless_allow_does_not_suppress(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-sema: allow(DR004)\n"
                   "}\n")
        status, out = self.sema()
        self.assertEqual(status, 1,
                         "a suppression without a justification must not "
                         "suppress\n" + out)

    def test_retired_lint_marker_does_not_suppress(self):
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\n"
                   "std::cout << 1;  // asyncdr-lint: allow(DR004) renderer\n"
                   "}\n")
        status, out = self.sema()
        self.assertEqual(status, 1, out)
        self.assertIn("DR004", out)

    def test_disable_file(self):
        self.write("src/common/a.cpp",
                   "// asyncdr-sema: disable-file(DR004) report renderer\n"
                   "namespace asyncdr {\n"
                   "std::cout << 1;\nstd::cerr << 2;\n}\n")
        status, out = self.sema()
        self.assertEqual(status, 0, out)


# ---------------------------------------------------------------- SA001

ENTRY_CALLS_HELPER = """\
namespace asyncdr::dr {
void run_world() { helper_clock(); }
}  // namespace asyncdr::dr
"""

HELPER_WITH_CLOCK = """\
namespace asyncdr {
void helper_clock() {
  auto t = std::chrono::steady_clock::now();
}
}  // namespace asyncdr
"""


class SA001Purity(TreeCase):
    def test_positive_sink_reachable_through_helper(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp", HELPER_WITH_CLOCK)
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 1, out)
        self.assertIn("SA001", out)
        self.assertIn("src/common/helper.cpp:3", out)
        self.assertIn("run_world", out)  # the example path names the root

    def test_negative_sink_unreachable(self):
        # Same sink, but nothing in an entry namespace calls it.
        self.write("src/common/helper.cpp", HELPER_WITH_CLOCK)
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_negative_sink_in_exempt_owner(self):
        self.write("src/dr/world.cpp",
                   "namespace asyncdr::dr {\n"
                   "void run_world() { entropy(); }\n}\n")
        self.write("src/common/rng.cpp",
                   "namespace asyncdr {\n"
                   "void entropy() { std::random_device rd; }\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_honors_allow_of_superseded_dr_rule(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp",
                   "namespace asyncdr {\n"
                   "void helper_clock() {\n"
                   "  // asyncdr-sema: allow(DR001) progress meter only\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_sema_allow(self):
        self.write("src/dr/world.cpp", ENTRY_CALLS_HELPER)
        self.write("src/common/helper.cpp",
                   "namespace asyncdr {\n"
                   "void helper_clock() {\n"
                   "  // asyncdr-sema: allow(SA001) diagnostics-only path\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 0, out)

    def test_threads_reachable_is_flagged_outside_campaign(self):
        self.write("src/proto/runner.cpp",
                   "namespace asyncdr::proto {\n"
                   "void go() { std::mutex m; }\n}\n")
        status, out = self.sema("--rules", "SA001")
        self.assertEqual(status, 1, out)
        self.assertIn("threading primitive", out)


# ---------------------------------------------------------------- SA002

UNORDERED_LOOP = """\
namespace asyncdr::dr {
void report() {
  std::unordered_map<int, int> tally;
  for (const auto& [key, value] : tally) {
    emit(key, value);
  }
}
}  // namespace asyncdr::dr
"""


class SA002OrderedIteration(TreeCase):
    def test_positive_range_for_over_unordered(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)
        self.assertIn("SA002", out)
        self.assertIn("report.cpp:4", out)

    def test_positive_iterator_loop_over_unordered(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_set<int> seen;\n"
                   "  for (auto it = seen.begin(); it != seen.end(); ++it) {\n"
                   "    emit(*it);\n"
                   "  }\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)

    def test_negative_ordered_map(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::map<int, int> tally;\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_negative_provably_order_insensitive(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void tally_up() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  long total = 0;\n"
                   "  for (const auto& [key, value] : tally) {\n"
                   "    total += value;\n"
                   "  }\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_positive_member_of_indexed_sequence(self):
        # vector-of-unordered, accessed through a subscript: the shape
        # sim::Network::busy_links uses.
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "std::vector<std::unordered_map<int, int>> shards_;\n"
                   "void report() {\n"
                   "  for (const auto& [key, value] : shards_[0]) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1, out)

    def test_suppressed_with_justification(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  // asyncdr-sema: allow(SA002) sorted right below\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)

    def test_reasonless_allow_does_not_suppress(self):
        self.write("src/dr/report.cpp",
                   "namespace asyncdr::dr {\n"
                   "void report() {\n"
                   "  std::unordered_map<int, int> tally;\n"
                   "  // asyncdr-sema: allow(SA002)\n"
                   "  for (const auto& [key, value] : tally) emit(key);\n"
                   "}\n}\n")
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 1,
                         "a suppression without a justification must not "
                         "suppress\n" + out)

    def test_disable_file_with_reason(self):
        self.write("src/dr/report.cpp",
                   "// asyncdr-sema: disable-file(SA002) scratch prototype\n"
                   + UNORDERED_LOOP)
        status, out = self.sema("--rules", "SA002")
        self.assertEqual(status, 0, out)


# ---------------------------------------------------------------- SA003

JOURNAL_CLIENT = """\
namespace asyncdr::proto {
void Peer::on_restart(const dr::RecoveryState& state) {
  out_.set(0, true);
}
void Peer::apply(int i) {
  %s
}
}  // namespace asyncdr::proto
"""


class SA003WalOrdering(TreeCase):
    def test_positive_mutation_without_preceding_append(self):
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 1, out)
        self.assertIn("SA003", out)
        self.assertIn("out_", out)

    def test_negative_append_before_mutation(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "if (!journal_indices(idx, vals)) return;\n"
                   "  out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_negative_non_recovered_member(self):
        # scratch_ is never touched by on_restart: not WAL-protected.
        self.write("src/proto/peer.cpp",
                   JOURNAL_CLIENT % "scratch_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_negative_class_without_on_restart(self):
        self.write("src/proto/peer.cpp",
                   "namespace asyncdr::proto {\n"
                   "void Other::apply(int i) { out_.set(i, true); }\n}\n")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_justification(self):
        self.write("src/proto/peer.cpp", JOURNAL_CLIENT %
                   "// asyncdr-sema: allow(SA003) volatile stage cursor\n"
                   "  out_.set(i, true);")
        status, out = self.sema("--rules", "SA003")
        self.assertEqual(status, 0, out)


# ---------------------------------------------------------------- SA004

WORKER_LAMBDA = """\
namespace asyncdr::campaign {
void sweep(Campaign& camp) {
  camp.run(%s(std::size_t i, std::uint64_t seed) { return go(i, seed); });
}
}  // namespace asyncdr::campaign
"""


class SA004CrossWorldSharing(TreeCase):
    def test_positive_mutable_static(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static int cursor = 0;\n"
                   "void tick() { ++cursor; }\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 1, out)
        self.assertIn("SA004", out)
        self.assertIn("non-const static", out)

    def test_negative_const_static(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "static const int kLimit = 8;\n"
                   "static constexpr int kOther = 9;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_negative_static_function_declaration(self):
        self.write("src/chaos/runner.hpp",
                   "namespace asyncdr::chaos {\n"
                   "struct Runner {\n"
                   "  static Repro shrink(const Profile& p, int s);\n"
                   "};\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_negative_static_outside_worker_dirs(self):
        self.write("src/proto/cache.cpp",
                   "namespace asyncdr::proto {\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_positive_default_ref_capture_worker(self):
        self.write("src/campaign/sweep.cpp", WORKER_LAMBDA % "[&]")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 1, out)
        self.assertIn("default-[&]", out)

    def test_negative_explicit_captures(self):
        self.write("src/campaign/sweep.cpp",
                   WORKER_LAMBDA % "[&results, total]")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_suppressed_with_justification(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "// asyncdr-sema: allow(SA004) guarded by claim cursor\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)

    def test_static_honors_allow_of_superseded_dr_rule(self):
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr::campaign {\n"
                   "// asyncdr-sema: allow(DR012) run-local by construction\n"
                   "static int cursor = 0;\n}\n")
        status, out = self.sema("--rules", "SA004")
        self.assertEqual(status, 0, out)


# ------------------------------------------------------ baseline & output

COUT_LINE = "namespace asyncdr {\nstd::cout << %d;\n}\n"


class BaselineAndOutputs(TreeCase):
    def _seed_finding(self):
        self.write("src/dr/report.cpp", UNORDERED_LOOP)

    def baselined(self, baseline, *extra):
        return run_sema("--root", self.root, "--frontend", "fallback",
                        "--baseline", baseline, *extra)

    def test_baseline_roundtrip_and_new_finding_still_fatal(self):
        self._seed_finding()
        baseline = os.path.join(self.root, "baseline.json")
        status, out = self.baselined(baseline, "--write-baseline")
        self.assertEqual(status, 0, out)
        status, out = self.baselined(baseline)
        self.assertEqual(status, 0, out)
        self.assertIn("baselined", out)
        self.write("src/dr/second.cpp", UNORDERED_LOOP)
        status, out = self.baselined(baseline)
        self.assertEqual(status, 1)
        self.assertIn("second.cpp", out)

    def test_baseline_survives_line_shifts(self):
        self.write("src/common/a.cpp", COUT_LINE % 1)
        baseline = os.path.join(self.root, "baseline.json")
        self.baselined(baseline, "--write-baseline")
        self.write("src/common/a.cpp",
                   "namespace asyncdr {\nint pad;\nint pad2;\n"
                   "std::cout << 1;\n}\n")
        status, out = self.baselined(baseline)
        self.assertEqual(status, 0, out)

    def test_stale_baseline_entries_reported_and_pruned(self):
        self.write("src/common/a.cpp", COUT_LINE % 1)
        self.write("src/common/b.cpp", COUT_LINE % 2)
        baseline = os.path.join(self.root, "baseline.json")
        self.baselined(baseline, "--write-baseline")
        # Fix one finding: its baseline entry goes stale and is reported
        # (non-fatal) until pruned.
        self.write("src/common/b.cpp", "namespace asyncdr {\nint x;\n}\n")
        status, out = self.baselined(baseline)
        self.assertEqual(status, 0, out)
        self.assertIn("stale baseline entry src/common/b.cpp (DR004)", out)
        self.assertIn("--prune-baseline", out)
        status, out = self.baselined(baseline, "--prune-baseline")
        self.assertEqual(status, 0, out)
        self.assertIn("kept 1", out)
        self.assertIn("pruned 1", out)
        with open(baseline, encoding="utf-8") as f:
            fingerprints = json.load(f)["fingerprints"]
        self.assertEqual(len(fingerprints), 1)
        self.assertIn("src/common/a.cpp", fingerprints[0])
        # The surviving entry still suppresses its finding.
        status, out = self.baselined(baseline)
        self.assertEqual(status, 0, out)
        self.assertNotIn("stale", out)

    def test_foreign_baseline_is_a_usage_error(self):
        self._seed_finding()
        baseline = self.write("baseline.json", json.dumps(
            {"schema": "asyncdr-lint-baseline-v1", "fingerprints": []}))
        status, out = self.baselined(baseline)
        self.assertEqual(status, 2, out)

    def test_sarif_output_is_one_run_over_the_whole_catalog(self):
        self._seed_finding()
        self.write("src/campaign/worker.cpp",
                   "namespace asyncdr {\n"
                   "static sim::Engine shared_engine;\n}\n")
        sarif_path = os.path.join(self.root, "out.sarif")
        status, _ = self.sema("--sarif", sarif_path)
        self.assertEqual(status, 1)
        with open(sarif_path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["version"], "2.1.0")
        self.assertEqual(len(doc["runs"]), 1)
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "asyncdr-sema")
        self.assertEqual([r["id"] for r in run["tool"]["driver"]["rules"]],
                         [r.id for r in sema.RULES])
        where = {(r["ruleId"],
                  r["locations"][0]["physicalLocation"]["artifactLocation"]
                  ["uri"],
                  r["locations"][0]["physicalLocation"]["region"]
                  ["startLine"]) for r in run["results"]}
        self.assertIn(("SA002", "src/dr/report.cpp", 4), where)
        self.assertIn(("DR012", "src/campaign/worker.cpp", 2), where)

    def test_list_rules_covers_dr_and_sa(self):
        status, out = run_sema("--list-rules")
        self.assertEqual(status, 0)
        rule_ids = [line.split()[0] for line in out.splitlines()
                    if line[:2] in ("DR", "SA")]
        self.assertEqual(rule_ids,
                         [f"DR{i:03d}" for i in range(1, 13)]
                         + [f"SA{i:03d}" for i in range(1, 5)])
        self.assertIn("purity-reachability", out)
        self.assertIn("wal-ordering", out)

    def test_every_rule_has_a_detection_test(self):
        # Contract for contributors (DESIGN.md "Adding a rule"): each rule
        # comes with a test_<rule>_* method or a <RULE>* test class.
        names = set()
        for obj in globals().values():
            if isinstance(obj, type) and issubclass(obj, unittest.TestCase):
                names.add(obj.__name__.lower())
                names.update(n for n in dir(obj) if n.startswith("test_"))
        for rule in sema.RULES:
            rid = rule.id.lower()
            self.assertTrue(
                any(n.startswith((rid, f"test_{rid}_")) for n in names),
                f"{rule.id} has no detection test")


class FrontendSelection(TreeCase):
    def test_libclang_unavailable_exits_77(self):
        if sema.load_libclang() is not None:
            self.skipTest("libclang available here; the 77 path is for "
                          "environments without it")
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_sema("--root", self.root, "--frontend", "libclang")
        self.assertEqual(status, 77, out)

    def test_auto_falls_back_and_reports_frontend(self):
        self.write("src/common/a.cpp", "namespace asyncdr {}\n")
        status, out = run_sema("--root", self.root, "--no-baseline")
        self.assertEqual(status, 0, out)
        self.assertIn("asyncdr-sema[", out)


class SeededRegressionOnRealTree(unittest.TestCase):
    """The acceptance gate: the shipped tree is clean under the fallback
    frontend against the checked-in (empty) baseline, and a copy of its
    sources with one model violation injected is not — the deployed rule set
    guards the real tree, not just synthetic fixtures."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="asyncdr-sema-seeded-")
        self.addCleanup(shutil.rmtree, self.root)
        shutil.copytree(os.path.join(REPO_ROOT, "src"),
                        os.path.join(self.root, "src"))

    def inject(self, relpath, text):
        with open(os.path.join(self.root, relpath), "a",
                  encoding="utf-8") as f:
            f.write(text)
        return run_sema("--root", self.root, "--frontend", "fallback",
                        "--no-baseline")

    def test_real_tree_zero_unsuppressed_findings(self):
        status, out = run_sema("--root", REPO_ROOT, "--frontend", "fallback")
        self.assertEqual(status, 0, out)
        self.assertIn(" 0 finding(s)", out)

    def test_real_tree_copy_is_clean(self):
        status, out = run_sema("--root", self.root, "--frontend", "fallback",
                               "--no-baseline")
        self.assertEqual(status, 0, out)

    def test_injected_random_device_is_caught(self):
        status, out = self.inject(
            "src/protocols/naive.cpp",
            "\nnamespace asyncdr::proto {\n"
            "static std::random_device entropy_leak;\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("naive.cpp", out)
        self.assertIn("DR002", out)

    def test_injected_wall_clock_is_caught(self):
        status, out = self.inject(
            "src/sim/engine.cpp",
            "\nnamespace asyncdr::sim {\nlong boot_ns() { return "
            "std::chrono::steady_clock::now().time_since_epoch()"
            ".count(); }\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("DR001", out)
        self.assertIn("SA001", out)

    def test_injected_unaccounted_source_access_is_caught(self):
        status, out = self.inject(
            "src/protocols/committee.cpp",
            "\nnamespace asyncdr::proto {\nvoid peek(dr::World& w) "
            "{ auto& x = w.source().data(); (void)x; }\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("DR003", out)

    def test_injected_ad_hoc_persistence_is_caught(self):
        status, out = self.inject(
            "src/protocols/crash_multi.cpp",
            "\nnamespace asyncdr::proto {\nvoid persist() "
            '{ std::ofstream f("peer_state.bin"); }\n}\n')
        self.assertEqual(status, 1)
        self.assertIn("crash_multi.cpp", out)
        self.assertIn("DR011", out)

    def test_injected_cross_world_sharing_is_caught(self):
        status, out = self.inject(
            "src/campaign/runner.cpp",
            "\nnamespace asyncdr::campaign {\n"
            "static dr::World recycled_world;\n}\n")
        self.assertEqual(status, 1)
        self.assertIn("runner.cpp", out)
        self.assertIn("DR012", out)

    def test_injected_unordered_iteration_is_caught(self):
        status, out = self.inject(
            "src/dr/phase.cpp",
            "\nnamespace asyncdr::dr {\n"
            "std::unordered_map<int, int> extra_;\n"
            "void dump_extra() {\n"
            "  for (const auto& [k, v] : extra_) { emit(k, v); }\n"
            "}\n}\n")
        self.assertEqual(status, 1, out)
        self.assertIn("phase.cpp", out)
        self.assertIn("SA002", out)


if __name__ == "__main__":
    unittest.main()
