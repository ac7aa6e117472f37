"""Unit tests for tools/bcast_lint.py (stdlib unittest; registered in ctest).

Each rule gets three legs: a positive hit on a violating fixture, a clean
pass on compliant code, and a suppression check (`// bcast-lint: allow`).
Fixture trees are synthesized under a tempdir so the tests are hermetic and
independent of the real src/ tree.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bcast_lint  # noqa: E402

LINT = os.path.join(REPO_ROOT, "tools", "bcast_lint.py")


class LintTreeTestCase(unittest.TestCase):
    """Base: write fixture files into a temp root and lint them."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)
        return path

    def lint(self, rules=bcast_lint.RULE_NAMES, compile_commands=None):
        findings, _, _ = bcast_lint.run_lint(self.root, compile_commands,
                                             rules)
        return findings

    def rules_hit(self, findings):
        return sorted({f.rule for f in findings})


class DeterminismRuleTest(LintTreeTestCase):
    def test_flags_rand_and_random_device(self):
        self.write("src/core/x.cc",
                   "int f() { return rand(); }\n"
                   "std::random_device dev;\n")
        findings = self.lint(rules=("determinism",))
        self.assertEqual(len(findings), 2)
        self.assertEqual(self.rules_hit(findings), ["determinism"])
        self.assertEqual([f.line for f in findings], [1, 2])

    def test_flags_unordered_iteration(self):
        self.write("src/core/x.cc",
                   "#include <unordered_map>\n"
                   "std::unordered_map<int, int> table;\n"
                   "int f() {\n"
                   "  int s = 0;\n"
                   "  for (const auto& [k, v] : table) s += v;\n"
                   "  return s;\n"
                   "}\n")
        findings = self.lint(rules=("determinism",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 5)
        self.assertIn("table", findings[0].message)

    def test_unordered_declaration_with_attribute_macro(self):
        # The declared name may be followed by BCAST_GUARDED_BY(...) — the
        # real pattern in parallel_search.cc's sharded cache.
        self.write("src/core/x.cc",
                   "std::unordered_map<int, int> states\n"
                   "    BCAST_GUARDED_BY(mutex);\n"
                   "int f() {\n"
                   "  int s = 0;\n"
                   "  for (const auto& [k, v] : states) s += v;\n"
                   "  return s;\n"
                   "}\n")
        findings = self.lint(rules=("determinism",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 5)

    def test_clean_code_passes(self):
        self.write("src/core/x.cc",
                   "#include <map>\n"
                   "std::map<int, int> table;\n"
                   "int f() {\n"
                   "  int s = 0;\n"
                   "  for (const auto& [k, v] : table) s += v;\n"
                   "  return s;\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("determinism",)), [])

    def test_same_line_suppression(self):
        self.write("src/core/x.cc",
                   "int f() { return rand(); }"
                   "  // bcast-lint: allow(determinism)\n")
        self.assertEqual(self.lint(rules=("determinism",)), [])

    def test_standalone_suppression_covers_next_line(self):
        self.write("src/core/x.cc",
                   "// bcast-lint: allow(determinism)\n"
                   "int f() { return rand(); }\n")
        self.assertEqual(self.lint(rules=("determinism",)), [])

    def test_suppression_for_other_rule_does_not_apply(self):
        self.write("src/core/x.cc",
                   "// bcast-lint: allow(raw-thread)\n"
                   "int f() { return rand(); }\n")
        self.assertEqual(len(self.lint(rules=("determinism",))), 1)

    def test_tokens_in_comments_and_strings_ignored(self):
        self.write("src/core/x.cc",
                   "// rand() is banned here\n"
                   "const char* kMsg = \"call rand() elsewhere\";\n"
                   "/* std::random_device too */\n")
        self.assertEqual(self.lint(rules=("determinism",)), [])


class ClockDisciplineRuleTest(LintTreeTestCase):
    def test_flags_chrono_ctime_and_time_calls(self):
        self.write("src/sim/x.cc",
                   "#include <chrono>\n"
                   "#include <ctime>\n"
                   "long f() { return time(nullptr) + clock(); }\n")
        findings = self.lint(rules=("clock-discipline",))
        self.assertEqual(len(findings), 4)
        self.assertEqual(self.rules_hit(findings), ["clock-discipline"])

    def test_obs_is_exempt(self):
        self.write("src/obs/clock.cc",
                   "#include <chrono>\n"
                   "long f() { return std::chrono::steady_clock::now()"
                   ".time_since_epoch().count(); }\n")
        self.assertEqual(self.lint(rules=("clock-discipline",)), [])

    def test_injectable_clock_member_calls_allowed(self):
        # The deadline-aware planning path reads an injected obs::Clock via a
        # member named clock — that is not libc clock() and must pass.
        self.write("src/alloc/x.cc",
                   "uint64_t f(const SearchBudget& b) {\n"
                   "  return b.clock->NowNanos() + budget.clock()\n"
                   "       + opts->clock()->NowNanos();\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("clock-discipline",)), [])

    def test_bare_libc_clock_still_flagged(self):
        self.write("src/alloc/x.cc",
                   "long f() { return clock(); }\n")
        findings = self.lint(rules=("clock-discipline",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(self.rules_hit(findings), ["clock-discipline"])

    def test_suppression(self):
        self.write("src/sim/x.cc",
                   "// bcast-lint: allow(clock-discipline)\n"
                   "#include <ctime>\n")
        self.assertEqual(self.lint(rules=("clock-discipline",)), [])


class RngSubstreamsRuleTest(LintTreeTestCase):
    def test_flags_unforked_rng(self):
        self.write("src/sim/x.cc",
                   "void f(const Rng& parent) {\n"
                   "  Rng rng(12345);\n"
                   "}\n")
        findings = self.lint(rules=("rng-substreams",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 2)
        self.assertIn("rng", findings[0].message)

    def test_substream_construction_passes(self):
        self.write("src/sim/x.cc",
                   "void f(const Rng& parent) {\n"
                   "  Rng rng = parent.Substream(RngStream::kQuery);\n"
                   "  Rng wrapped(\n"
                   "      parent.Substream(RngStream::kFault));\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_rng_implementation_files_exempt(self):
        self.write("src/util/rng.cc", "Rng rng(42);\n")
        self.write("src/util/rng.h", "Rng rng(42);\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_suppression(self):
        self.write("src/sim/x.cc",
                   "Rng rng(42);  // bcast-lint: allow(rng-substreams)\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])


class PopsimRngRuleTest(LintTreeTestCase):
    """src/popsim/ extension: client-id-keyed substream derivation only, and
    no shared-stream draws inside // bcast: hot per-slot loops."""

    def test_flags_unkeyed_substream_on_non_client_receiver(self):
        self.write("src/popsim/x.cc",
                   "void f(const Rng& base) {\n"
                   "  Rng shared = base.Substream(RngStream::kFault);\n"
                   "  uint64_t seed = base.SubstreamSeed(RngStream::kDoze);\n"
                   "}\n")
        findings = self.lint(rules=("rng-substreams",))
        self.assertEqual(len(findings), 2)
        self.assertEqual([f.line for f in findings], [2, 3])
        self.assertIn("unkeyed Substream", findings[0].message)
        self.assertIn("client-id-keyed", findings[0].message)

    def test_keyed_and_client_derived_substreams_pass(self):
        self.write("src/popsim/x.cc",
                   "void f(const Rng& base, uint64_t id) {\n"
                   "  Rng client_rng = base.Substream(RngStream::kClient, id);\n"
                   "  uint64_t s = client_rng.SubstreamSeed(RngStream::kFault);\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_flags_shared_stream_draw_in_hot_loop(self):
        self.write("src/popsim/x.cc",
                   "// bcast: hot\n"
                   "void Step(ReplayRng& pool_rng) {\n"
                   "  double u = pool_rng.UniformDouble();\n"
                   "}\n")
        findings = self.lint(rules=("rng-substreams",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 3)
        self.assertIn("shared-stream draw", findings[0].message)

    def test_client_indexed_and_client_named_draws_pass_in_hot_loop(self):
        self.write("src/popsim/x.cc",
                   "// bcast: hot\n"
                   "void Step(Shard* shard, uint32_t idx,\n"
                   "          ReplayRng& client_stream) {\n"
                   "  bool a = shard->client_stream[idx].Bernoulli(0.5);\n"
                   "  bool b = client_stream.Bernoulli(0.5);\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_draw_outside_hot_region_is_unconstrained(self):
        self.write("src/popsim/x.cc",
                   "void Init(ReplayRng& scratch) {\n"
                   "  (void)scratch.NextU64();\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_rule_is_scoped_to_popsim(self):
        # The same unkeyed derivation is legal elsewhere in src/ (the base
        # rule only requires *some* substream naming).
        self.write("src/sim/x.cc",
                   "void f(const Rng& base) {\n"
                   "  Rng shared = base.Substream(RngStream::kFault);\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])

    def test_rule_covers_the_access_protocol_core(self):
        # The shared Step() runs inside popsim's per-slot loop, so the core
        # file is held to the same discipline; other src/sim/ files are not.
        self.write("src/sim/access_protocol.h",
                   "// bcast: hot\n"
                   "template <typename Observe>\n"
                   "int64_t Step(ReplayRng& pool_rng) {\n"
                   "  double u = pool_rng.UniformDouble();\n"
                   "  Rng shared = base.Substream(RngStream::kFault);\n"
                   "}\n")
        self.write("src/sim/client_sim.cc",
                   "// bcast: hot\n"
                   "void Run(ReplayRng& pool_rng) {\n"
                   "  double u = pool_rng.UniformDouble();\n"
                   "}\n")
        findings = self.lint(rules=("rng-substreams",))
        self.assertEqual(
            sorted((f.path, f.line) for f in findings),
            [("src/sim/access_protocol.h", 4), ("src/sim/access_protocol.h", 5)])
        self.assertTrue(any("shared-stream draw" in f.message
                            for f in findings))
        self.assertTrue(any("unkeyed Substream" in f.message
                            for f in findings))

    def test_suppression(self):
        self.write("src/popsim/x.cc",
                   "void f(const Rng& base) {\n"
                   "  // bcast-lint: allow(rng-substreams)\n"
                   "  Rng shared = base.Substream(RngStream::kFault);\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("rng-substreams",)), [])


class HotPathAllocRuleTest(LintTreeTestCase):
    def test_flags_allocation_in_hot_function(self):
        self.write("src/alloc/x.cc",
                   "// bcast: hot\n"
                   "int f(int n) {\n"
                   "  int* p = new int[n];\n"
                   "  delete[] p;\n"
                   "  return n;\n"
                   "}\n")
        findings = self.lint(rules=("hot-path-alloc",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 3)
        self.assertIn("line 1", findings[0].message)

    def test_flags_container_growth(self):
        self.write("src/alloc/x.cc",
                   "#include <vector>\n"
                   "// bcast: hot\n"
                   "void f(std::vector<int>* out) {\n"
                   "  out->push_back(1);\n"
                   "}\n")
        findings = self.lint(rules=("hot-path-alloc",))
        self.assertEqual(len(findings), 1)
        self.assertIn("push_back", findings[0].message)

    def test_unmarked_function_is_unconstrained(self):
        self.write("src/alloc/x.cc",
                   "int f(int n) { return *(new int(n)); }\n")
        self.assertEqual(self.lint(rules=("hot-path-alloc",)), [])

    def test_allocation_after_hot_function_not_flagged(self):
        self.write("src/alloc/x.cc",
                   "// bcast: hot\n"
                   "int f(int n) { return n + 1; }\n"
                   "int g(int n) { return *(new int(n)); }\n")
        self.assertEqual(self.lint(rules=("hot-path-alloc",)), [])

    def test_suppression(self):
        self.write("src/alloc/x.cc",
                   "// bcast: hot\n"
                   "int f(int n) {\n"
                   "  // one-time warm-up growth, amortized out\n"
                   "  // bcast-lint: allow(hot-path-alloc)\n"
                   "  int* p = new int[n];\n"
                   "  delete[] p;\n"
                   "  return n;\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("hot-path-alloc",)), [])


class RawThreadRuleTest(LintTreeTestCase):
    def test_flags_raw_thread_outside_exec(self):
        self.write("src/sim/x.cc",
                   "#include <thread>\n"
                   "void f() { std::thread t([] {}); t.join(); }\n")
        findings = self.lint(rules=("raw-thread",))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 2)

    def test_exec_is_exempt(self):
        self.write("src/exec/thread_pool.cc",
                   "#include <thread>\n"
                   "void f() { std::thread t([] {}); t.join(); }\n")
        self.assertEqual(self.lint(rules=("raw-thread",)), [])

    def test_flags_std_async(self):
        self.write("src/core/x.cc",
                   "auto h = std::async([] { return 1; });\n")
        self.assertEqual(len(self.lint(rules=("raw-thread",))), 1)

    def test_suppression(self):
        self.write("src/sim/x.cc",
                   "// bcast-lint: allow(raw-thread)\n"
                   "std::thread watchdog;\n")
        self.assertEqual(self.lint(rules=("raw-thread",)), [])


class TelemetrySinkRuleTest(LintTreeTestCase):
    def test_flags_direct_file_writes_in_engines(self):
        self.write("src/sim/x.cc",
                   "#include <fstream>\n"
                   "void dump() { std::ofstream out(\"telemetry.jsonl\"); }\n")
        self.write("src/popsim/y.cc",
                   "#include <cstdio>\n"
                   "void dump() { std::FILE* f = fopen(\"t.jsonl\", \"w\");\n"
                   "  fprintf(f, \"x\"); }\n")
        findings = self.lint(rules=("telemetry-sink",))
        # sim: <fstream> include + ofstream; popsim: fopen + fprintf.
        self.assertEqual(len(findings), 4)
        self.assertEqual(self.rules_hit(findings), ["telemetry-sink"])
        self.assertEqual(sorted({f.path for f in findings}),
                         ["src/popsim/y.cc", "src/sim/x.cc"])

    def test_other_directories_are_exempt(self):
        # The obs layer IS the sink implementation; tools/ and bench/ write
        # reports by design. Only the engines are locked down.
        self.write("src/obs/stream.cc",
                   "#include <fstream>\n"
                   "void w() { std::ofstream out(\"x.jsonl\"); }\n")
        self.write("src/core/planner.cc",
                   "#include <fstream>\n")
        self.assertEqual(self.lint(rules=("telemetry-sink",)), [])

    def test_clean_engine_passes(self):
        self.write("src/popsim/popsim.cc",
                   "#include \"obs/stream.h\"\n"
                   "void emit(bcast::obs::TelemetrySink* sink) {\n"
                   "  (void)sink;\n"
                   "}\n")
        self.assertEqual(self.lint(rules=("telemetry-sink",)), [])

    def test_suppression(self):
        self.write("src/sim/x.cc",
                   "// core-dump capture, not telemetry\n"
                   "// bcast-lint: allow(telemetry-sink)\n"
                   "void f() { fwrite(0, 0, 0, 0); }\n")
        self.assertEqual(self.lint(rules=("telemetry-sink",)), [])


class ScrubberTest(unittest.TestCase):
    def test_digit_separators_do_not_open_char_literal(self):
        # 200'000'000 must not be mistaken for a char literal — otherwise
        # everything after it would be scrubbed away.
        text = "uint64_t max = 200'000'000;\nint x = rand();\n"
        scrubbed = bcast_lint.scrub(text)
        self.assertIn("rand()", scrubbed)
        self.assertIn("200'000'000", scrubbed)

    def test_preserves_line_structure(self):
        text = "int a; /* multi\nline\ncomment */ int b;\n"
        scrubbed = bcast_lint.scrub(text)
        self.assertEqual(text.count("\n"), scrubbed.count("\n"))

    def test_raw_string_scrubbed(self):
        text = 'const char* s = R"(rand() inside)";\n'
        self.assertNotIn("rand", bcast_lint.scrub(text))


class CompileCommandsTest(LintTreeTestCase):
    def test_file_set_from_compile_commands_plus_headers(self):
        self.write("src/core/listed.cc", "int f() { return rand(); }\n")
        self.write("src/core/unlisted.cc", "int g() { return rand(); }\n")
        self.write("src/core/header.h", "inline int h() { return rand(); }\n")
        cc_path = self.write("build/compile_commands.json", json.dumps([{
            "directory": self.root,
            "file": os.path.join(self.root, "src/core/listed.cc"),
            "command": "c++ -c src/core/listed.cc",
        }]))
        findings = self.lint(rules=("determinism",), compile_commands=cc_path)
        paths = sorted(f.path for f in findings)
        # listed.cc from the build graph, header.h from the always-on header
        # glob; unlisted.cc has no compile command and is skipped.
        self.assertEqual(paths, ["src/core/header.h", "src/core/listed.cc"])


class CliTest(LintTreeTestCase):
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, LINT, *argv],
            capture_output=True, text=True)

    def test_exit_zero_when_clean(self):
        self.write("src/core/x.cc", "int f() { return 1; }\n")
        result = self.run_cli("--root", self.root)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("0 finding(s)", result.stdout)

    def test_exit_one_on_findings_with_location(self):
        self.write("src/core/x.cc", "int f() { return rand(); }\n")
        result = self.run_cli("--root", self.root)
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/core/x.cc:1: [determinism]", result.stdout)

    def test_exit_two_on_unknown_rule(self):
        self.write("src/core/x.cc", "int f() { return 1; }\n")
        result = self.run_cli("--root", self.root, "--rules", "nonsense")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown rule", result.stderr)

    def test_exit_two_on_missing_src(self):
        result = self.run_cli("--root", os.path.join(self.root, "nowhere"))
        self.assertEqual(result.returncode, 2)

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        self.assertEqual(result.returncode, 0)
        self.assertEqual(result.stdout.split(),
                         list(bcast_lint.RULE_NAMES))

    def test_json_output(self):
        self.write("src/core/x.cc", "int f() { return rand(); }\n")
        out = os.path.join(self.root, "findings.json")
        result = self.run_cli("--root", self.root, "--json", out)
        self.assertEqual(result.returncode, 1)
        with open(out) as f:
            payload = json.load(f)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertEqual(payload["findings"][0]["rule"], "determinism")
        self.assertEqual(payload["files_checked"], 1)


class RepoIsCleanTest(unittest.TestCase):
    """The committed tree must lint clean — the same gate CI enforces."""

    def test_real_src_tree_has_no_findings(self):
        findings, num_files, _ = bcast_lint.run_lint(REPO_ROOT)
        self.assertEqual(
            [str(f) for f in findings], [],
            "bcast_lint findings in the committed tree")
        self.assertGreater(num_files, 50)


if __name__ == "__main__":
    unittest.main()
