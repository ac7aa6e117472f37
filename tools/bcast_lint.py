#!/usr/bin/env python3
"""bcast_lint: compile_commands-driven repo-invariant checker.

Promotes the invariants the dynamic harnesses (60-seed thread-invariance
sweeps, TSan, the counting-allocator test) can only catch probabilistically
into structured, per-line static rules over ``src/``:

  determinism      No ambient nondeterminism: ``rand``/``srand``,
                   ``std::random_device``, ``getenv`` are banned (all draws
                   go through util/rng.h named substreams), and iteration
                   over ``std::unordered_map``/``std::unordered_set`` is
                   flagged — hash-order iteration feeding planner or search
                   output is exactly the bug class a fixed-seed differential
                   harness cannot reliably reproduce.
  clock-discipline All clock reads go through obs::MonotonicNanos
                   (src/obs/clock.h): raw ``std::chrono``, ``<ctime>``,
                   ``time()``/``clock()`` etc. are banned outside src/obs/.
  rng-substreams   Every ``Rng`` constructed in src/ must be forked with
                   ``Substream(RngStream::k...)`` so logically independent
                   random processes never perturb each other. src/popsim/
                   and the access-protocol core it steps per slot
                   (src/sim/access_protocol.*) additionally require
                   client-id-keyed derivation: an
                   unkeyed ``Substream``/``SubstreamSeed`` on a non-client
                   generator, or a shared-stream draw inside a
                   ``// bcast: hot`` per-slot loop, would make one client's
                   draws depend on its neighbors — exactly the coupling the
                   engine's thread-invariance contract forbids.
  hot-path-alloc   Functions marked ``// bcast: hot`` must stay steady-state
                   allocation-free: no ``new``/``make_unique``/container
                   growth. Statically backs the counting-allocator proof of
                   tests/alloc_free_search_test.cc.
  raw-thread       ``std::thread``/``std::async`` only inside src/exec/ —
                   all other code parallelizes through the work-stealing
                   ThreadPool so determinism and draining stay centralized.
  telemetry-sink   No direct file writes (``std::ofstream``, ``fopen``,
                   ``fwrite``, ...) inside src/sim/ or src/popsim/: engines
                   emit through an injected obs::TelemetrySink so output can
                   never block a hot path, and drops stay accounted.

Suppressions: append ``// bcast-lint: allow(<rule>)`` to the offending line,
or place it alone on the line above. Every suppression should carry a
justification comment; ``allow`` without a finding is harmless.

File set: pass ``--compile-commands build/compile_commands.json`` so the
checked translation units come from the real build graph (plus all src/
headers, which have no compile command); without it the tool falls back to
globbing src/. Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Usage:
  bcast_lint.py [--compile-commands build/compile_commands.json]
                [--root DIR] [--rules r1,r2] [--json OUT] [--list-rules]
"""

import argparse
import json
import os
import re
import sys

RULE_NAMES = (
    "determinism",
    "clock-discipline",
    "rng-substreams",
    "hot-path-alloc",
    "raw-thread",
    "telemetry-sink",
)


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def as_dict(self):
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source scrubbing: blank out comments and string/char literals (preserving
# newlines) so token rules never fire inside documentation or messages.
# Suppressions and // bcast: hot markers are read from the RAW text first.
# ---------------------------------------------------------------------------

_RAW_STRING_OPEN = re.compile(r'R"([^(\\\s]{0,16})\(')


def scrub(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n - 2 if end == -1 else end
            chunk = text[i:end + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = end + 2
        elif c == "R" and nxt == '"' and _RAW_STRING_OPEN.match(text, i):
            match = _RAW_STRING_OPEN.match(text, i)
            close = ")" + match.group(1) + '"'
            end = text.find(close, match.end())
            end = n if end == -1 else end + len(close)
            chunk = text[i:end]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + " " * (j - i - 1) + '"')
            i = j + 1
        elif c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() or prev == "_":
                out.append(c)  # digit separator (200'000) or literal suffix
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("'" + " " * (j - i - 1) + "'")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


_ALLOW = re.compile(r"//\s*bcast-lint:\s*allow\(\s*([a-z0-9_\-, ]+?)\s*\)")
_HOT = re.compile(r"//\s*bcast:\s*hot\b")


def parse_suppressions(raw_lines):
    """Maps 1-based line number -> set of rule names allowed there."""
    allowed = {}
    for lineno, line in enumerate(raw_lines, start=1):
        match = _ALLOW.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
        allowed.setdefault(lineno, set()).update(rules)
        if line.strip().startswith("//"):
            # Standalone suppression comment: covers the following line too.
            allowed.setdefault(lineno + 1, set()).update(rules)
    return allowed


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, raw_text, scrubbed_text) and yields Findings.
# relpath always uses forward slashes relative to the repo root.
# ---------------------------------------------------------------------------

def _in(path, prefix):
    return path.startswith(prefix)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _token_findings(path, scrubbed, rule, tokens):
    for pattern, message in tokens:
        for match in re.finditer(pattern, scrubbed):
            yield Finding(path, _line_of(scrubbed, match.start()), rule,
                          message)


_DETERMINISM_TOKENS = (
    (r"\bs?rand\s*\(", "rand()/srand() — draw from a named util/rng.h "
     "substream instead"),
    (r"\bstd::random_device\b", "std::random_device is ambient "
     "nondeterminism — seed through util/rng.h"),
    (r"\bstd::random_shuffle\b", "std::random_shuffle — use "
     "Rng::Shuffle for reproducible order"),
    (r"\bgetenv\s*\(", "getenv() makes output depend on the environment — "
     "thread configuration through options structs"),
)

_UNORDERED_DECL = re.compile(r"\bunordered_(map|set)\s*<")
_RANGE_FOR = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)", re.DOTALL)


def _unordered_names(scrubbed):
    """Names of variables/fields declared with an unordered container type."""
    names = set()
    for match in _UNORDERED_DECL.finditer(scrubbed):
        # Balance the template angle brackets to find where the type ends.
        depth = 0
        i = match.end() - 1
        n = len(scrubbed)
        while i < n:
            if scrubbed[i] == "<":
                depth += 1
            elif scrubbed[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            continue
        tail = scrubbed[i + 1:i + 200]
        # The name may be followed by attribute macros (BCAST_GUARDED_BY(...))
        # before the initializer or semicolon.
        decl = re.match(r"\s*[&*]?\s*(\w+)\s*(?:BCAST_\w+\s*\([^)]*\)\s*)*"
                        r"([;={(]|$)", tail, re.DOTALL)
        if decl and decl.group(2) != "(":  # '(' = function returning the type
            names.add(decl.group(1))
    return names


def rule_determinism(path, raw, scrubbed):
    if not _in(path, "src/"):
        return
    yield from _token_findings(path, scrubbed, "determinism",
                               _DETERMINISM_TOKENS)
    unordered = _unordered_names(scrubbed)
    if not unordered:
        return
    for match in _RANGE_FOR.finditer(scrubbed):
        expr = match.group(2).strip()
        trailing = re.search(r"(\w+)\s*$", expr)
        if trailing and trailing.group(1) in unordered:
            yield Finding(
                path, _line_of(scrubbed, match.start()), "determinism",
                f"iteration over unordered container '{trailing.group(1)}' — "
                "hash order is not deterministic; iterate a sorted copy or "
                "justify commutativity with a suppression")


_CLOCK_TOKENS = (
    (r"\bstd::chrono\b", "raw std::chrono — use obs::MonotonicNanos "
     "(src/obs/clock.h)"),
    (r"#\s*include\s*<chrono>", "<chrono> include — use obs/clock.h"),
    (r"#\s*include\s*<ctime>", "<ctime> include — use obs/clock.h"),
    (r"#\s*include\s*<sys/time\.h>", "<sys/time.h> include — use obs/clock.h"),
    (r"\btime\s*\(", "time() — wall clock reads break replayability; use "
     "obs::MonotonicNanos"),
    # The lookbehind exempts member access: `budget.clock()` / `opts->clock()`
    # reach an injectable obs::Clock (deadline-aware planning), not libc
    # clock().
    (r"(?<![\w.>])clock\s*\(", "clock() — use obs::MonotonicNanos"),
    (r"\bgettimeofday\b", "gettimeofday — use obs::MonotonicNanos"),
    (r"\bclock_gettime\b", "clock_gettime — use obs::MonotonicNanos"),
)


def rule_clock_discipline(path, raw, scrubbed):
    if not _in(path, "src/") or _in(path, "src/obs/"):
        return
    yield from _token_findings(path, scrubbed, "clock-discipline",
                               _CLOCK_TOKENS)


_RNG_DECL = re.compile(r"\bRng\s+(\w+)\s*[=({]")

# Single-argument (unkeyed) substream derivation: `recv.Substream(RngStream::kX)`
# with no key argument. The population engine must key every per-client stream
# by client id; the only unkeyed derivations allowed there are off a generator
# that is itself already client-keyed (receiver named *client*).
_UNKEYED_SUBSTREAM = re.compile(
    r"(\w+)\s*(?:\.|->)\s*(Substream|SubstreamSeed)\s*\(\s*RngStream::k\w+\s*\)")

# A draw call on a plain (non-indexed) receiver. Indexed receivers like
# `client_stream[idx].NextU64()` never match — the receiver token before the
# call is `]` — which is exactly the per-client layout the rule wants.
_DRAW_CALL = re.compile(
    r"(\w+)\s*(?:\.|->)\s*(NextU64|NextDouble|UniformDouble|UniformInt|"
    r"Bernoulli|Poisson|Zipf)\s*\(")


# Files held to the population engine's client-keyed stream discipline: the
# engine itself and the access-protocol core whose Step() it runs per slot.
_ACCESS_CORE = ("src/sim/access_protocol.h", "src/sim/access_protocol.cc")


def _client_keyed(path):
    return _in(path, "src/popsim/") or path in _ACCESS_CORE


def _popsim_findings(path, raw, scrubbed):
    for match in _UNKEYED_SUBSTREAM.finditer(scrubbed):
        receiver = match.group(1)
        if "client" in receiver.lower():
            continue
        yield Finding(
            path, _line_of(scrubbed, match.start()), "rng-substreams",
            f"unkeyed {match.group(2)}(RngStream::k...) on '{receiver}' in "
            "src/popsim/ or the access-protocol core — population-engine "
            "streams must derive from the "
            "client-id-keyed generator (Substream(RngStream::kClient, id), "
            "or an unkeyed fork of a *client* rng)")
    for _, begin, end in _hot_regions(raw, scrubbed):
        for match in _DRAW_CALL.finditer(scrubbed, begin, end):
            receiver = match.group(1)
            if "client" in receiver.lower():
                continue
            yield Finding(
                path, _line_of(scrubbed, match.start()), "rng-substreams",
                f"shared-stream draw '{receiver}.{match.group(2)}()' inside "
                "a '// bcast: hot' per-slot loop in src/popsim/ or the "
                "access-protocol core — draws "
                "there must come from a per-client stream (receiver indexed "
                "by client, or named *client*), or one client's results "
                "depend on its neighbors and shard/thread invariance breaks")


def rule_rng_substreams(path, raw, scrubbed):
    if not _in(path, "src/") or path in ("src/util/rng.h", "src/util/rng.cc"):
        return
    for match in _RNG_DECL.finditer(scrubbed):
        semi = scrubbed.find(";", match.start())
        statement = scrubbed[match.start():semi if semi != -1 else None]
        if "Substream(" in statement:
            continue
        yield Finding(
            path, _line_of(scrubbed, match.start()), "rng-substreams",
            f"Rng '{match.group(1)}' constructed without naming a substream "
            "— fork with Substream(RngStream::k...) so independent random "
            "processes cannot perturb each other")
    if _client_keyed(path):
        yield from _popsim_findings(path, raw, scrubbed)


_ALLOC_TOKENS = (
    (r"\bnew\b", "operator new"),
    (r"\bmalloc\s*\(", "malloc"),
    (r"\bmake_unique\s*<", "make_unique"),
    (r"\bmake_shared\s*<", "make_shared"),
    (r"[.>]push_back\s*\(", "push_back (container growth)"),
    (r"[.>]emplace_back\s*\(", "emplace_back (container growth)"),
    (r"[.>]emplace\s*\(", "emplace (container growth)"),
    (r"[.>]insert\s*\(", "insert (container growth)"),
    (r"[.>]resize\s*\(", "resize (container growth)"),
    (r"[.>]reserve\s*\(", "reserve (allocation)"),
    (r"[.>]assign\s*\(", "assign (container growth)"),
)


def _hot_regions(raw, scrubbed):
    """(start_line, end_line, offsets) of each // bcast: hot function body."""
    regions = []
    raw_lines = raw.splitlines()
    line_starts = [0]
    for line in scrubbed.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    for lineno, line in enumerate(raw_lines, start=1):
        if not _HOT.search(line):
            continue
        # The function signature follows the marker; find its opening brace
        # and the matching close in the scrubbed text.
        start = line_starts[min(lineno, len(line_starts) - 1)]
        open_brace = scrubbed.find("{", start)
        if open_brace == -1:
            continue
        depth = 0
        i = open_brace
        n = len(scrubbed)
        while i < n:
            if scrubbed[i] == "{":
                depth += 1
            elif scrubbed[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        regions.append((lineno, open_brace, i + 1))
    return regions


def rule_hot_path_alloc(path, raw, scrubbed):
    for marker_line, begin, end in _hot_regions(raw, scrubbed):
        body = scrubbed[begin:end]
        for pattern, what in _ALLOC_TOKENS:
            for match in re.finditer(pattern, body):
                yield Finding(
                    path, _line_of(scrubbed, begin + match.start()),
                    "hot-path-alloc",
                    f"{what} inside the '// bcast: hot' function at line "
                    f"{marker_line} — hot paths must be steady-state "
                    "allocation-free (see tests/alloc_free_search_test.cc)")


_THREAD_TOKENS = (
    (r"\bstd::(?:thread|jthread)\b", "raw std::thread — run on the "
     "work-stealing exec::ThreadPool so draining and determinism stay "
     "centralized"),
    (r"\bstd::async\b", "std::async — use exec::ThreadPool + TaskGroup"),
    (r"\bpthread_create\b", "pthread_create — use exec::ThreadPool"),
    (r"#\s*include\s*<future>", "<future> include — use exec/thread_pool.h"),
)


def rule_raw_thread(path, raw, scrubbed):
    if not _in(path, "src/") or _in(path, "src/exec/"):
        return
    yield from _token_findings(path, scrubbed, "raw-thread", _THREAD_TOKENS)


_TELEMETRY_SINK_TOKENS = (
    (r"\bstd::o?fstream\b", "std::ofstream/std::fstream — simulation engines "
     "must emit through an injected obs::TelemetrySink (obs/stream.h), not "
     "write files directly"),
    (r"\bfopen\s*\(", "fopen — emit through an injected obs::TelemetrySink"),
    (r"\bfreopen\s*\(", "freopen — emit through an injected "
     "obs::TelemetrySink"),
    (r"\bfwrite\s*\(", "fwrite — emit through an injected obs::TelemetrySink"),
    (r"\bfputs\s*\(", "fputs — emit through an injected obs::TelemetrySink"),
    (r"\bfprintf\s*\(", "fprintf — emit through an injected "
     "obs::TelemetrySink"),
    (r"#\s*include\s*<fstream>", "<fstream> include — simulation engines "
     "emit through obs/stream.h sinks, not file streams"),
)


def rule_telemetry_sink(path, raw, scrubbed):
    if not (_in(path, "src/sim/") or _in(path, "src/popsim/")):
        return
    yield from _token_findings(path, scrubbed, "telemetry-sink",
                               _TELEMETRY_SINK_TOKENS)


RULES = {
    "determinism": rule_determinism,
    "clock-discipline": rule_clock_discipline,
    "rng-substreams": rule_rng_substreams,
    "hot-path-alloc": rule_hot_path_alloc,
    "raw-thread": rule_raw_thread,
    "telemetry-sink": rule_telemetry_sink,
}
assert tuple(RULES) == RULE_NAMES


# ---------------------------------------------------------------------------
# File collection and driver
# ---------------------------------------------------------------------------

_SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


def _glob_sources(root):
    found = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith(_SOURCE_EXTENSIONS):
                found.append(os.path.join(dirpath, name))
    return found


def collect_files(root, compile_commands):
    """Files to lint, as paths relative to `root` (forward slashes)."""
    files = set()
    used_compile_commands = False
    if compile_commands:
        try:
            with open(compile_commands) as f:
                entries = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(
                f"bcast_lint: cannot read {compile_commands}: {error}")
        for entry in entries:
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(entry.get("directory", root), path)
            rel = os.path.relpath(os.path.realpath(path),
                                  os.path.realpath(root))
            if rel.startswith("src" + os.sep):
                files.add(rel)
        used_compile_commands = True
        # Headers never appear as translation units; always add them.
        for path in _glob_sources(root):
            if path.endswith((".h", ".hpp")):
                files.add(os.path.relpath(path, root))
    else:
        for path in _glob_sources(root):
            files.add(os.path.relpath(path, root))
    return sorted(f.replace(os.sep, "/") for f in files), used_compile_commands


def lint_file(root, relpath, rules):
    try:
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            raw = f.read()
    except OSError as error:
        return [Finding(relpath, 0, "io", f"unreadable: {error}")]
    scrubbed = scrub(raw)
    allowed = parse_suppressions(raw.splitlines())
    findings = []
    for name in rules:
        for finding in RULES[name](relpath, raw, scrubbed):
            if finding.rule in allowed.get(finding.line, ()):
                continue
            findings.append(finding)
    return findings


def run_lint(root, compile_commands=None, rules=RULE_NAMES):
    files, used_cc = collect_files(root, compile_commands)
    findings = []
    for relpath in files:
        findings.extend(lint_file(root, relpath, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, len(files), used_cc


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bcast repo-invariant checker",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json from the CMake build; "
                        "derives the translation-unit list from the build "
                        "graph instead of globbing")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write findings as JSON to this path")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in RULE_NAMES:
            print(name)
        return 0

    rules = RULE_NAMES
    if args.rules:
        rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"bcast_lint: unknown rule(s): {', '.join(unknown)} "
                  f"(known: {', '.join(RULE_NAMES)})", file=sys.stderr)
            return 2

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"bcast_lint: no src/ under root '{args.root}'",
              file=sys.stderr)
        return 2

    findings, num_files, used_cc = run_lint(args.root, args.compile_commands,
                                            rules)
    for finding in findings:
        print(finding)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"findings": [f_.as_dict() for f_ in findings],
                       "files_checked": num_files,
                       "rules": list(rules)}, f, indent=2)
            f.write("\n")
    source = ("compile_commands" if used_cc else "glob")
    print(f"bcast_lint: {num_files} files checked ({source}), "
          f"{len(findings)} finding(s), rules: {', '.join(rules)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
