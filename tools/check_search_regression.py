#!/usr/bin/env python3
"""Search-performance regression gate for bench_exact_search.

Compares a freshly generated bench_exact_search --json report against the
committed baseline (BENCH_exact_search.json) on its *expansion counts* —
`dfs_expansions_unseeded` and `dfs_expansions_seeded` per instance — and
fails when any count grew by more than --max-growth. Expansion counts are the
right gate for a branch-and-bound: they are exactly reproducible (fixed RNG
seeds, one canonical visiting order, a deterministic memo), so unlike wall
time the comparison works on noisy shared CI runners and a 2% budget is
meaningful. A count increase means the pruning rules, the bound, the memo or
the incumbent seeding genuinely got weaker — not that the runner was busy.

Shrinking counts are reported but never fail the gate; improvements should
be committed by regenerating the baseline (bench_exact_search --json).

Exit codes: 0 pass, 1 regression, 2 unusable input (unreadable/malformed
reports).

Usage:
  check_search_regression.py baseline.json current.json [--max-growth 0.02]
"""

import argparse
import json
import sys

GATED_FIELDS = ("dfs_expansions_unseeded", "dfs_expansions_seeded")


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as error:
        print(f"check_search_regression: cannot read {path}: {error}",
              file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as error:
        print(f"check_search_regression: {path} is not valid JSON: {error}",
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(report, dict) or report.get("bench") != "exact_search":
        print(f"check_search_regression: {path} is not an exact_search "
              "report", file=sys.stderr)
        sys.exit(2)

    counts = {}
    for instance in report.get("instances", []):
        try:
            name = instance["name"]
            for field in GATED_FIELDS:
                # Forward compatibility: an older report simply lacks a newer
                # gated field (and may carry extra fields this version never
                # reads) — compare only what both sides can have. A field
                # that is *present* but unparsable is still a hard error.
                if field not in instance:
                    continue
                counts[(name, field)] = int(instance[field])
        except (KeyError, TypeError, ValueError) as error:
            print(f"check_search_regression: malformed instance record in "
                  f"{path}: {error}", file=sys.stderr)
            sys.exit(2)
    return counts


def gate_counts(baseline, current, max_growth):
    """Expansion-count comparison. Returns the number of failed gates."""
    shared = sorted(set(baseline) & set(current))
    missing = sorted(set(baseline) - set(current))
    for name, field in missing:
        print(f"  MISSING {name}.{field} (in baseline, not in current)")

    failures = []
    for key in shared:
        name, field = key
        before, after = baseline[key], current[key]
        growth = (after - before) / before if before > 0 else 0.0
        marker = ""
        if growth > max_growth:
            failures.append((name, field, before, after, growth))
            marker = "  <-- REGRESSION"
        print(f"  {name:12s} {field:26s} {before:8d} -> {after:8d}"
              f"  ({100.0 * growth:+6.2f}%){marker}")

    print(f"counts compared : {len(shared)}")
    print(f"growth budget   : {100.0 * max_growth:.0f}% per count")
    if not shared:
        print("check_search_regression: no shared instances between the "
              "reports", file=sys.stderr)
        sys.exit(2)
    if missing:
        print("check_search_regression: FAIL — baseline instances missing "
              "from the current report", file=sys.stderr)
        return 1 + len(failures)
    for name, field, before, after, growth in failures:
        print(f"check_search_regression: FAIL — {name}.{field} grew "
              f"{before} -> {after} ({100.0 * growth:+.2f}%)",
              file=sys.stderr)
    return len(failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_exact_search.json")
    parser.add_argument("current", help="freshly generated report")
    parser.add_argument("--max-growth", type=float, default=0.02,
                        help="allowed per-count growth (default 0.02 = 2%%)")
    args = parser.parse_args()

    failures = gate_counts(load_report(args.baseline),
                           load_report(args.current), args.max_growth)
    if failures:
        return 1
    print("check_search_regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
