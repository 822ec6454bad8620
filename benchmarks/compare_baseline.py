"""Shared CI perf-gate engine: compare a fresh BENCH_*.json against a
committed baseline and fail on work-counter regressions.

Every row of the matrix-driven ``perf-gate`` job in
``.github/workflows/ci.yml`` (manifest: ``benchmarks/gates.json``) runs
this one script; the per-gate differences live in the *baseline
payload*, not here:

* every bench row names a workload and carries, under the payload's
  ``result_key``, a ``counters`` dict of *deterministic* work counters
  plus informational ``seconds``;
* a baseline that does not declare ``result_key`` and
  ``gated_counters`` fails the gate: regenerate it from its bench;
* each gated counter (payload ``gated_counters``) may grow by at most
  ``tolerance`` (relative) plus an absolute slack of 2 for near-zero
  counts;
* a gated counter missing from a current row fails the gate: the
  bench no longer produces it, so the baseline gates a dead name and
  must be regenerated;
* a baseline row missing from the fresh results fails the gate; new
  rows are reported but pass (extending a suite should not require a
  simultaneous baseline bump to land);
* a row whose ``identical`` flag went false fails the gate -- the
  optimized engine must keep matching its from-scratch oracle;
* wall-clock seconds are printed for context but never gate (they ride
  along as a CI artifact instead);
* a markdown counter-vs-baseline table is appended to
  ``$GITHUB_STEP_SUMMARY`` when set (CI), else echoed to stderr
  (local runs).

Usage::

    python benchmarks/compare_baseline.py BENCH_kms.json \
        benchmarks/baselines/BENCH_kms_baseline.json [--tolerance 0.10]

Exit status: 0 = within tolerance, 1 = regression or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

#: Absolute slack so a 1 -> 2 jump on a tiny counter is not a "100%
#: regression"; real regressions move the big counters by far more.
ABSOLUTE_SLACK = 2

#: The keys that make a baseline payload self-describing.
BASELINE_KEYS = ("result_key", "gated_counters")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "rows" not in data:
        raise ValueError(f"{path}: not a bench-rows json payload")
    return data, {row["name"]: row for row in data["rows"]}


def write_summary(lines: List[str]) -> None:
    """Append markdown to the GitHub Actions job summary, or echo it to
    stderr when running outside CI."""
    text = "\n".join(lines) + "\n"
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, file=sys.stderr)


def compare(
    current_path: str, baseline_path: str, tolerance: float = 0.10
) -> int:
    """Run the gate; returns a process exit status (0 pass, 1 fail)."""
    _, current = load_rows(current_path)
    baseline_data, baseline = load_rows(baseline_path)
    missing = [key for key in BASELINE_KEYS if key not in baseline_data]
    if missing:
        print(f"FAIL: {baseline_path} declares no "
              f"{' or '.join(missing)}; regenerate it from its bench",
              file=sys.stderr)
        return 1
    result_key = baseline_data["result_key"]
    gated = baseline_data["gated_counters"]

    suite = baseline_data.get("suite", os.path.basename(current_path))
    table = [
        f"### perf gate: {suite} "
        f"({tolerance:.0%} tolerance on `{result_key}` counters)",
        "",
        "| row | counter | baseline | current | status |",
        "| --- | --- | ---: | ---: | --- |",
    ]
    failures = []
    for name, base_row in sorted(baseline.items()):
        cur_row = current.get(name)
        if cur_row is None:
            failures.append(f"{name}: row missing from current results")
            table.append(f"| {name} | — | — | — | missing ❌ |")
            continue
        if not cur_row.get("identical", False):
            failures.append(
                f"{name}: result no longer matches its from-scratch oracle"
            )
            table.append(
                f"| {name} | identical | true | false | diverged ❌ |"
            )
        base_counters = base_row[result_key]["counters"]
        cur_counters = cur_row[result_key]["counters"]
        for counter in gated:
            if counter not in cur_counters:
                failures.append(
                    f"{name}: gated counter {counter} missing from current "
                    f"results; regenerate the baseline"
                )
                table.append(f"| {name} | {counter} | — | — | missing ❌ |")
                continue
            base_value = base_counters.get(counter, 0)
            cur_value = cur_counters[counter]
            limit = base_value * (1.0 + tolerance) + ABSOLUTE_SLACK
            marker = ""
            status = "changed"
            if cur_value > limit:
                failures.append(
                    f"{name}: {counter} regressed "
                    f"{base_value} -> {cur_value} "
                    f"(limit {limit:.1f} at {tolerance:.0%} tolerance)"
                )
                marker = "  <-- REGRESSION"
                status = "regressed ❌"
            if cur_value != base_value:
                print(f"{name}: {counter} {base_value} -> {cur_value}"
                      f"{marker}")
                table.append(
                    f"| {name} | {counter} | {base_value} | {cur_value} "
                    f"| {status} |"
                )

    for name in sorted(set(current) - set(baseline)):
        print(f"{name}: new row (no baseline; passes)")
        table.append(f"| {name} | — | — | — | new row (passes) |")

    base_secs = sum(r[result_key]["seconds"] for r in baseline.values())
    cur_secs = sum(
        r[result_key]["seconds"]
        for n, r in current.items() if n in baseline
    )
    print(f"wall clock (informational, not gated): "
          f"baseline {base_secs:.1f}s, current {cur_secs:.1f}s")

    if len(table) == 4:
        table.append("| — | *all gated counters* | — | — | unchanged ✅ |")
    table += [
        "",
        f"Wall clock (informational, never gates): baseline "
        f"{base_secs:.1f}s, current {cur_secs:.1f}s.",
        "",
        (f"**FAIL**: {len(failures)} regression(s)." if failures
         else f"**OK**: {len(baseline)} baseline rows within "
              f"{tolerance:.0%} counter tolerance."),
        "",
    ]
    write_summary(table)

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(baseline)} rows within "
          f"{tolerance:.0%} counter tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced bench json")
    parser.add_argument("baseline", help="committed baseline json")
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed relative counter growth (default 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)
    return compare(args.current, args.baseline, tolerance=args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
