"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json... -- B.json...

Each file is one ``run.py --out`` result; A is the parent (or the first
set), B the change (or the second set).  Files are paired in the order
given, so list alternating parent/change runs in matching positions.
For every workload and end-to-end metric it prints each side's median
and quartiles, B's pair wins, and a verdict:

* ``better``: B wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than A's quartile spread;
* ``worse``: B's median is worse than A's by more than the metric's
  bound;
* ``unresolved``: either side's quartile spread is wider than the bound,
  unless every run of B reads better than every run of A;
* ``unchanged``: otherwise.

The two sets *agree* when, for every row, neither side's spread exceeds
the bound (``setup_s`` excepted) and B's median is not worse than A's by
more than the bound.  The exit status is 0 when they agree, else 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: set-up time is measured a few times per run, not steadied by rounds,
#: so its spread is reported but never blocks agreement.
SPREAD_EXEMPT = {"setup_s"}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _sign(better: str) -> int:
    return 1 if better == "lower" else -1


def worsening(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    ma, mb = statistics.median(a), statistics.median(b)
    return _sign(better) * (mb - ma) / abs(ma) if ma else 0.0


def wins(a: Sequence[float], b: Sequence[float], better: str) -> int:
    """Pairs in which B reads better than A; ties count for neither."""
    return sum(_sign(better) * (y - x) < 0 for x, y in zip(a, b))


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    q1a, ma, q3a = quartiles(a)
    pairs = min(len(a), len(b))
    if wins(a, b, better) >= 0.9 * pairs and -worsening(a, b, better) * abs(ma) > q3a - q1a:
        return "better"
    if worsening(a, b, better) > bound:
        return "worse"
    b_beats_all = all(_sign(better) * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved"
    return "unchanged"


def agrees(a: Sequence[float], b: Sequence[float], metric: dict) -> bool:
    """Same code, two sets: B no worse than the bound, spreads within it."""
    if worsening(a, b, metric["better"]) > metric["bound"]:
        return False
    return metric["name"] in SPREAD_EXEMPT or max(spread(a), spread(b)) <= metric["bound"]


def load(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per file."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        for workload, record in json.loads(Path(path).read_text())["workloads"].items():
            for name, metric in record["metrics"].items():
                table.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return table


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> bool:
    spec = json.loads(SPEC_PATH.read_text())
    a, b = load(a_paths), load(b_paths)
    agree = True
    print(f"{'workload':<8} {'metric':<12} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'wins':>6} {'spreadA':>8} {'spreadB':>8}  verdict")
    for workload in sorted(set(a) | set(b)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"{workload:<8} {name:<12} missing on one side")
                agree = False
                continue
            result = verdict(va, vb, metric["better"], bound)
            agree = agrees(va, vb, metric) and agree
            qa = "/".join(f"{q:.4g}" for q in quartiles(va))
            qb = "/".join(f"{q:.4g}" for q in quartiles(vb))
            print(f"{workload:<8} {name:<12} {qa:>32} {qb:>32} "
                  f"{wins(va, vb, metric['better']):>3}/{min(len(va), len(vb)):<2} {spread(va):>8.4f} "
                  f"{spread(vb):>8.4f}  {result}")
    print(f"agreement: {'yes' if agree else 'no'}")
    return agree


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("need at least one file on each side of --", file=sys.stderr)
        return 2
    return 0 if compare(a_paths, b_paths) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
