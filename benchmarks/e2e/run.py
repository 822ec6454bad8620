"""End-to-end benchmark of ``repro.core.kms()``.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE]

Run from the root of a checkout; the program is imported from its
``src/``.  One workload runs in this process; several (the default is all
four) run one after the other, each in a fresh child process, so memory
numbers stay separate and no warm state leaks between workloads.

A workload is a closed loop of one client making sequential
``kms(mode="static")`` calls.  A round calls it once on every circuit of
the workload, in an order shuffled by the seed; rounds repeat until
``--seconds`` have passed, and the round under way then completes.  Each
call gets a fresh copy of its input, and ``gc.collect()`` runs before it,
outside the timer.  Outputs are checked against the paper's contract
(``check.py``) after timing ends.

Times are reported at a reference host speed.  On a shared host the
same call runs up to twice as slow for minutes at a time, so every timed
piece of work is bracketed by :func:`calibrate`, which times a fixed
pure-Python job, and scaled by ``CALIBRATION_S`` over the mean of the two
calibrations around it.  Raw wall seconds stay in the per-circuit rows.

``--trace 1`` spends half the time on untraced rounds and half on rounds
with every layer span installed (``trace.py``) and reports the per-layer
metrics of ``BENCHMARK.json`` instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (kms calls), ``failed`` (calls that raised, gave an output
other than the circuit's first, or gave an output that breaks the
contract) and ``metrics``.  Per-circuit rows go to standard error, and
with ``--out`` to a JSON file together with the environment.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from trace import SETUP_SPANS, Tracer, summarize, unfired

#: setup_s counts the program's imports from here.
_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parents[2]

#: Set-ups per run; setup_s is their median (plus the one-off imports).
SETUP_REPEATS = 3

#: What :func:`calibrate` takes at the reference speed, in seconds.
CALIBRATION_S = 0.0135

#: Circuit id of the spans recorded while the inputs are built.
SETUP = "setup"

#: MCNC Table I circuits but duke2 and misex2: their 3-13 s calls are
#: too few per run, and too long for the calibrations around them to
#: track a shared host's speed.
MCNC_SKIP = ("duke2", "misex2")

#: The paper's carry-skip family, ``csa bits.block``.  csa 6.2 stands in
#: for csa 8.2 (40 KMS iterations and 14 removals in 1.8 s, where 8.2
#: takes 15 s) and csa 6.3 for csa 8.4 (2 iterations, then cleanup).
CSA_SIZES = [(2, 2), (4, 2), (4, 4), (6, 2), (6, 3)]

#: Planted fuzz scenarios.  Fixed, not drawn from the seed: their kms()
#: times span 0.04-1.7 s, so a seeded draw would make the run-to-run
#: spread measure the draw instead of the code.
PLANTED_SCENARIOS = range(12)

Items = List[Tuple[str, object, object]]


def _mcnc() -> Items:
    """Table I MCNC circuits, area- then delay-optimized."""
    from repro import bench
    from repro.circuits.mcnc import MCNC_NAMES
    from repro.timing import UnitDelayModel

    return [
        (name, bench.optimized_mcnc(name, late_arrival=6.0, model=UnitDelayModel()),
         UnitDelayModel())
        for name in MCNC_NAMES
        if name not in MCNC_SKIP
    ]


def _adders() -> Items:
    from repro.circuits import carry_skip_adder
    from repro.timing import UnitDelayModel

    model = UnitDelayModel(use_arrival_times=False)
    return [(f"csa {n}.{b}", carry_skip_adder(n, b), model) for n, b in CSA_SIZES]


def _planted() -> Items:
    from repro.circuits.random_logic import random_circuit
    from repro.fuzz.plant import plant_redundancies
    from repro.timing import AsBuiltDelayModel

    items = []
    for i in PLANTED_SCENARIOS:
        base = random_circuit(8, 50, 3, seed=i ^ 0x5EED)
        planted = plant_redundancies(base, plants=8, seed=i, variant="degrading")
        items.append((f"planted {i}", planted.circuit, AsBuiltDelayModel()))
    return items


def _wide() -> Items:
    from repro.circuits import ripple_carry_adder
    from repro.timing import UnitDelayModel

    return [(f"rca {n}", ripple_carry_adder(n), UnitDelayModel()) for n in (256, 512)]


WORKLOADS: Dict[str, Callable[[], Items]] = {
    "mcnc": _mcnc,
    "adders": _adders,
    "planted": _planted,
    "wide": _wide,
}


def calibrate() -> float:
    """Seconds a fixed job of dict, list and integer work takes right now.

    The job mimics a netlist pass (fanin lookups, value propagation,
    fanout rebuild) over 40,000 nodes, a working set of several MB, so
    memory contention slows it as it slows kms().  It runs three times
    with the collector off, so the program's live objects cannot slow it
    down, and the median counts: one run can land inside a brief stall.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_calibration_job() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def _calibration_job() -> float:
    start = time.perf_counter()
    fanin = {i: ((i * 40503) % i, (i * 65521) % i) for i in range(1, 40000)}
    value = {0: 1}
    for i, (a, b) in fanin.items():
        value[i] = value[a] ^ (value[b] & 1) ^ (i & 1)
    fanout: Dict[int, List[int]] = {}
    for i, pins in fanin.items():
        for j in pins:
            fanout.setdefault(j, []).append(i)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_S / ((before + after) / 2)


@dataclass
class Subject:
    """One circuit of a workload and every kms() call made on it."""

    name: str
    circuit: object
    model: object
    data: dict
    fingerprints: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: the first successful call's result; the one the checker sees.
    result: object = None


def measure(
    subjects: List[Subject], seconds: float, rng: random.Random, tracer=None
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]], int]:
    """Run rounds for ``seconds``.

    Returns per-circuit wall times, the same at reference speed, and the
    number of rounds.
    """
    from repro.core import kms
    from repro.engine.hashing import circuit_fingerprint
    from repro.engine.serialize import circuit_from_dict

    wall: Dict[str, List[float]] = {s.name: [] for s in subjects}
    scaled: Dict[str, List[float]] = {s.name: [] for s in subjects}
    deadline = time.perf_counter() + seconds
    rounds = 0
    before = calibrate()
    while rounds == 0 or time.perf_counter() < deadline:
        order = list(subjects)
        rng.shuffle(order)
        for subject in order:
            circuit = circuit_from_dict(subject.data)
            gc.collect()
            if tracer is not None:
                tracer.circuit = f"{rounds}:{subject.name}"
            try:
                with tracer.span("core.kms") if tracer else nullcontext():
                    start = time.perf_counter()
                    result = kms(circuit, mode="static", model=subject.model)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed call is counted, not raised
                subject.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            after = calibrate()
            wall[subject.name].append(elapsed)
            scaled[subject.name].append(at_reference_speed(elapsed, before, after))
            before = after
            subject.fingerprints.append(circuit_fingerprint(result.circuit))
            if subject.result is None:
                subject.result = result
        rounds += 1
    return wall, scaled, rounds


def kms_seconds(times: Dict[str, List[float]]) -> float:
    """Sum over circuits of each circuit's median call time."""
    return sum(statistics.median(t) for t in times.values() if t)


def set_up(build: Callable[[], Items]) -> Tuple[List[Subject], float]:
    """Build the inputs and warm up on the smallest.

    Returns the subjects and the seconds taken, at reference speed.
    """
    from repro.core import kms
    from repro.engine.serialize import circuit_to_dict

    before = calibrate()
    start = time.perf_counter()
    subjects = [Subject(name, c, m, circuit_to_dict(c)) for name, c, m in build()]
    smallest = min(subjects, key=lambda s: s.circuit.num_gates())
    kms(smallest.circuit, mode="static", model=smallest.model)
    elapsed = time.perf_counter() - start
    return subjects, at_reference_speed(elapsed, before, calibrate())


def run_workload(
    build: Callable[[], Items], seed: int, seconds: float, trace: bool
) -> dict:
    """One workload in this process: set-up, timed rounds, checks."""
    from check import check_output

    imported = time.perf_counter() - _STARTED
    speed = calibrate()
    imported = at_reference_speed(imported, speed, speed)  # imports run once
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.circuit = SETUP
        with tracer.installed():
            subjects, _ = set_up(build)
        wall, base, base_rounds = measure(subjects, seconds / 2, rng)
        with tracer.installed():
            _, traced, rounds = measure(subjects, seconds / 2, rng, tracer)
    else:
        subjects, first = set_up(build)
        setups = [first] + [set_up(build)[1] for _ in range(SETUP_REPEATS - 1)]
        wall, base, rounds = measure(subjects, seconds, rng)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rows, problems = [], []
    attempted = failed = 0
    for subject in subjects:
        calls = subject.fingerprints
        attempted += len(calls) + len(subject.errors)
        failed += len(subject.errors) + sum(fp != calls[0] for fp in calls)
        problems += [f"{subject.name}: {e}" for e in subject.errors]
        if subject.result is None:
            continue
        out = subject.result.circuit
        verdict = check_output(subject.circuit, out, subject.model, seed)
        if verdict.problems:
            failed += calls.count(calls[0])
            problems += [f"{subject.name}: {p}" for p in verdict.problems]
        t = wall[subject.name]
        rows.append({
            "circuit": subject.name,
            "gates_in": subject.circuit.num_gates(),
            "gates_out": out.num_gates(),
            "delay_in": verdict.delay_in,
            "delay_out": verdict.delay_out,
            "iterations": subject.result.iterations,
            "cleanup_steps": subject.result.cleanup_steps,
            "calls": len(t),
            "median_s": statistics.median(t) if t else None,
            "min_s": min(t, default=None),
            "max_s": max(t, default=None),
            "median_ref_s": statistics.median(base[subject.name]) if t else None,
        })

    if tracer is None:
        values = {
            "setup_s": imported + statistics.median(setups),
            "kms_s": kms_seconds(base),
            "peak_rss_mb": peak_rss_mb,
            "out_gates": sum(r["gates_out"] for r in rows),
            "out_delay": sum(r["delay_out"] for r in rows),
        }
        declared = load_spec()["end_to_end"]
    else:
        values = _layer_values(tracer, subjects, rounds, base, traced)
        declared = load_spec()["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "rounds": rounds,
        "rows": rows,
        "problems": problems,
    }
    if tracer is not None:
        record["untraced_rounds"] = base_rounds
        record["spans"] = [list(vars(s).values()) for s in tracer.spans]
    return record


def _layer_values(tracer, subjects, rounds, base, traced) -> dict:
    """Per traced round, except set-up spans, which are per set-up."""
    setup = summarize(s for s in tracer.spans if s.circuit == SETUP)
    timed = summarize(s for s in tracer.spans if s.circuit != SETUP)
    values = {}
    for key, value in timed.items():
        span = key.rsplit(".", 1)[0]
        values[key] = setup[key] if span in SETUP_SPANS else value / rounds
    podem_calls = timed["atpg.podem.calls"]
    values["atpg.podem.useful_ratio"] = (
        timed["atpg.podem.untestable"] / podem_calls if podem_calls else 0.0
    )
    results = [s.result for s in subjects if s.result is not None]
    counters = {
        name: sum(r.counters.get(name, 0) for r in results)
        for name in ("paths_enumerated", "viability_checks_exact", "sat_proofs")
    }
    paths = counters["paths_enumerated"]
    values["timing.exact_ratio"] = counters["viability_checks_exact"] / paths if paths else 0.0
    values["core.unattributed_share"] = timed["core.kms.self_s"] / timed["core.kms.s"]
    values["trace_overhead"] = kms_seconds(traced) / kms_seconds(base) - 1
    values["core.iterations"] = sum(r.iterations for r in results)
    values["atpg.removals"] = sum(r.cleanup_steps for r in results)
    values["timing.paths_enumerated"] = paths
    values["atpg.sat_proofs"] = counters["sat_proofs"]
    return values


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, seconds: float) -> dict:
    try:
        import numpy
    except ImportError:
        numpy = None
    head = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        head = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "nproc": os.cpu_count(),
        "git_head": head,
        "seed": seed,
        "seconds": seconds,
    }


def print_rows(workload: str, record: dict) -> None:
    out = sys.stderr
    print(f"== {workload}: {record['rounds']} round(s)", file=out)
    print(f"{'circuit':<12} {'gates':>11} {'delay':>13} {'iter':>5} "
          f"{'calls':>5} {'median_s':>9} {'min_s':>9} {'max_s':>9}", file=out)
    for r in record["rows"]:
        print(f"{r['circuit']:<12} {r['gates_in']:>5}->{r['gates_out']:<5} "
              f"{r['delay_in']:>6g}->{r['delay_out']:<6g} {r['iterations']:>5} "
              f"{r['calls']:>5} {r['median_s'] or 0:>9.4f} {r['min_s'] or 0:>9.4f} "
              f"{r['max_s'] or 0:>9.4f}", file=out)
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=out)
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}", file=out)


def run_children(args) -> int:
    """Each workload in a fresh child process, one after the other."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            part = Path(tmp) / f"{workload}.json"
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(part)],
                stdout=subprocess.DEVNULL, check=False,
            )
            if child.returncode != 0:
                print(f"workload {workload} exited {child.returncode}", file=sys.stderr)
                return 1
            records.update(json.loads(part.read_text())["workloads"])
    summary = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "workloads": {w: r["metrics"] for w, r in records.items()},
    }
    if args.out:
        write_out(args, records)
    if args.trace:
        missing = unfired({w: {k: m["value"] for k, m in r["metrics"].items()}
                           for w, r in records.items()})
        if missing:
            print(f"spans that never fired: {missing}", file=sys.stderr)
            return 1
    print(json.dumps(summary))
    return 0


def write_out(args, records: dict) -> None:
    payload = {"env": environment(args.seed, args.seconds), "workloads": records}
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write rows, metrics and environment as JSON")
    args = parser.parse_args(argv)

    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        print(f"refusing to measure with {leaked} set", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    args.workload = args.workload or list(WORKLOADS)
    if len(args.workload) > 1:
        return run_children(args)

    workload = args.workload[0]
    record = run_workload(WORKLOADS[workload], args.seed, args.seconds, bool(args.trace))
    print_rows(workload, record)
    if args.out:
        write_out(args, {workload: record})
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
