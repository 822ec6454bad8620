"""A/B: cross-circuit batched simulation vs per-circuit dispatch.

The batch kernel's claim (the PR-9 issue): fusing every sweep member's
good-circuit simulation into one ragged dispatch per (level, opcode)
group removes the per-circuit python dispatch work -- one python-level
loop iteration per gate per circuit -- without moving a single result
bit.  Per suite, the sweep-level prefilter is built twice:

* **batch** -- one :class:`repro.engine.batchsim.BatchPrefilter` build,
  i.e. one ``batch_fault_coverage`` call fusing every member circuit;
* **percircuit** -- the identical (circuit, universe, vectors) items
  graded through plain per-circuit ``fault_coverage`` calls, the
  ``REPRO_SIM_BATCH=0`` execution shape.

The claims under test:

* **bit-identical verdicts** -- every prefilter lookup equals the
  per-circuit grading on every row, and a full ``run_jobs`` scaling
  sweep has identical result fingerprints with ``batch_sim`` on and
  off;
* **dispatch-work reduction** -- over the suites, the per-circuit path
  performs at least 5x more python-level dispatch iterations
  (``gate_evals_good``: one per gate per circuit) than the batched path
  (``group_dispatches``: one per ragged (level, opcode) group);
* the deterministic batch work counters land in ``BENCH_batch.json``,
  which the ``batch`` row of the matrix-driven ``perf-gate`` CI job
  compares against ``benchmarks/baselines/BENCH_batch_baseline.json``
  via ``benchmarks/compare_baseline.py``.
"""

import json
import os
import time

import pytest

from conftest import once
from repro.atpg import collapsed_faults, fault_coverage
from repro.atpg.faultsim import random_vectors
from repro.engine import (
    BatchPrefilter,
    EngineConfig,
    circuit_fingerprint,
    random_jobs,
    run_jobs,
    scaling_jobs,
)
from repro.engine.batchsim import (
    PREFILTER_PATTERNS,
    PREFILTER_SEED,
    prefilter_items,
)
from repro.engine.sweep import fuzz_smoke_jobs
from repro.sim.kernel import SimWorkTracker

#: Counters whose totals the CI perf gate protects against regression
#: (all from the batched run; the per-circuit run rides along as the
#: oracle).  ``group_dispatches`` is the python-level loop count of the
#: batched path -- the number the whole optimization exists to shrink.
GATED_COUNTERS = (
    "batch_dispatches",
    "circuits_per_dispatch",
    "gate_evals_batched",
    "group_dispatches",
    "prefilter_faults_graded",
)

#: rows accumulate across tests; the emitter test runs last.
_ROWS = []


def _deduped(items):
    """Mirror ``BatchPrefilter.build``'s fingerprint dedup so the
    per-circuit oracle grades exactly the batched work."""
    keyed = []
    seen = set()
    for circuit, extra in items:
        fp = circuit_fingerprint(circuit)
        if fp in seen:
            continue
        seen.add(fp)
        universe = collapsed_faults(circuit)
        if extra:
            known = set(universe)
            universe.extend(f for f in extra if f not in known)
        keyed.append((circuit, universe))
    return keyed


def _batch_counters(tracker, seconds, extra=None):
    counters = {
        name: value
        for name, value in tracker.counters.items()
        if value
    }
    counters["group_dispatches"] = counters.get(
        "gate_evals_batched", 0
    ) - counters.get("python_loop_iters_saved", 0)
    if extra:
        counters.update(extra)
    return {"seconds": seconds, "counters": counters}


def _prefilter_row(name, jobs):
    items = _deduped(prefilter_items(jobs))
    vectors = [
        random_vectors(c, PREFILTER_PATTERNS, PREFILTER_SEED)
        for c, _u in items
    ]

    tracker = SimWorkTracker()
    start = time.perf_counter()
    pre = BatchPrefilter.build(items)
    batch = _batch_counters(
        tracker, time.perf_counter() - start, extra=pre.counters
    )

    tracker = SimWorkTracker()
    start = time.perf_counter()
    reports = [
        fault_coverage(circuit, universe, vecs)
        for (circuit, universe), vecs in zip(items, vectors)
    ]
    percircuit = _batch_counters(tracker, time.perf_counter() - start)
    percircuit["counters"]["percircuit_dispatches"] = len(items)

    identical = True
    for (circuit, universe), vecs, report in zip(items, vectors, reports):
        undetected = set(report.undetected_faults)
        want = [f for f in universe if f not in undetected]
        if pre.lookup(circuit, vecs, universe) != want:
            identical = False
    row = {
        "name": name,
        "circuits": len(items),
        "batch": batch,
        "percircuit": percircuit,
        "identical": identical,
    }
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["identical"], (
        f"batched prefilter diverged from per-circuit grading "
        f"on {row['name']}"
    )
    batch = row["batch"]["counters"]
    assert batch["batch_dispatches"] >= 1
    assert batch["group_dispatches"] < batch["gate_evals_batched"], (
        "batching must fuse at least some rows per dispatch group"
    )


def test_prefilter_ab_scaling(benchmark):
    _assert_row(once(
        benchmark, lambda: _prefilter_row("prefilter scaling",
                                          scaling_jobs())
    ))


def test_prefilter_ab_random(benchmark):
    _assert_row(once(
        benchmark, lambda: _prefilter_row("prefilter random8",
                                          random_jobs(count=8))
    ))


def test_prefilter_ab_fuzz_smoke(benchmark):
    _assert_row(once(
        benchmark, lambda: _prefilter_row("prefilter fuzz_smoke",
                                          fuzz_smoke_jobs())
    ))


def test_sweep_ab_scaling(benchmark):
    """Full engine A/B: the scaling sweep end to end, batch sim on
    vs off, result fingerprints bit-identical.  Both sides' seconds
    are whole ``run_jobs`` sweeps (the batched one includes building
    its prefilter), so the two timings compare like for like."""

    def run():
        jobs = scaling_jobs()
        start = time.perf_counter()
        on = run_jobs(jobs, EngineConfig(jobs=1, batch_sim=True))
        on_seconds = time.perf_counter() - start
        start = time.perf_counter()
        off = run_jobs(jobs, EngineConfig(jobs=1, batch_sim=False))
        off_seconds = time.perf_counter() - start

        pre = [
            r for r in on.telemetry.records
            if r.stage == "batch_prefilter"
        ]
        counters = dict(pre[0].counters) if pre else {}
        counters["group_dispatches"] = counters.get(
            "gate_evals_batched", 0
        ) - counters.get("python_loop_iters_saved", 0)
        row = {
            "name": "sweep scaling",
            "circuits": len(jobs),
            "batch": {"seconds": on_seconds, "counters": counters},
            "percircuit": {"seconds": off_seconds, "counters": {}},
            "identical": (
                on.ok and off.ok
                and [(r.name, r.fingerprint) for r in on.results]
                == [(r.name, r.fingerprint) for r in off.results]
            ),
        }
        _ROWS.append(row)
        return row

    row = once(benchmark, run)
    assert row["identical"], (
        "batch-sim scaling sweep results diverged from the "
        "REPRO_SIM_BATCH=0 oracle"
    )
    assert row["batch"]["counters"]["prefilter_hits"] > 0, (
        "the sweep's proof engines never consumed the pre-pass"
    )


def test_zz_emit_bench_json_and_dispatch_claim():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
    totals = {}
    for key in ("batch", "percircuit"):
        names = set()
        for row in _ROWS:
            names.update(row[key]["counters"])
        totals[key] = {
            "seconds": sum(r[key]["seconds"] for r in _ROWS),
            "counters": {
                name: sum(
                    r[key]["counters"].get(name, 0) for r in _ROWS
                )
                for name in sorted(names)
            },
        }
    payload = {
        "suite": "sim-batch",
        "result_key": "batch",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    prefilter_rows = [r for r in _ROWS if "percircuit_dispatches"
                      in r["percircuit"]["counters"]]
    if len(prefilter_rows) >= 3:
        # dispatch work: the per-circuit path runs one python loop
        # iteration per gate per circuit (gate_evals_good); the batched
        # path runs one vectorized dispatch per ragged (level, opcode)
        # group.  The suites fused together must save >=5x.
        percircuit_work = sum(
            r["percircuit"]["counters"].get("gate_evals_good", 0)
            for r in prefilter_rows
        )
        batch_work = sum(
            r["batch"]["counters"]["group_dispatches"]
            for r in prefilter_rows
        )
        payload["dispatch"] = {
            "percircuit_python_iters": percircuit_work,
            "batch_group_dispatches": batch_work,
            "dispatch_ratio": percircuit_work / max(1, batch_work),
        }
        assert percircuit_work >= 5 * batch_work, (
            f"batching must save >=5x python dispatch iterations over "
            f"the sweep suites: percircuit={percircuit_work} "
            f"batch={batch_work}"
        )
    out_path = os.environ.get("BENCH_BATCH_JSON", "BENCH_batch.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ratio = payload.get("dispatch", {}).get("dispatch_ratio")
    note = f", dispatch ratio {ratio:.1f}x" if ratio else ""
    print(f"\nwrote {out_path}: {len(_ROWS)} rows{note}")
