"""A/B: incremental vs full-recompute timing inside the KMS loop.

Per circuit, KMS runs twice -- ``incremental=True`` (the default
dirty-cone engine, :mod:`repro.timing.incremental`) and
``incremental=False`` (the from-scratch oracle).  The claims under test:

* **identical results** -- the same KMS steps (event sequence), final
  circuit fingerprint and delay on every row: the incremental engine is
  an optimization, never an approximation;
* **work reduction** -- over the scaling suite the full recompute does
  at least 5x more ``arrival_relaxations`` than the dirty-cone engine;
* the deterministic work counters and (non-gating) wall times land in
  ``BENCH_kms.json``, which the ``kms`` row of the matrix-driven
  ``perf-gate`` CI job compares against
  ``benchmarks/baselines/BENCH_kms_baseline.json`` via
  ``benchmarks/compare_baseline.py``.
"""

import json
import os
import time

import pytest

from conftest import once
from repro.bench import optimized_mcnc
from repro.circuits import MCNC_NAMES, carry_skip_adder
from repro.core import kms
from repro.engine.hashing import circuit_fingerprint
from repro.engine.sweep import CSA_SIZES, MCNC_LATE_ARRIVAL, SCALING_SIZES
from repro.timing import UnitDelayModel, topological_delay

CSA_MODEL = UnitDelayModel(use_arrival_times=False)
MCNC_MODEL = UnitDelayModel()

#: Union of the Table I and scaling carry-skip configurations; each row
#: is computed once and tagged with the suites it belongs to.
CSA_UNION = sorted(set(CSA_SIZES) | set(SCALING_SIZES))

#: Counters whose totals the CI perf gate protects against regression:
#: the loop's timing work and the gate and selection definitions its
#: run-long SAT solver encodes (``loop_gate_encodings``,
#: ``loop_select_encodings``), plus the cleanup's fault grading
#: (``gate_evals_faulty``) and the SAT calls of both phases -- on the
#: MCNC rows the cleanup dominates.
GATED_COUNTERS = (
    "arrival_relaxations",
    "dist_relaxations",
    "paths_enumerated",
    "viability_checks_exact",
    "loop_gate_encodings",
    "loop_select_encodings",
    "gate_evals_faulty",
    "sat_calls",
)

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _steps(result):
    return [
        (e.path, e.constant_value, e.duplicated_gates, e.gates_after)
        for e in result.events
    ]


def _ab_row(name, suites, circuit, model):
    row = {"name": name, "suites": list(suites)}
    steps = {}
    for key, incremental in (("incremental", True), ("full", False)):
        start = time.perf_counter()
        result = kms(circuit, mode="static", model=model,
                     incremental=incremental)
        row[key] = {
            "seconds": time.perf_counter() - start,
            "iterations": result.iterations,
            "fingerprint": circuit_fingerprint(result.circuit),
            "delay": topological_delay(result.circuit, model),
            "counters": {k: int(v) for k, v in result.counters.items()},
        }
        steps[key] = _steps(result)
    row["identical"] = (
        row["incremental"]["fingerprint"] == row["full"]["fingerprint"]
        and row["incremental"]["delay"] == row["full"]["delay"]
        and steps["incremental"] == steps["full"]
    )
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["identical"], (
        f"incremental KMS diverged from the full oracle on {row['name']}"
    )


@pytest.mark.parametrize("nbits,block", CSA_UNION)
def test_kms_incremental_csa(benchmark, nbits, block):
    suites = ["table1"] if (nbits, block) in CSA_SIZES else []
    if (nbits, block) in SCALING_SIZES:
        suites.append("scaling")

    def run():
        circuit = carry_skip_adder(nbits, block)
        return _ab_row(f"csa {nbits}.{block}", suites, circuit, CSA_MODEL)

    _assert_row(once(benchmark, run))


@pytest.mark.parametrize("name", MCNC_NAMES)
def test_kms_incremental_mcnc(benchmark, name):
    def run():
        circuit = optimized_mcnc(
            name, late_arrival=MCNC_LATE_ARRIVAL, model=MCNC_MODEL
        )
        return _ab_row(name, ["table1"], circuit, MCNC_MODEL)

    _assert_row(once(benchmark, run))


def test_zz_emit_bench_json_and_speedup_claim():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
    scaling = [r for r in _ROWS if "scaling" in r["suites"]]
    totals = {}
    for key in ("incremental", "full"):
        totals[key] = {
            "seconds": sum(r[key]["seconds"] for r in _ROWS),
            "counters": {
                name: sum(r[key]["counters"].get(name, 0) for r in _ROWS)
                for name in GATED_COUNTERS
            },
        }
    payload = {
        "suite": "kms-incremental",
        "result_key": "incremental",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    if len(scaling) == len(SCALING_SIZES):
        full = sum(r["full"]["counters"]["arrival_relaxations"]
                   for r in scaling)
        inc = sum(r["incremental"]["counters"]["arrival_relaxations"]
                  for r in scaling)
        payload["scaling"] = {
            "full_arrival_relaxations": full,
            "incremental_arrival_relaxations": inc,
            "relaxation_ratio": full / max(1, inc),
        }
        assert full >= 5 * inc, (
            f"dirty-cone STA must save >=5x relaxations on the scaling "
            f"suite: full={full} incremental={inc}"
        )
    out_path = os.environ.get("BENCH_KMS_JSON", "BENCH_kms.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ratio = payload.get("scaling", {}).get("relaxation_ratio")
    note = f", scaling relaxation ratio {ratio:.1f}x" if ratio else ""
    print(f"\nwrote {out_path}: {len(_ROWS)} rows{note}")
