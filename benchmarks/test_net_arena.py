"""A/B: arena-backed vs object-graph KMS (``REPRO_NET_LEGACY=1``).

Per circuit, KMS runs twice -- once with the struct-of-arrays
:mod:`repro.net.arena` attached (the default) and once with
``REPRO_NET_LEGACY=1`` forcing the verbatim object-graph path.  The
claims under test:

* **bit-identical results** -- same event sequence, final circuit
  fingerprint and delay on every row: the arena is a representation
  change, never an algorithm change;
* **rebuild-work reduction** -- over the scaling suite the legacy path
  performs at least 5x more compiled-schedule rebuild work
  (``compile_rebuilds``) than the arena path (whose zero-copy view only
  pays ``arena_full_builds`` full constructions and otherwise counts
  ``compile_rebuilds_avoided``);
* the deterministic arena work counters and (non-gating) wall times
  land in ``BENCH_arena.json``, which the ``arena`` row of the
  matrix-driven ``perf-gate`` CI job compares against
  ``benchmarks/baselines/BENCH_arena_baseline.json`` via
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
from repro.net import LEGACY_ENV
from repro.timing import UnitDelayModel, topological_delay

CSA_MODEL = UnitDelayModel(use_arrival_times=False)
MCNC_MODEL = UnitDelayModel()

#: Union of the Table I and scaling carry-skip configurations; each row
#: is computed once and tagged with the suites it belongs to.
CSA_UNION = sorted(set(CSA_SIZES) | set(SCALING_SIZES))

#: Counters whose totals the CI perf gate protects against regression
#: (all from the arena run; the legacy run rides along as the oracle).
GATED_COUNTERS = (
    "arena_compactions",
    "array_ops_inplace",
    "compile_rebuilds_avoided",
    "fingerprint_rehashes",
)

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _run_once(circuit, model, legacy):
    """One timed KMS run under the requested representation."""
    saved = os.environ.get(LEGACY_ENV)
    try:
        if legacy:
            os.environ[LEGACY_ENV] = "1"
        else:
            os.environ.pop(LEGACY_ENV, None)
        start = time.perf_counter()
        result = kms(circuit, mode="static", model=model)
        seconds = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop(LEGACY_ENV, None)
        else:
            os.environ[LEGACY_ENV] = saved
    return result, seconds


def _ab_row(name, suites, circuit, model):
    row = {"name": name, "suites": list(suites)}
    events = {}
    for key, legacy in (("arena", False), ("legacy", True)):
        result, seconds = _run_once(circuit, model, legacy)
        counters = {k: int(v) for k, v in result.counters.items()}
        row[key] = {
            "seconds": seconds,
            "iterations": result.iterations,
            "fingerprint": circuit_fingerprint(result.circuit),
            "delay": topological_delay(result.circuit, model),
            "counters": counters,
        }
        events[key] = [
            (e.path, e.constant_value, e.duplicated_gates, e.gates_after)
            for e in result.events
        ]
    row["identical"] = (
        row["arena"]["fingerprint"] == row["legacy"]["fingerprint"]
        and row["arena"]["delay"] == row["legacy"]["delay"]
        and events["arena"] == events["legacy"]
    )
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["identical"], (
        f"arena-backed KMS diverged from the object-graph oracle "
        f"on {row['name']}"
    )
    # shared algorithm counters must not shift with the representation
    for key in ("paths_enumerated", "viability_checks_exact",
                "arrival_relaxations", "dist_relaxations"):
        assert (row["arena"]["counters"][key]
                == row["legacy"]["counters"][key]), key


@pytest.mark.parametrize("nbits,block", CSA_UNION)
def test_arena_ab_csa(benchmark, nbits, block):
    suites = ["table1"] if (nbits, block) in CSA_SIZES else []
    if (nbits, block) in SCALING_SIZES:
        suites.append("scaling")

    def run():
        circuit = carry_skip_adder(nbits, block)
        return _ab_row(f"csa {nbits}.{block}", suites, circuit, CSA_MODEL)

    _assert_row(once(benchmark, run))


@pytest.mark.parametrize("name", MCNC_NAMES)
def test_arena_ab_mcnc(benchmark, name):
    def run():
        circuit = optimized_mcnc(
            name, late_arrival=MCNC_LATE_ARRIVAL, model=MCNC_MODEL
        )
        return _ab_row(name, ["table1"], circuit, MCNC_MODEL)

    _assert_row(once(benchmark, run))


def test_zz_emit_bench_json_and_rebuild_claim():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
    scaling = [r for r in _ROWS if "scaling" in r["suites"]]
    totals = {}
    for key in ("arena", "legacy"):
        totals[key] = {
            "seconds": sum(r[key]["seconds"] for r in _ROWS),
            "counters": {
                name: sum(r[key]["counters"].get(name, 0) for r in _ROWS)
                for name in GATED_COUNTERS + ("compile_rebuilds",
                                              "arena_full_builds")
            },
        }
    payload = {
        "suite": "net-arena",
        "result_key": "arena",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    if len(scaling) == len(SCALING_SIZES):
        # rebuild work: legacy pays a full schedule compile per stale
        # kernel hit; the arena pays only its full array builds and
        # otherwise refreshes the zero-copy view in place.
        legacy_work = sum(
            r["legacy"]["counters"]["compile_rebuilds"] for r in scaling
        )
        arena_work = sum(
            r["arena"]["counters"]["compile_rebuilds"]
            + r["arena"]["counters"].get("arena_full_builds", 0)
            for r in scaling
        )
        avoided = sum(
            r["arena"]["counters"]["compile_rebuilds_avoided"]
            for r in scaling
        )
        payload["scaling"] = {
            "legacy_compile_rebuilds": legacy_work,
            "arena_rebuild_work": arena_work,
            "compile_rebuilds_avoided": avoided,
            "rebuild_ratio": legacy_work / max(1, arena_work),
        }
        assert legacy_work >= 5 * arena_work, (
            f"the arena view must save >=5x compiled-schedule rebuilds "
            f"on the scaling suite: legacy={legacy_work} "
            f"arena={arena_work}"
        )
    out_path = os.environ.get("BENCH_ARENA_JSON", "BENCH_arena.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ratio = payload.get("scaling", {}).get("rebuild_ratio")
    note = f", scaling rebuild ratio {ratio:.1f}x" if ratio else ""
    print(f"\nwrote {out_path}: {len(_ROWS)} rows{note}")
