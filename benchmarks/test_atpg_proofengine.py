"""A/B: persistent proof engine vs from-scratch funnel for redundancy
removal.

Per circuit, ``remove_redundancies`` runs twice -- ``incremental=True``
(the persistent :class:`repro.atpg.proofengine.ProofEngine`: an
adaptively grown random pool kept across removals, then one
assumption-gated epoch SAT solver for every survivor, witness feedback
through the compiled kernel) and ``incremental=False`` (the
from-scratch oracle: 64 random vectors, PODEM, SAT for PODEM aborts).
The claims under test:

* **bit-identical results** -- the same removal steps in the same
  order and the same final circuit fingerprint on every row: the proof
  engine is an optimization, never an approximation;
* **work reduction** -- on the SAT-funnel stress suite (Table I
  carry-skip adders and friends driven with a single-pattern random
  prefilter, so every qualification goes through a complete prover) the
  oracle issues at least 5x more complete-prover invocations
  (``podem_calls + sat_proofs + tseitin_builds``; the engine runs no
  PODEM) than the engine;
* the deterministic proof-work counters and (non-gating) wall times
  land in ``BENCH_atpg.json``, which the ``atpg-perf-gate`` CI job
  compares against ``benchmarks/baselines/BENCH_atpg_baseline.json``
  via the shared ``benchmarks/compare_baseline.py``.
"""

import json
import os
import time

import pytest

from conftest import once
from repro.atpg import remove_redundancies
from repro.circuits import (
    carry_skip_adder,
    mcnc_circuit,
    random_redundant_circuit,
)
from repro.engine.hashing import circuit_fingerprint

#: Counters whose totals the CI perf gate protects against regression
#: (work counters only: witness-drop counts *growing* would be an
#: improvement, so they ride along ungated).
GATED_COUNTERS = (
    "faults_requalified",
    "random_words",
    "sat_proofs",
    "tseitin_builds",
)

#: Default-configuration rows: the honest Table I cleanup setting.
IDENTITY_ROWS = [
    ("csa 2.2", lambda: carry_skip_adder(2, 2)),
    ("csa 4.2", lambda: carry_skip_adder(4, 2)),
    ("csa 8.2", lambda: carry_skip_adder(8, 2)),
    ("randred 5x15 s0",
     lambda: random_redundant_circuit(num_inputs=5, num_gates=15, seed=0)),
    ("randred 6x20 s3",
     lambda: random_redundant_circuit(num_inputs=6, num_gates=20, seed=3)),
    ("clip", lambda: mcnc_circuit("clip")),
    ("misex1", lambda: mcnc_circuit("misex1")),
    ("rd73", lambda: mcnc_circuit("rd73")),
    ("sao2", lambda: mcnc_circuit("sao2")),
    ("z4ml", lambda: mcnc_circuit("z4ml")),
]

#: SAT-funnel stress rows: a one-vector random prefilter leaves every
#: testable suspect to the complete provers, which is where the grown
#: pool and witness feedback pay off.
SATFUNNEL_ROWS = [
    ("csa 4.2 satfunnel", lambda: carry_skip_adder(4, 2)),
    ("csa 8.2 satfunnel", lambda: carry_skip_adder(8, 2)),
    ("randred 6x20 s3 satfunnel",
     lambda: random_redundant_circuit(num_inputs=6, num_gates=20, seed=3)),
    ("clip satfunnel", lambda: mcnc_circuit("clip")),
    ("f51m satfunnel", lambda: mcnc_circuit("f51m")),
]

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _prover_invocations(counters):
    # only the from-scratch oracle runs PODEM
    return (counters.get("podem_calls", 0) + counters["sat_proofs"]
            + counters["tseitin_builds"])


def _ab_row(name, suites, circuit, patterns=64):
    row = {"name": name, "suites": list(suites)}
    for key, incremental in (("incremental", True), ("full", False)):
        start = time.perf_counter()
        result = remove_redundancies(
            circuit, incremental=incremental, patterns=patterns
        )
        row[key] = {
            "seconds": time.perf_counter() - start,
            "removed": result.removed,
            "steps": [[s.fault.kind, s.fault.site, s.fault.value]
                      for s in result.steps],
            "fingerprint": circuit_fingerprint(result.circuit),
            "counters": {k: int(v) for k, v in result.counters.items()},
        }
    row["identical"] = (
        row["incremental"]["steps"] == row["full"]["steps"]
        and row["incremental"]["fingerprint"]
        == row["full"]["fingerprint"]
    )
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["identical"], (
        f"proof engine diverged from the from-scratch oracle "
        f"on {row['name']}"
    )


@pytest.mark.parametrize(
    "name,build", IDENTITY_ROWS, ids=[r[0] for r in IDENTITY_ROWS]
)
def test_proofengine_ab_default(benchmark, name, build):
    def run():
        return _ab_row(name, ["identity"], build())

    _assert_row(once(benchmark, run))


@pytest.mark.parametrize(
    "name,build", SATFUNNEL_ROWS, ids=[r[0] for r in SATFUNNEL_ROWS]
)
def test_proofengine_ab_satfunnel(benchmark, name, build):
    def run():
        return _ab_row(name, ["satfunnel"], build(), patterns=1)

    _assert_row(once(benchmark, run))


def test_zz_emit_bench_json_and_speedup_claim():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
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
        "suite": "atpg-proofengine",
        "result_key": "incremental",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    satfunnel = [r for r in _ROWS if "satfunnel" in r["suites"]]
    if len(satfunnel) == len(SATFUNNEL_ROWS):
        full = sum(_prover_invocations(r["full"]["counters"])
                   for r in satfunnel)
        inc = sum(_prover_invocations(r["incremental"]["counters"])
                  for r in satfunnel)
        payload["satfunnel"] = {
            "full_prover_invocations": full,
            "incremental_prover_invocations": inc,
            "prover_ratio": full / max(1, inc),
        }
        assert full >= 5 * inc, (
            f"the proof engine must save >=5x complete-prover "
            f"invocations on the SAT-funnel suite: full={full} "
            f"incremental={inc}"
        )
    out_path = os.environ.get("BENCH_ATPG_JSON", "BENCH_atpg.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ratio = payload.get("satfunnel", {}).get("prover_ratio")
    note = f", satfunnel prover ratio {ratio:.1f}x" if ratio else ""
    print(f"\nwrote {out_path}: {len(_ROWS)} rows{note}")
