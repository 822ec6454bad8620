"""A/B: fraig-first vs CNF-miter equivalence on the Table I suite.

Per circuit, both engines verify the KMS output against the original.
The claims under test:

* **verdict parity** -- both engines say "equivalent" on every row;
* **SAT budget** -- the fraig path issues strictly fewer solve calls
  over the suite (zero per row in practice: structural hashing,
  simulation, or the capped BDD decide before SAT);
* the measured wall times and call counts land in ``BENCH_fraig.json``
  for the CI telemetry artifact.
"""

import json
import os
import time

import pytest

from conftest import once
from repro.bench import optimized_mcnc
from repro.circuits import MCNC_NAMES, carry_skip_adder
from repro.core import kms
from repro.counters import Window
from repro.sat import check_equivalence
from repro.timing import UnitDelayModel

CSA_SIZES = [(2, 2), (4, 4), (8, 2), (8, 4)]
CSA_MODEL = UnitDelayModel(use_arrival_times=False)
MCNC_MODEL = UnitDelayModel()

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _ab_row(name, original, optimized):
    row = {"name": name}
    for method in ("fraig", "cnf"):
        window = Window()
        start = time.perf_counter()
        result = check_equivalence(original, optimized, method=method)
        row[method] = {
            "equivalent": result.equivalent,
            "sat_calls": window.delta()["sat_calls"],
            "seconds": time.perf_counter() - start,
        }
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["fraig"]["equivalent"] is True
    assert row["cnf"]["equivalent"] is True
    assert row["fraig"]["sat_calls"] <= row["cnf"]["sat_calls"]


@pytest.mark.parametrize("nbits,block", CSA_SIZES)
def test_fraig_vs_cnf_csa(benchmark, nbits, block):
    def run():
        circuit = carry_skip_adder(nbits, block)
        out = kms(circuit, mode="static", model=CSA_MODEL).circuit
        return _ab_row(f"csa {nbits}.{block}", circuit, out)

    _assert_row(once(benchmark, run))


@pytest.mark.parametrize("name", MCNC_NAMES)
def test_fraig_vs_cnf_mcnc(benchmark, name):
    def run():
        original = optimized_mcnc(name, late_arrival=6.0, model=MCNC_MODEL)
        out = kms(original, mode="static", model=MCNC_MODEL).circuit
        return _ab_row(name, original, out)

    _assert_row(once(benchmark, run))


def test_zz_emit_bench_json_and_strict_budget():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    fraig_total = sum(r["fraig"]["sat_calls"] for r in _ROWS)
    cnf_total = sum(r["cnf"]["sat_calls"] for r in _ROWS)
    assert fraig_total < cnf_total, (
        f"fraig path must beat the CNF baseline: {fraig_total} vs {cnf_total}"
    )
    payload = {
        "suite": "table1",
        "rows": _ROWS,
        "totals": {
            "fraig_sat_calls": fraig_total,
            "cnf_sat_calls": cnf_total,
            "fraig_seconds": sum(r["fraig"]["seconds"] for r in _ROWS),
            "cnf_seconds": sum(r["cnf"]["seconds"] for r in _ROWS),
        },
    }
    out_path = os.environ.get("BENCH_FRAIG_JSON", "BENCH_fraig.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nwrote {out_path}: fraig {fraig_total} vs cnf {cnf_total} calls")
