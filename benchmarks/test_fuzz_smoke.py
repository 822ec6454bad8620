"""The fuzz smoke corpus as a CI-gated benchmark.

Runs the deterministic ``fuzz_smoke`` corpus (30 seeded planted-redundancy
scenarios, ``repro.engine.sweep.fuzz_smoke_jobs``'s spec list) through
the differential grading harness, asserting per scenario:

* 100% planted-redundancy recall with the incremental ProofEngine,
  bit-identical to the from-scratch oracle;
* zero false removals (KMS output fraig-equivalent to the pre-insertion
  base) and no delay regression (delay-neutral plants additionally pin
  the final topological delay at or below the original base's);
* the KMS output is irredundant.

Each row lands in ``BENCH_fuzz.json`` with the deterministic proof/KMS
work counters; the blocking ``fuzz-smoke-gate`` CI job compares them
against ``benchmarks/baselines/BENCH_fuzz_baseline.json`` via the shared
``benchmarks/compare_baseline.py``, so grading a scenario can never
silently get slower or start disagreeing with the oracle.
"""

import json
import os

import pytest

from conftest import once
from repro.engine.sweep import FUZZ_SMOKE_COUNT, FUZZ_SMOKE_SEED
from repro.fuzz import campaign_specs, grade_scenario

#: Deterministic work counters the CI gate protects (prefixes from
#: repro.fuzz.grade: proof_* = ProofEngine classification of the planted
#: list, kms_* = the KMS run over the planted circuit).
GATED_COUNTERS = (
    "proof_random_words",
    "proof_sat_proofs",
    "proof_tseitin_builds",
    "proof_faults_requalified",
    "kms_iterations",
    "kms_random_words",
    "kms_sat_proofs",
    "kms_tseitin_builds",
    "kms_paths_enumerated",
    "kms_viability_checks_exact",
)

SPECS = campaign_specs(FUZZ_SMOKE_COUNT, seed=FUZZ_SMOKE_SEED)

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _grade_row(spec):
    payload = grade_scenario(spec)
    row = {
        "name": spec.name,
        "identical": payload["ok"],
        "mismatches": payload["mismatches"],
        "recall": payload["recall"],
        "fuzz": {
            "seconds": payload["seconds"],
            "counters": {
                k: int(v) for k, v in payload["counters"].items()
            },
        },
    }
    _ROWS.append(row)
    return row


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_fuzz_smoke_scenario(benchmark, spec):
    row = once(benchmark, lambda: _grade_row(spec))
    assert row["identical"], (
        f"fuzz scenario {row['name']} failed grading: "
        f"{row['mismatches']}"
    )
    assert row["recall"] == 1.0


def test_zz_emit_bench_json():
    """Artifact emitter; named to sort after the row tests and tolerant
    of partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no fuzz rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
    totals = {
        "fuzz": {
            "seconds": sum(r["fuzz"]["seconds"] for r in _ROWS),
            "counters": {
                name: sum(r["fuzz"]["counters"].get(name, 0)
                          for r in _ROWS)
                for name in GATED_COUNTERS
            },
        }
    }
    payload = {
        "suite": "fuzz-smoke",
        "result_key": "fuzz",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    out_path = os.environ.get("BENCH_FUZZ_JSON", "BENCH_fuzz.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {out_path}: {len(_ROWS)} rows, "
          f"recall 100% on {sum(len(r['mismatches']) == 0 for r in _ROWS)}"
          f"/{len(_ROWS)} scenarios")
