"""A/B: compiled event-driven fault simulation vs full resimulation.

Per circuit, the same fault-coverage run is graded twice --
``fault_coverage(...)`` on the compiled kernel (one event-driven
propagation per fanout-free region + fault dropping,
:mod:`repro.sim.kernel`) and
``fault_coverage(..., compiled=False)`` on the interpreted
full-resimulation oracle.  The claims under test:

* **identical coverage** -- same detected count and the same undetected
  fault list: the kernel is an optimization, never an approximation;
* **work reduction** -- over the Table I suite the legacy path performs
  at least 100x more faulty-circuit gate evaluations than the kernel's
  one event-driven propagation per fanout-free region (per-fault cones
  managed about 50x, so a fallback to them fails here; the legacy cost
  is analytical: every still-active fault resimulates every non-PI gate
  once per pattern block, a number the bit-identical drop progression
  lets us replay exactly);
* the deterministic work counters and (non-gating) wall times land in
  ``BENCH_sim.json``, which the ``sim`` row of the matrix-driven
  ``perf-gate`` CI job compares against
  ``benchmarks/baselines/BENCH_sim_baseline.json`` via
  ``benchmarks/compare_baseline.py``.
"""

import json
import os
import time

import pytest

from conftest import once
from repro.atpg import collapsed_faults, fault_coverage, random_vectors
from repro.circuits import MCNC_NAMES, carry_skip_adder, mcnc_circuit
from repro.counters import Window
from repro.engine.sweep import CSA_SIZES, SCALING_SIZES
from repro.sim.kernel import CompiledCircuit, WORK_COUNTERS
from repro.sim.parallel import pack_vectors

#: Union of the Table I and scaling carry-skip configurations; each row
#: is computed once and tagged with the suites it belongs to.
CSA_UNION = sorted(set(CSA_SIZES) | set(SCALING_SIZES))

#: Random-pattern budget per circuit; several 64-wide blocks so fault
#: dropping and per-block good-sim reuse both show up in the counters.
N_VECTORS = 256
SEED = 5
BLOCK = 64

#: Counters whose totals the CI perf gate protects against regression
#: (cone_cutoffs and faults_dropped are reported, not gated: a *better*
#: cone cutoff heuristic lowers them legitimately).
GATED_COUNTERS = ("gate_evals_good", "gate_evals_faulty")

#: rows accumulate across parametrized tests; the emitter test runs last.
_ROWS = []


def _legacy_work(circuit, faults, vectors):
    """Analytical gate evaluations of the interpreted path.

    ``simulate_fault_packed`` re-evaluates every non-PI gate per still
    active fault per block, and ``simulate_packed`` does the same once
    per block for the good circuit.  The drop progression is replayed
    on a private kernel (bit-identical to both public paths), so the
    count is exact, not an estimate.
    """
    kern = CompiledCircuit(circuit)
    per_sim = kern.num_eval_gates()
    good = 0
    faulty = 0
    remaining = list(faults)
    for start in range(0, len(vectors), BLOCK):
        packed, width = pack_vectors(circuit, vectors[start:start + BLOCK])
        good += per_sim
        faulty += len(remaining) * per_sim
        good_words = kern.evaluate_words(packed, width)
        remaining = [
            f for f in remaining
            if not kern.detecting_word(f, good_words, width)
        ]
        if not remaining:
            break
    return good, faulty


def _ab_row(name, suites, circuit):
    faults = collapsed_faults(circuit)
    vectors = random_vectors(circuit, N_VECTORS, seed=SEED)
    row = {
        "name": name,
        "suites": list(suites),
        "faults": len(faults),
        "vectors": len(vectors),
    }

    window = Window()
    start = time.perf_counter()
    fast = fault_coverage(circuit, faults, vectors, block=BLOCK)
    work = window.delta()
    row["kernel"] = {
        "seconds": time.perf_counter() - start,
        "coverage": fast.coverage,
        "detected": fast.detected,
        "counters": {name: work[name] for name in WORK_COUNTERS},
    }

    start = time.perf_counter()
    slow = fault_coverage(
        circuit, faults, vectors, block=BLOCK, compiled=False
    )
    legacy_good, legacy_faulty = _legacy_work(circuit, faults, vectors)
    row["legacy"] = {
        "seconds": time.perf_counter() - start,
        "coverage": slow.coverage,
        "detected": slow.detected,
        "counters": {
            "gate_evals_good": legacy_good,
            "gate_evals_faulty": legacy_faulty,
        },
    }
    row["identical"] = (
        fast.detected == slow.detected
        and fast.undetected_faults == slow.undetected_faults
    )
    row["faulty_eval_ratio"] = legacy_faulty / max(
        1, row["kernel"]["counters"]["gate_evals_faulty"]
    )
    _ROWS.append(row)
    return row


def _assert_row(row):
    assert row["identical"], (
        f"kernel fault grading diverged from the interpreted oracle "
        f"on {row['name']}"
    )
    kern = row["kernel"]["counters"]
    assert kern["gate_evals_faulty"] <= (
        row["legacy"]["counters"]["gate_evals_faulty"]
    )
    assert set(WORK_COUNTERS) == set(kern)


@pytest.mark.parametrize("nbits,block", CSA_UNION)
def test_sim_kernel_csa(benchmark, nbits, block):
    suites = ["table1"] if (nbits, block) in CSA_SIZES else []
    if (nbits, block) in SCALING_SIZES:
        suites.append("scaling")

    def run():
        circuit = carry_skip_adder(nbits, block)
        return _ab_row(f"csa {nbits}.{block}", suites, circuit)

    _assert_row(once(benchmark, run))


@pytest.mark.parametrize("name", MCNC_NAMES)
def test_sim_kernel_mcnc(benchmark, name):
    def run():
        return _ab_row(name, ["table1"], mcnc_circuit(name))

    _assert_row(once(benchmark, run))


def test_zz_emit_bench_json_and_speedup_claim():
    """Aggregate claim + artifact.  Named to sort after the row tests;
    tolerates partial collection (-k) by only requiring what ran."""
    if not _ROWS:
        pytest.skip("no A/B rows collected in this session")
    assert all(r["identical"] for r in _ROWS)
    totals = {}
    for key in ("kernel", "legacy"):
        names = WORK_COUNTERS if key == "kernel" else GATED_COUNTERS
        totals[key] = {
            "seconds": sum(r[key]["seconds"] for r in _ROWS),
            "counters": {
                name: sum(r[key]["counters"].get(name, 0) for r in _ROWS)
                for name in names
            },
        }
    payload = {
        "suite": "sim-kernel",
        "result_key": "kernel",
        "gated_counters": list(GATED_COUNTERS),
        "rows": _ROWS,
        "totals": totals,
    }
    table1 = [r for r in _ROWS if "table1" in r["suites"]]
    expected_table1 = len(CSA_SIZES) + len(MCNC_NAMES)
    if len(table1) == expected_table1:
        legacy = sum(
            r["legacy"]["counters"]["gate_evals_faulty"] for r in table1
        )
        kernel = sum(
            r["kernel"]["counters"]["gate_evals_faulty"] for r in table1
        )
        payload["table1"] = {
            "legacy_gate_evals_faulty": legacy,
            "kernel_gate_evals_faulty": kernel,
            "faulty_eval_ratio": legacy / max(1, kernel),
        }
        assert legacy >= 100 * kernel, (
            f"fanout-free-region grading must save >=100x faulty gate "
            f"evals on the Table I fault-coverage run: legacy={legacy} "
            f"kernel={kernel}"
        )
    out_path = os.environ.get("BENCH_SIM_JSON", "BENCH_sim.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    ratio = payload.get("table1", {}).get("faulty_eval_ratio")
    note = f", table1 faulty-eval ratio {ratio:.1f}x" if ratio else ""
    print(f"\nwrote {out_path}: {len(_ROWS)} rows{note}")
