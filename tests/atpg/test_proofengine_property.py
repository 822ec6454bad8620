"""Property suite: the persistent proof engine is bit-identical to the
from-scratch funnel, and its pool is a complete test set.

Over hundreds of random circuits (plain and guaranteed-redundant), both
removal drivers must take the same removal steps in the same order and
reach the same irredundancy verdicts, both classifiers must return the
same redundant faults, and after a classification the engine's pool
must detect every classified fault except the ones it calls redundant.
The circuits are small on purpose -- the point is breadth of structure
(gate mixes, fanout shapes, constant cones after removal), not depth.
"""

import pytest

from repro.atpg import (
    ProofEngine,
    collapsed_faults,
    fault_coverage,
    redundant_faults,
    remove_redundancies,
)
from repro.atpg.redundancy import is_irredundant
from repro.circuits import random_circuit, random_redundant_circuit
from repro.counters import Window
from repro.engine.hashing import circuit_fingerprint

#: 150 plain + 80 guaranteed-redundant = 230 random circuits, batched
#: so the suite stays a handful of pytest items.
PLAIN_SEEDS = range(150)
REDUNDANT_SEEDS = range(80)
BATCH = 25


def _steps(result):
    return [(s.fault.kind, s.fault.site, s.fault.value)
            for s in result.steps]


def _check_ab(circuit, backtrack_limit=100, patterns=64):
    inc = remove_redundancies(
        circuit, incremental=True,
        backtrack_limit=backtrack_limit, patterns=patterns,
    )
    full = remove_redundancies(
        circuit, incremental=False,
        backtrack_limit=backtrack_limit, patterns=patterns,
    )
    assert _steps(inc) == _steps(full), circuit.name
    assert (circuit_fingerprint(inc.circuit)
            == circuit_fingerprint(full.circuit)), circuit.name
    assert is_irredundant(inc.circuit), circuit.name
    assert not redundant_faults(full.circuit, incremental=False), circuit.name
    assert (redundant_faults(circuit, incremental=True)
            == redundant_faults(circuit, incremental=False)), circuit.name
    return inc


def _batches(seeds):
    seeds = list(seeds)
    return [seeds[i:i + BATCH] for i in range(0, len(seeds), BATCH)]


@pytest.mark.parametrize("seeds", _batches(PLAIN_SEEDS),
                         ids=lambda s: f"s{s[0]}-{s[-1]}")
def test_random_circuits_bit_identical(seeds):
    for seed in seeds:
        circuit = random_circuit(
            num_inputs=4, num_gates=10 + seed % 5, seed=seed
        )
        _check_ab(circuit)


@pytest.mark.parametrize("seeds", _batches(REDUNDANT_SEEDS),
                         ids=lambda s: f"s{s[0]}-{s[-1]}")
def test_random_redundant_circuits_bit_identical(seeds):
    removed = 0
    for seed in seeds:
        circuit = random_redundant_circuit(
            num_inputs=4, num_gates=10 + seed % 5, seed=seed
        )
        removed += _check_ab(circuit).removed
    # the construction guarantees redundancy, so the batch must have
    # actually exercised the removal path
    assert removed >= len(seeds)


def test_satfunnel_stress_bit_identical():
    """A one-vector prefilter routes every suspect through the complete
    provers, exercising epoch-solver reuse and witness feedback."""
    for seed in range(10):
        circuit = random_redundant_circuit(
            num_inputs=5, num_gates=14, seed=seed
        )
        _check_ab(circuit, patterns=1)
    for seed in range(10):
        circuit = random_circuit(num_inputs=4, num_gates=12, seed=seed)
        _check_ab(circuit, backtrack_limit=0, patterns=1)


@pytest.mark.parametrize("patterns", [1, 64])
def test_pool_detects_every_fault_not_called_redundant(patterns):
    """The pool plus the SAT witnesses is a test set: exactly the
    redundant faults stay undetected.  Twelve inputs leave some testable
    faults that random words miss, so SAT witnesses must fill the gap."""
    witnessed = 0
    for seed in range(20):
        for build in (random_circuit, random_redundant_circuit):
            circuit = build(num_inputs=12, num_gates=40, seed=seed)
            faults = collapsed_faults(circuit)
            window = Window()
            engine = ProofEngine(circuit, patterns=patterns)
            redundant = engine.redundant_faults(faults)
            witnessed += window.delta()["sat_proofs"] > len(redundant)
            undetected = fault_coverage(
                circuit, faults, engine.vectors
            ).undetected_faults
            assert set(undetected) == set(redundant), circuit.name
    assert witnessed
