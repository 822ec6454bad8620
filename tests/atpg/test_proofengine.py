"""Directed cases for the simulate-then-SAT proof engine: the adaptive
random pool, the first-untestable removal rule, and the work counters."""

from repro.atpg import (
    PROOF_COUNTERS,
    ProofEngine,
    SatAtpg,
    collapsed_faults,
    fault_coverage,
    random_vectors,
    remove_fault,
    remove_redundancies,
    stem_fault,
)
from repro.circuits import carry_skip_adder, mcnc_circuit
from repro.core.kms import kms
from repro.counters import Window
from repro.network import Builder, GateType
from repro.synth.optimize import area_optimize
from repro.timing import UnitDelayModel


def _and_tree(width):
    """A balanced tree of 2-input ANDs over ``width`` inputs and its
    root.  The root stuck-at-0 needs every input at 1, so one random
    vector detects it with probability ``2**-width``."""
    b = Builder(f"and{width}")
    signals = list(b.inputs(*[f"x{i}" for i in range(width)]))
    while len(signals) > 1:
        paired = [
            b.and_(signals[i], signals[i + 1])
            for i in range(0, len(signals) - 1, 2)
        ]
        signals = paired + signals[len(paired) * 2:]
    b.output("y", signals[0])
    return b.done(), signals[0]


def _key(fault):
    return (fault.kind, fault.site, fault.value)


class TestAdaptivePool:
    def test_grown_word_detects_without_sat(self):
        circuit, root = _and_tree(9)
        fault = stem_fault(root, 0)
        missed = fault_coverage(
            circuit, [fault], random_vectors(circuit, 64, 7)
        ).undetected_faults
        assert missed == [fault]
        window = Window()
        engine = ProofEngine(circuit)
        assert engine.redundant_faults([fault]) == []
        # the first grown word detects the only survivor, so growth
        # ends without a stop word and SAT is never asked
        assert window.delta()["random_words"] == 1
        assert window.delta()["sat_proofs"] == 0
        # the word continues the seeded stream of the initial pool
        assert engine.vectors == random_vectors(circuit, 128, 7)

    def test_random_resistant_fault_settles_by_sat_witness(self):
        circuit, root = _and_tree(16)
        fault = stem_fault(root, 0)
        window = Window()
        engine = ProofEngine(circuit)
        assert engine.redundant_faults([fault]) == []
        # one word detects nothing, which stops growth; SAT finds the
        # test, and its witness (all ones) joins the pool
        assert window.delta()["random_words"] == 1
        assert window.delta()["sat_proofs"] == 1
        assert engine.vectors[-1] == {gid: 1 for gid in circuit.inputs}
        # any mutation moves the circuit version, which drops the
        # verdict; the pool alone then re-detects the fault
        circuit.set_gate_type(root, GateType.AND)
        assert engine.redundant_faults([fault]) == []
        assert window.delta()["faults_requalified"] == 2
        assert window.delta()["random_words"] == 1
        assert window.delta()["sat_proofs"] == 1


def _cleanup_input():
    """The circuit the KMS cleanup sees on csa 6.2: the last loop
    snapshot after ``area_optimize``."""
    result = kms(
        carry_skip_adder(6, 2),
        model=UnitDelayModel(use_arrival_times=False),
        trace=True,
    )
    work = result.events[-1].snapshot.copy()
    area_optimize(work)
    return work


def _reference_steps(circuit):
    """Brute force: remove the first collapsed fault that 64 random
    vectors miss and a from-scratch SAT miter proves redundant, until
    none is left."""
    work = circuit.copy()
    steps = []
    while True:
        suspects = fault_coverage(
            work, collapsed_faults(work), random_vectors(work, 64, 7)
        ).undetected_faults
        sat = SatAtpg(work)
        fault = next((f for f in suspects if sat.is_redundant(f)), None)
        if fault is None:
            return steps
        steps.append(_key(fault))
        remove_fault(work, fault)


def test_removal_takes_the_first_untestable_fault():
    circuit = _cleanup_input()
    reference = _reference_steps(circuit)
    assert len(reference) == 12
    for incremental in (True, False):
        for options in ({}, {"patterns": 1}, {"backtrack_limit": 0}):
            result = remove_redundancies(
                circuit, incremental=incremental, **options
            )
            steps = [_key(step.fault) for step in result.steps]
            assert steps == reference, (incremental, options)
            assert result.circuit.num_gates() == 63


def test_removal_requalifies_every_fault():
    """Verdicts hold for one circuit version: the epoch after a removal
    grades the whole collapsed universe again, the faults of an output
    cone the removal left alone included."""
    b = Builder("absorb_and")
    x, y, u, v = b.inputs("x", "y", "u", "v")
    b.output("f", b.or_(x, b.and_(x, y)))  # the AND is redundant
    b.output("g", b.and_(u, v))
    circuit = b.done()
    engine = ProofEngine(circuit)
    engine.remove(engine.next_redundant())
    window = Window()
    assert engine.next_redundant() is None
    assert window.delta()["faults_requalified"] == len(
        collapsed_faults(circuit)
    )
    assert window.delta()["sat_proofs"] == 0


def test_every_proof_counter_moves():
    """csa 4.2 removes redundancies; clip drops faults by SAT witnesses
    and reuses the epoch solver."""
    totals = dict.fromkeys(PROOF_COUNTERS, 0)
    for circuit in (carry_skip_adder(4, 2), mcnc_circuit("clip")):
        counters = remove_redundancies(circuit).counters
        for name in PROOF_COUNTERS:
            totals[name] += counters[name]
        assert counters["podem_calls"] == 0
        oracle = remove_redundancies(circuit, incremental=False).counters
        assert oracle["podem_calls"] > 0
    idle = {name for name, value in totals.items() if not value}
    assert not idle
