"""Directed tests for the compiled simulation kernel."""

import pytest

from repro.atpg import (
    all_faults,
    collapsed_faults,
    fault_coverage,
    random_vectors,
    stem_fault,
)
from repro.circuits import carry_skip_adder, mcnc_circuit, random_circuit
from repro.counters import Window
from repro.net.arena import attach_arena
from repro.network import GateType
from repro.sim import (
    CompiledCircuit,
    get_compiled,
    simulate_packed,
)
from repro.sim import kernel as kernel_mod

from . import numpy_reference


# ---------------------------------------------------------------------- #
# evaluation basics
# ---------------------------------------------------------------------- #

def test_evaluate_matches_simulate_packed(and_or_circuit):
    c = and_or_circuit
    packed = {
        c.find_input("a"): 0b0101,
        c.find_input("b"): 0b0011,
        c.find_input("c"): 0b1000,
    }
    kern = CompiledCircuit(c)
    assert kern.evaluate(packed, 4) == simulate_packed(c, packed, 4)


def test_evaluate_overrides_precede_inputs(and_or_circuit):
    c = and_or_circuit
    a = c.find_input("a")
    packed = {a: 0b11, c.find_input("b"): 0b01, c.find_input("c"): 0b00}
    over = {a: 0b00, c.find_gate("g1"): 0b10}
    kern = get_compiled(c)
    assert kern.evaluate(packed, 2, overrides=over) == simulate_packed(
        c, packed, 2, overrides=over
    )


def test_missing_input_defaults_to_zero(and_or_circuit):
    c = and_or_circuit
    kern = get_compiled(c)
    assert kern.evaluate({}, 3) == simulate_packed(c, {}, 3)


def test_words_from_values_roundtrip(and_or_circuit):
    c = and_or_circuit
    packed = {g: 0b101 for g in c.inputs}
    kern = get_compiled(c)
    values = kern.evaluate(packed, 3)
    words = kern.words_from_values(values)
    assert words == kern.evaluate_words(packed, 3)


# ---------------------------------------------------------------------- #
# invalidation
# ---------------------------------------------------------------------- #

def test_version_bumps_on_mutation(and_or_circuit):
    c = and_or_circuit
    before = c.version
    c.add_gate(GateType.NOT, 1.0, name="inv")
    assert c.version > before


def test_kernel_goes_stale_and_recompiles(and_or_circuit):
    c = and_or_circuit
    kern = get_compiled(c)
    assert not kern.stale
    g = c.add_gate(GateType.NOT, 1.0, name="inv")
    c.connect(c.find_input("a"), g)
    assert kern.stale
    # evaluation transparently recompiles
    values = kern.evaluate({pi: 1 for pi in c.inputs}, 1)
    assert values == simulate_packed(c, {pi: 1 for pi in c.inputs}, 1)
    assert not kern.stale


def test_retype_recompiles(and_or_circuit):
    """A retype changes an opcode, so it bumps the version and the
    cached kernel recompiles."""
    c = and_or_circuit
    g1 = c.find_gate("g1")
    packed = {
        c.find_input("a"): 0b1010,
        c.find_input("b"): 0b1100,
        c.find_input("c"): 0b0000,
    }
    assert get_compiled(c).evaluate(packed, 4)[g1] == 0b1000
    before = c.version
    c.set_gate_type(g1, GateType.OR)
    assert c.version > before
    values = get_compiled(c).evaluate(packed, 4)
    assert values == simulate_packed(c, packed, 4)
    assert values[g1] == 0b1110


def test_get_compiled_caches_per_circuit(and_or_circuit):
    c = and_or_circuit
    assert get_compiled(c) is get_compiled(c)


def test_copy_does_not_share_kernel(and_or_circuit):
    c = and_or_circuit
    kern = get_compiled(c)
    dup = c.copy("dup")
    assert get_compiled(dup) is not kern


# ---------------------------------------------------------------------- #
# counters
# ---------------------------------------------------------------------- #

def test_good_eval_counter_is_gate_count(and_or_circuit):
    c = and_or_circuit
    kern = CompiledCircuit(c)
    window = Window()
    kern.evaluate({pi: 0 for pi in c.inputs}, 8)
    # every non-INPUT gate costs exactly one eval per call
    non_pi = sum(
        1 for g in c.gates.values() if g.gtype is not GateType.INPUT
    )
    assert window.delta()["gate_evals_good"] == non_pi
    assert kern.num_eval_gates() == non_pi


def test_cone_cutoff_on_undetectable_difference(and_or_circuit):
    c = and_or_circuit
    kern = CompiledCircuit(c)
    g1 = c.find_gate("g1")
    # with a=b=0 the AND output is 0: stuck-at-0 on its stem produces
    # no difference word, so the cone is cut at the injection site
    good = kern.evaluate_words({pi: 0 for pi in c.inputs}, 1)
    window = Window()
    assert kern.fault_diffs(stem_fault(g1, 0), good, 1) == {}
    assert window.delta()["cone_cutoffs"] == 1
    assert window.delta()["gate_evals_faulty"] == 0


def test_fault_work_is_bounded_by_cone(and_or_circuit):
    c = and_or_circuit
    kern = CompiledCircuit(c)
    good = kern.evaluate_words({pi: 1 for pi in c.inputs}, 1)
    n_evals = kern.num_eval_gates()
    for fault in collapsed_faults(c):
        window = Window()
        kern.fault_diffs(fault, good, 1)
        assert window.delta()["gate_evals_faulty"] <= n_evals


def test_tracker_snapshots_deltas(and_or_circuit):
    c = and_or_circuit
    kern = get_compiled(c)
    window = Window()
    kern.evaluate({pi: 0 for pi in c.inputs}, 4)
    delta = window.delta()
    assert delta["gate_evals_good"] == kern.num_eval_gates()
    assert Window().delta()["gate_evals_good"] == 0


def test_note_dropped_accumulates(and_or_circuit):
    kern = CompiledCircuit(and_or_circuit)
    window = Window()
    kern.note_dropped(3)
    kern.note_dropped(0)
    assert window.delta()["faults_dropped"] == 3


def test_every_work_counter_moves_on_grade_mutate_grade():
    """No dead counters: grading a circuit, mutating it and grading it
    again charges every name in WORK_COUNTERS."""
    c = carry_skip_adder(nbits=2, block_size=2)
    window = Window()
    fault_coverage(c, collapsed_faults(c), random_vectors(c, 64, seed=1))
    inv = c.add_gate(GateType.NOT, 1.0, name="inv")
    c.connect(c.inputs[0], inv)
    c.add_output("inv_o", inv)
    fault_coverage(c, collapsed_faults(c), random_vectors(c, 64, seed=2))
    delta = window.delta()
    counters = {name: delta[name] for name in kernel_mod.WORK_COUNTERS}
    assert all(counters.values()), counters
    # one compile for the first grade, one recompile after the mutation
    assert counters["compile_rebuilds"] == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: carry_skip_adder(nbits=4, block_size=2),
        lambda: random_circuit(num_inputs=6, num_gates=40, seed=3),
        lambda: mcnc_circuit("z4ml"),
    ],
    ids=["csa4.2", "rand", "z4ml"],
)
def test_grading_charges_identical_counts_under_both_kernels(make):
    """The region pass is shared, and both kernels' stem propagations
    evaluate the same gates: one grading charges the same faulty-cone
    work with and without an arena."""
    seen = []
    for arena in (False, True):
        c = make()
        if arena:
            attach_arena(c)
        window = Window()
        report = fault_coverage(c, all_faults(c), random_vectors(c, 96, seed=4))
        delta = window.delta()
        seen.append((
            report.undetected_faults,
            {
                name: delta[name]
                for name in ("gate_evals_faulty", "cone_cutoffs", "faults_dropped")
            },
        ))
    assert seen[0] == seen[1]
    assert seen[0][1]["gate_evals_faulty"]


# ---------------------------------------------------------------------- #
# the numpy reference
# ---------------------------------------------------------------------- #

@pytest.mark.skipif(numpy_reference.np is None, reason="numpy not installed")
@pytest.mark.parametrize("width", [1, 63, 64, 65, 100, 128, 4096])
def test_numpy_backend_matches_python(width):
    # the kernel's Python-int words against an evaluation over unpacked
    # numpy lanes, which shares no truth tables with it
    c = random_circuit(num_inputs=5, num_gates=12, seed=9)
    import random

    rng = random.Random(width)
    packed = {g: rng.getrandbits(width) for g in c.inputs}
    kern = get_compiled(c)
    assert kern.evaluate(packed, width) == numpy_reference.simulate_packed(
        c, packed, width
    )
