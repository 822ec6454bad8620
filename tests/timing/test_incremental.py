"""Directed tests for the incremental timing engine.

The randomized agreement guarantees live in
``test_incremental_property.py``; here each moving part is exercised in
isolation: dirty-cone relaxation counts, and both ways the one loop
test gets its answer -- the packed-simulation reach pass and the SAT
solve over the critical subgraph.
"""

import pytest

from repro.circuits import carry_skip_adder, ripple_carry_adder
from repro.counters import Window
from repro.network.transform import set_connection_constant
from repro.timing import (
    IncrementalSTA,
    IncrementalTiming,
    SensitizationChecker,
    UnitDelayModel,
    ViabilityChecker,
    analyze,
    longest_paths,
)

MODEL = UnitDelayModel(use_arrival_times=False)


# ---------------------------------------------------------------------- #
# dirty-cone STA
# ---------------------------------------------------------------------- #

def test_incremental_sta_relaxes_only_the_dirty_cone():
    circuit = ripple_carry_adder(8)
    window = Window()
    sta = IncrementalSTA(circuit, MODEL)
    assert window.delta()["arrival_relaxations"] == len(circuit.gates)

    cid = next(iter(circuit.gates[circuit.inputs[-1]].fanout))
    set_connection_constant(circuit, cid, 0)
    window = Window()
    sta.refresh()

    delta = window.delta()["arrival_relaxations"]
    assert 0 < delta < len(circuit.gates)
    ann = analyze(circuit, MODEL)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.delay == ann.delay


def test_incremental_sta_annotation_is_a_snapshot():
    circuit = carry_skip_adder(2, 2)
    sta = IncrementalSTA(circuit, MODEL)
    before = sta.annotation()
    cid = next(iter(circuit.gates[circuit.inputs[0]].fanout))
    set_connection_constant(circuit, cid, 1)
    sta.refresh()
    after = sta.annotation()
    assert before.arrival != after.arrival or before.delay != after.delay
    assert before.arrival is not after.arrival


# ---------------------------------------------------------------------- #
# check_path: reach pass, then one SAT solve
# ---------------------------------------------------------------------- #

def _loop_test(nbits, block, mode):
    """A fresh timing context's first loop test, the work window around
    it, and the per-path reference verdict over every longest path."""
    circuit = carry_skip_adder(nbits, block)
    timing = IncrementalTiming(circuit, MODEL, mode=mode)
    timing.begin_iteration()
    ann = timing.annotation()
    checker = (
        ViabilityChecker(circuit, MODEL, annotation=ann)
        if mode == "viability"
        else SensitizationChecker(circuit)
    )
    exact = (
        checker.is_viable if mode == "viability" else checker.is_sensitizable
    )
    expected = any(exact(path) for path in longest_paths(circuit, MODEL))
    window = Window()
    return window, timing.check_path(), expected


def test_check_path_agrees_with_sensitization_checker():
    """On csa 2.2 one of the 64 packed patterns sensitizes a longest
    path, so the reach pass answers and no SAT solve runs."""
    window, verdict, expected = _loop_test(2, 2, "static")
    assert verdict is True and expected is True
    assert window.delta()["viability_checks_prefiltered"] == 1
    assert window.delta()["viability_checks_exact"] == 0


def test_check_path_agrees_with_viability_checker():
    _, verdict, expected = _loop_test(2, 2, "viability")
    assert verdict is True and expected is True


@pytest.mark.parametrize("nbits,block,expected", [(4, 2, False), (4, 4, True)])
@pytest.mark.parametrize("mode", ["static", "viability"])
def test_check_path_sat_solve_answers_when_reach_pass_misses(
    nbits, block, expected, mode
):
    window, verdict, reference = _loop_test(nbits, block, mode)
    assert verdict is expected and reference is expected
    assert window.delta()["viability_checks_prefiltered"] == 0
    assert window.delta()["viability_checks_exact"] == 1


def test_loop_gate_encodings_moves_on_check_mutate_check():
    """The run-long loop solver encodes every gate and every critical
    connection's selection once on its first solve, then only the gates
    whose type or fanin sources changed and the selections whose
    in-edges or constraints changed."""
    circuit = carry_skip_adder(4, 2)
    timing = IncrementalTiming(circuit, MODEL)  # SAT-only: no patterns
    window = Window()
    assert timing.check_path() is False
    assert window.delta()["loop_gate_encodings"] == len(circuit.gates)
    assert window.delta()["loop_select_encodings"] == len(timing.critical)
    # tie one gate's pin off: the constant is new and the gate changed
    gid = next(
        g for g, gate in circuit.gates.items()
        if len(gate.fanin) > 1 and gate.fanout
    )
    set_connection_constant(circuit, circuit.gates[gid].fanin[0], 1)
    timing.refresh()
    window = Window()
    timing.check_path()
    assert window.delta()["loop_gate_encodings"] == 2
    # an unchanged circuit encodes nothing
    window = Window()
    timing.check_path()
    assert window.delta()["loop_gate_encodings"] == 0
    assert window.delta()["loop_select_encodings"] == 0
    assert window.delta()["viability_checks_exact"] == 1


# ---------------------------------------------------------------------- #
# backward-seed tightening (PR 10)
# ---------------------------------------------------------------------- #

def test_backward_seed_skips_parents_when_parent_visible_state_unchanged():
    """Refreshing a touched gate whose delay, fanin edges, and dist are
    all unchanged must relax that gate alone -- not fan out to every
    fanin source the way the old unconditional parent seeding did."""
    circuit = ripple_carry_adder(4)
    sta = IncrementalSTA(circuit, MODEL)
    gid = next(
        g
        for g, gate in circuit.gates.items()
        if len(gate.fanin) >= 2 and gate.fanout
    )
    # rewriting the gate's own delay records it and changes nothing
    circuit.set_gate_delay(gid, circuit.gates[gid].delay)
    window = Window()
    sta.refresh()
    # forward: the gate plus the early-cutoff visit of its fanouts;
    # backward: exactly the seed, no parent fan-out.
    assert window.delta()["arrival_relaxations"] >= 1
    assert window.delta()["dist_relaxations"] == 1
    ann = analyze(circuit, MODEL)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po


def test_backward_seed_still_reaches_parents_on_edge_delay_change():
    """An in-edge delay change leaves the touched gate's own dist alone
    but moves its parents' -- the memo key must catch it."""
    from repro.network import Builder
    from repro.timing import AsBuiltDelayModel

    b = Builder("seed")
    x, y = b.inputs("x", "y")
    g = b.and_(x, y, delay=1.0)
    b.output("o", g)
    circuit = b.done()
    model = AsBuiltDelayModel()
    sta = IncrementalSTA(circuit, model)
    assert sta.dist_to_po[x] == 1.0
    cid = circuit.gates[g].fanin[0]  # the x -> g edge
    circuit.set_connection_delay(cid, 5.0)  # records the edge's dst
    sta.refresh()
    ann = analyze(circuit, model)
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.dist_to_po[x] == 6.0
    assert sta.dist_to_po[y] == 1.0


def test_backward_seed_still_reaches_parents_on_gate_delay_change():
    from repro.network import Builder
    from repro.timing import AsBuiltDelayModel

    b = Builder("seed2")
    x, y = b.inputs("x", "y")
    inner = b.or_(x, y, delay=1.0)
    g = b.and_(inner, y, delay=1.0)
    b.output("o", g)
    circuit = b.done()
    model = AsBuiltDelayModel()
    sta = IncrementalSTA(circuit, model)
    circuit.set_gate_delay(g, 4.0)
    sta.refresh()
    ann = analyze(circuit, model)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.dist_to_po[inner] == 4.0
