"""SAT sweeping: the SweepSolver oracle and the fraig loop."""

from repro.aig import (
    Aig,
    SweepSolver,
    aig_to_circuit,
    circuit_to_aig,
    fraig,
    lit_neg,
)
from repro.circuits import (
    MCNC_NAMES,
    carry_skip_adder,
    mcnc_circuit,
    random_redundant_circuit,
)
from repro.counters import Window
from repro.sat import check_equivalence


def _xor_two_ways():
    """One AIG computing x^y twice through different structures."""
    aig = Aig()
    x = aig.add_input("x")
    y = aig.add_input("y")
    direct = aig.add_xor(x, y)
    # (x | y) & !(x & y): same function, different shape
    other = aig.add_and(
        aig.add_or(x, y), lit_neg(aig.add_and(x, y))
    )
    aig.add_output("direct", direct)
    aig.add_output("other", other)
    return aig, direct, other


def test_sweep_solver_proves_equivalence():
    aig, direct, other = _xor_two_ways()
    sweeper = SweepSolver(aig)
    verdict, cex = sweeper.prove_equal(direct, other)
    assert verdict is True
    assert cex is None


def test_sweep_solver_refutes_with_pattern():
    aig = Aig()
    x = aig.add_input("x")
    y = aig.add_input("y")
    a = aig.add_and(x, y)
    o = aig.add_or(x, y)
    aig.add_output("a", a)
    aig.add_output("o", o)
    sweeper = SweepSolver(aig)
    verdict, cex = sweeper.prove_equal(a, o)
    assert verdict is False
    # the pattern genuinely separates the two literals
    values = aig.simulate(cex, 1)
    assert aig.lit_value(values, a, 1) != aig.lit_value(values, o, 1)


def test_solve_any_distinct_over_equal_pairs_is_one_call():
    aig, direct, other = _xor_two_ways()
    sweeper = SweepSolver(aig)
    window = Window()
    distinct, pattern = sweeper.solve_any_distinct(
        [(direct, other), (direct, direct)]
    )
    assert distinct is False and pattern is None
    assert window.delta()["sat_calls"] == 1


def test_fraig_merges_equivalent_cones():
    aig, direct, other = _xor_two_ways()
    result = fraig(aig, conflict_limit=None)
    assert result.map_lit(direct) == result.map_lit(other)
    assert result.stats.sat_proved >= 1
    # both outputs now point at one cone
    (la, lb) = [lit for _, lit in result.aig.outputs]
    assert la == lb


def test_fraig_preserves_function():
    circuit = random_redundant_circuit(seed=3)
    aig, _ = circuit_to_aig(circuit)
    result = fraig(aig, conflict_limit=None)
    import random

    rng = random.Random(99)
    width = 64
    patterns = {
        name: rng.getrandbits(width) for name in aig.input_names()
    }
    mask = (1 << width) - 1
    old_vals = aig.simulate(
        {n: patterns[aig.input_name(n)] for n in aig.inputs}, width
    )
    new = result.aig
    new_vals = new.simulate(
        {n: patterns[new.input_name(n)] for n in new.inputs}, width
    )
    old_out = {
        name: aig.lit_value(old_vals, lit, mask)
        for name, lit in aig.outputs
    }
    new_out = {
        name: new.lit_value(new_vals, lit, mask)
        for name, lit in new.outputs
    }
    assert old_out == new_out


def test_fraig_shrinks_redundant_adder():
    aig, _ = circuit_to_aig(carry_skip_adder(4, 4))
    before = aig.num_ands(live_only=True)
    result = fraig(aig, conflict_limit=None)
    assert result.aig.num_ands(live_only=True) <= before
    assert result.stats.sat_refuted >= 0  # counters populated
    assert result.stats.patterns >= 128


def test_fraig_sweeps_every_mcnc_stand_in():
    """circuit_to_aig mixes inputs in among the AND nodes, so a SAT
    refutation can arrive before the sweep has created every input."""
    for name in MCNC_NAMES:
        circuit = mcnc_circuit(name)
        aig, _ = circuit_to_aig(circuit)
        swept = aig_to_circuit(fraig(aig).aig, name=circuit.name)
        assert check_equivalence(circuit, swept).equivalent, name


def test_fraig_counterexample_feedback_refines_classes():
    """A refuted merge must not be re-proposed: refutations are recorded
    as appended simulation patterns, so each inequivalent pair costs at
    most one SAT call."""
    circuit = random_redundant_circuit(seed=5, num_gates=25)
    aig, _ = circuit_to_aig(circuit)
    # words=0 degenerates to 64 all-random bits -> many false classes
    result = fraig(aig, seed=1, words=1, conflict_limit=None)
    assert result.stats.sat_refuted == result.stats.patterns - 64
