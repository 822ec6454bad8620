"""Core AIG invariants: literals, folding, rewriting, hashing, sim."""

import random

import pytest

from repro.aig import (
    LIT_FALSE,
    LIT_TRUE,
    Aig,
    AigError,
    aig_to_circuit,
    circuit_to_aig,
    lit_make,
    lit_neg,
    lit_node,
    lit_phase,
)
from repro.circuits import random_circuit
from repro.sim import simulate_packed


def test_literal_encoding():
    assert lit_make(3) == 6
    assert lit_make(3, 1) == 7
    assert lit_node(7) == 3
    assert lit_phase(7) == 1
    assert lit_phase(6) == 0
    assert lit_neg(6) == 7
    assert lit_neg(7) == 6
    assert lit_neg(LIT_FALSE) == LIT_TRUE


def test_constant_folding():
    aig = Aig()
    a = aig.add_input("a")
    assert aig.add_and(a, LIT_FALSE) == LIT_FALSE
    assert aig.add_and(LIT_FALSE, a) == LIT_FALSE
    assert aig.add_and(a, LIT_TRUE) == a
    assert aig.add_and(LIT_TRUE, a) == a
    assert aig.add_and(a, a) == a
    assert aig.add_and(a, lit_neg(a)) == LIT_FALSE
    assert aig.num_ands() == 0


def test_structural_hash_shares_nodes():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(b, a)  # commuted: same node
    assert n1 == n2
    assert aig.num_ands() == 1


def test_one_level_containment_and_contradiction():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    ab = aig.add_and(a, b)
    # containment: a & (a & b) = a & b
    assert aig.add_and(a, ab) == ab
    # contradiction: !a & (a & b) = 0
    assert aig.add_and(lit_neg(a), ab) == LIT_FALSE
    # x & !(x & b) = x & !b (substitution)
    assert aig.add_and(a, lit_neg(ab)) == aig.add_and(a, lit_neg(b))


def test_absorption_folds_structurally():
    """a | (a & b) = a -- the shape redundancy removal leaves behind."""
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    assert aig.add_or(a, aig.add_and(a, b)) == a
    aig.add_output("o", aig.add_or(a, aig.add_and(a, b)))
    assert aig.num_ands(live_only=True) == 0


def test_two_level_sharing_rule():
    """(a & b) & !(a & c) simplifies to (a & b) & !c."""
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    ab = aig.add_and(a, b)
    ac = aig.add_and(a, c)
    assert aig.add_and(ab, lit_neg(ac)) == aig.add_and(ab, lit_neg(c))
    # complementary grandchildren: (a & b) & (!a & c) = 0
    nac = aig.add_and(lit_neg(a), c)
    assert aig.add_and(ab, nac) == LIT_FALSE


def test_xor_and_or_connectives():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    aig.add_output("xor", aig.add_xor(a, b))
    aig.add_output("or", aig.add_or(a, b))
    for va in (0, 1):
        for vb in (0, 1):
            out = aig.evaluate({"a": va, "b": vb})
            assert out["xor"] == va ^ vb
            assert out["or"] == va | vb


def test_simulate_packed_matches_single_patterns():
    rng = random.Random(11)
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    f = aig.add_or(aig.add_and(a, b), aig.add_xor(b, lit_neg(c)))
    aig.add_output("f", f)
    width = 32
    patterns = aig.random_patterns(width, rng)
    values = aig.simulate(patterns, width)
    mask = (1 << width) - 1
    packed = aig.lit_value(values, f, mask)
    for bit in range(width):
        single = aig.evaluate({
            aig.input_name(node): (patterns[node] >> bit) & 1
            for node in aig.inputs
        })
        assert single["f"] == (packed >> bit) & 1


def test_simulate_matches_circuit_reference():
    """Aig.simulate against an independent evaluator: the interpreted
    gate-level simulator on the AIG rebuilt as a circuit."""
    aig, _ = circuit_to_aig(
        random_circuit(num_inputs=5, num_gates=14, seed=3)
    )
    reference = aig_to_circuit(aig)
    po_gid = {reference.gates[g].name: g for g in reference.outputs}
    rng = random.Random(0)
    for width in (1, 64, 200):
        patterns = aig.random_patterns(width, rng)
        mask = (1 << width) - 1
        values = aig.simulate(patterns, width)
        expected = simulate_packed(
            reference,
            {
                reference.find_input(aig.input_name(node)): word
                for node, word in patterns.items()
            },
            width,
        )
        for name, lit in aig.outputs:
            assert aig.lit_value(values, lit, mask) == expected[po_gid[name]]


def test_cone_is_topological_and_live_only():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    live = aig.add_and(a, b)
    aig.add_and(lit_neg(a), lit_neg(b))  # dangling
    aig.add_output("o", live)
    cone = aig.cone()
    assert cone == sorted(cone)
    assert lit_node(live) in cone
    assert aig.num_ands() == 2
    assert aig.num_ands(live_only=True) == 1


def test_levels():
    aig = Aig()
    lits = [aig.add_input(f"i{k}") for k in range(4)]
    aig.add_output("o", aig.add_and_many(lits))
    assert aig.levels() == 3  # balanced-free chain: 3 ANDs deep


def test_unknown_literal_raises():
    aig = Aig()
    a = aig.add_input("a")
    with pytest.raises(AigError):
        aig.add_and(a, lit_make(99))
    with pytest.raises(AigError):
        aig.add_output("o", lit_make(99))
    with pytest.raises(AigError):
        aig.fanins(lit_node(a))  # inputs have no fanins
