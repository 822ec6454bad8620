"""Fault model and collapsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    SatAtpg,
    all_faults,
    collapsed_faults,
    conn_fault,
    inject,
    stem_fault,
)
from repro.atpg.faults import CONN
from repro.circuits import (
    MCNC_NAMES,
    carry_skip_adder,
    mcnc_circuit,
    random_circuit,
    random_redundant_circuit,
    ripple_carry_adder,
)
from repro.network import (
    Builder,
    GateType,
    controlled_output,
    controlling_value,
    has_controlling_value,
)
from repro.network.transform import set_connection_constant
from repro.sim import outputs_equal_exhaustive


def reference_collapsed_faults(circuit):
    """The union-find over :class:`Fault` objects that
    ``collapsed_faults`` replaced: same rules, dataclass-keyed, one
    class dict, a sort per class."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    universe = []
    const_gids = {
        gid
        for gid, g in circuit.gates.items()
        if g.gtype in (GateType.CONST0, GateType.CONST1)
    }
    for gid, gate in circuit.gates.items():
        if gate.gtype is GateType.OUTPUT or gid in const_gids:
            continue
        if not gate.fanout:
            continue
        universe.append(stem_fault(gid, 0))
        universe.append(stem_fault(gid, 1))
    for cid, conn in circuit.conns.items():
        if conn.src in const_gids:
            continue
        universe.append(conn_fault(cid, 0))
        universe.append(conn_fault(cid, 1))
    present = set(universe)

    for cid, conn in circuit.conns.items():
        if conn.src in const_gids:
            continue
        dst = circuit.gates[conn.dst]
        if dst.gtype in (GateType.BUF, GateType.OUTPUT):
            for v in (0, 1):
                union(conn_fault(cid, v), stem_fault(conn.dst, v))
        elif dst.gtype is GateType.NOT:
            for v in (0, 1):
                union(conn_fault(cid, v), stem_fault(conn.dst, 1 - v))
        elif has_controlling_value(dst.gtype):
            union(
                conn_fault(cid, controlling_value(dst.gtype)),
                stem_fault(conn.dst, controlled_output(dst.gtype)),
            )
    for gid, gate in circuit.gates.items():
        if gate.gtype is GateType.OUTPUT or gid in const_gids:
            continue
        if len(gate.fanout) == 1:
            cid = gate.fanout[0]
            for v in (0, 1):
                union(stem_fault(gid, v), conn_fault(cid, v))

    classes = {}
    for f in universe:
        classes.setdefault(find(f), []).append(f)
    result = []
    for members in classes.values():
        members = [m for m in members if m in present]
        if not members:
            continue
        members.sort(key=lambda f: (f.kind != CONN, f.site, f.value))
        result.append(members[0])
    result.sort(key=lambda f: (f.kind, f.site, f.value))
    return result


CSA_PINS = [(2, 2), (4, 2), (4, 4), (6, 2), (6, 3), (8, 2), (8, 4)]


class TestFaultLists:
    def test_all_faults_counts(self, and_or_circuit):
        c = and_or_circuit
        # stems: 3 PIs + 2 gates = 5 sites x2; conns: 5 x2
        assert len(all_faults(c)) == 5 * 2 + 5 * 2

    def test_collapsed_is_smaller(self, and_or_circuit):
        c = and_or_circuit
        assert len(collapsed_faults(c)) < len(all_faults(c))

    def test_collapsed_deterministic(self, and_or_circuit):
        a = collapsed_faults(and_or_circuit)
        b = collapsed_faults(and_or_circuit)
        assert a == b

    def test_constants_excluded(self):
        b = Builder()
        x = b.input("x")
        b.output("o", b.or_(x, b.const(0)))
        c = b.done()
        faults = collapsed_faults(c)
        const_gids = {
            gid
            for gid, g in c.gates.items()
            if g.gtype.value.startswith("const")
        }
        for f in faults:
            if f.kind == "stem":
                assert f.site not in const_gids
            else:
                assert c.conns[f.site].src not in const_gids

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_collapsing_preserves_redundancy_structure(self, seed):
        """Every fault in the full list must be testable iff some member
        of the collapsed list at the same site-class is -- weaker but
        checkable form: the collapsed list detects redundancy iff the
        full list does."""
        c = random_circuit(num_inputs=4, num_gates=8, seed=seed)
        engine = SatAtpg(c)
        full_red = any(
            engine.is_redundant(f) for f in all_faults(c)
        )
        collapsed_red = any(
            engine.is_redundant(f) for f in collapsed_faults(c)
        )
        assert full_red == collapsed_red


class TestCollapsingPinnedToReference:
    @pytest.mark.parametrize("name", MCNC_NAMES)
    def test_mcnc(self, name):
        c = mcnc_circuit(name)
        assert collapsed_faults(c) == reference_collapsed_faults(c)

    @pytest.mark.parametrize("nbits,block", CSA_PINS)
    def test_carry_skip(self, nbits, block):
        c = carry_skip_adder(nbits, block)
        assert collapsed_faults(c) == reference_collapsed_faults(c)

    def test_ripple_carry_64(self):
        c = ripple_carry_adder(64)
        assert collapsed_faults(c) == reference_collapsed_faults(c)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_draws(self, seed):
        """A random and a redundant-spliced circuit per seed; every
        other seed also ties two connections to constants, so faults
        on constant lines are excluded on both sides."""
        rng = random.Random(seed)
        circuits = [
            random_circuit(
                num_inputs=rng.randint(2, 8),
                num_gates=rng.randint(3, 40),
                num_outputs=rng.randint(1, 4),
                seed=seed,
            ),
            random_redundant_circuit(
                num_gates=rng.randint(5, 30), seed=seed
            ),
        ]
        for c in circuits:
            if seed % 2:
                for cid in rng.sample(sorted(c.conns), 2):
                    set_connection_constant(c, cid, rng.randint(0, 1))
            assert collapsed_faults(c) == reference_collapsed_faults(c)


class TestInjection:
    def test_conn_injection_changes_function(self, and_or_circuit):
        c = and_or_circuit
        g1 = c.find_gate("g1")
        cid = c.gates[g1].fanin[0]
        faulty = inject(c, conn_fault(cid, 0))
        assert not outputs_equal_exhaustive(c, faulty)

    def test_stem_injection(self, two_output_circuit):
        c = two_output_circuit
        shared = c.find_gate("shared")
        faulty = inject(c, stem_fault(shared, 1))
        a, b = faulty.inputs
        values = faulty.evaluate({a: 0, b: 0})
        assert values[faulty.find_output("y0")] == 1

    def test_injection_does_not_mutate_original(self, and_or_circuit):
        c = and_or_circuit
        before = c.num_gates()
        inject(c, stem_fault(c.find_gate("g1"), 0))
        assert c.num_gates() == before

    def test_describe(self, and_or_circuit):
        c = and_or_circuit
        f = stem_fault(c.find_gate("g1"), 0)
        assert "s-a-0" in f.describe(c)
        cid = c.gates[c.find_gate("g1")].fanin[0]
        assert "s-a-1" in conn_fault(cid, 1).describe(c)


class TestPaperRedundancy:
    def test_gate10_stuck0_redundant_in_fig1(self):
        """Section III: 'the single stuck-at-0 fault on the output of
        the gate 10 is not testable'."""
        from repro.circuits import fig1_carry_skip_block

        c = fig1_carry_skip_block()
        engine = SatAtpg(c)
        g10 = c.find_gate("gate10")
        assert engine.is_redundant(stem_fault(g10, 0))
        assert engine.is_testable(stem_fault(g10, 1))

    def test_faulty_fig1_is_ripple_carry_equivalent(self):
        """'the carry-skip adder becomes a logically equivalent
        ripple-carry adder in the presence of the fault'."""
        from repro.circuits import fig1_carry_skip_block, ripple_carry_adder

        c = fig1_carry_skip_block()
        faulty = inject(c, stem_fault(c.find_gate("gate10"), 0))
        rca = ripple_carry_adder(2, cin_arrival=5.0)
        # rename rca interface to the fig1 names
        renames = {"cin": "c0", "cout": "c2"}
        for gid in list(rca.gates):
            gate = rca.gates[gid]
            if gate.name in renames:
                gate.name = renames[gate.name]
        assert outputs_equal_exhaustive(faulty, rca)
