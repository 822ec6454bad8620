"""Structural transformations: constants, sweep, duplication, decompose."""

import pytest

from repro.network import (
    Builder,
    GateType,
    add_mux,
    check,
    decompose_complex_gates,
    duplicate_chain,
    propagate_constants,
    relabel_compact,
    set_connection_constant,
    sweep,
)
from repro.network.transform import constant_value
from repro.sim import outputs_equal_exhaustive, truth_table


def _truth(circuit):
    return truth_table(circuit)


class TestSetConnectionConstant:
    def test_only_that_connection_is_tied(self, two_output_circuit):
        c = two_output_circuit
        inv = c.find_gate("inv")
        cid = c.gates[inv].fanin[0]
        record = c.record_touched()
        const = set_connection_constant(c, cid, 0)
        assert constant_value(c, const) == 0
        assert record == {const, c.find_gate("shared"), inv}
        # shared still drives y0
        a, b = c.inputs
        values = c.evaluate({a: 1, b: 1})
        assert values[c.find_output("y0")] == 1
        assert values[c.find_output("y1")] == 1  # NOT(0)

    def test_rejects_non_binary(self, and_or_circuit):
        cid = next(iter(and_or_circuit.conns))
        with pytest.raises(ValueError):
            set_connection_constant(and_or_circuit, cid, 2)


class TestPropagateConstants:
    def _tie_input(self, c, name, value):
        gid = c.find_input(name)
        for cid in list(c.gates[gid].fanout):
            set_connection_constant(c, cid, value)

    def test_and_controlling_collapses(self, and_or_circuit):
        c = and_or_circuit
        self._tie_input(c, "a", 0)
        propagate_constants(c)
        check(c)
        # y = (0 AND b) OR c = c
        a, b, cc = (c.find_input(n) for n in "abc")
        for bv in (0, 1):
            for cv in (0, 1):
                assert c.evaluate_outputs({a: 0, b: bv, cc: cv}) == (cv,)

    def test_and_noncontrolling_drops_pin(self):
        b = Builder()
        x, y = b.inputs("x", "y")
        g = b.and_(x, y, name="g")
        b.output("o", g)
        c = b.done()
        gid = c.find_gate("g")
        cid = c.gates[gid].fanin[0]
        set_connection_constant(c, cid, 1)
        propagate_constants(c)
        check(c)
        # degenerates to BUF of y with zero delay
        assert c.gates[gid].gtype is GateType.BUF
        assert c.gates[gid].delay == 0.0

    def test_nor_all_noncontrolling_constant(self):
        b = Builder()
        x = b.input("x")
        g = b.nor(x, x, name="g")
        b.output("o", g)
        c = b.done()
        gid = c.find_gate("g")
        for cid in list(c.gates[gid].fanin):
            set_connection_constant(c, cid, 0)
        propagate_constants(c)
        # NOR() over empty remaining inputs = 1
        o = c.find_output("o")
        assert c.evaluate({c.find_input("x"): 0})[o] == 1

    def test_xor_constant_flips_polarity(self):
        b = Builder()
        x, y = b.inputs("x", "y")
        g = b.xor(x, y, name="g")
        b.output("o", g)
        c = b.done()
        gid = c.find_gate("g")
        cid = c.gates[gid].fanin[0]
        set_connection_constant(c, cid, 1)
        propagate_constants(c)
        # 1 xor y = not y
        yv = c.find_input("y")
        o = c.find_output("o")
        assert c.evaluate({c.find_input("x"): 0, yv: 0})[o] == 1
        assert c.evaluate({c.find_input("x"): 0, yv: 1})[o] == 0

    def test_not_of_constant(self):
        b = Builder()
        x = b.input("x")
        n = b.not_(x, name="n")
        b.output("o", n)
        c = b.done()
        cid = c.gates[c.find_gate("n")].fanin[0]
        set_connection_constant(c, cid, 0)
        propagate_constants(c)
        o = c.find_output("o")
        assert c.evaluate({c.find_input("x"): 0})[o] == 1
        assert c.evaluate({c.find_input("x"): 1})[o] == 1

    def test_constant_reaching_output_is_kept(self):
        b = Builder()
        x = b.input("x")
        bf = b.buf(x, name="w")
        b.output("o", bf)
        c = b.done()
        cid = c.gates[c.find_gate("w")].fanin[0]
        set_connection_constant(c, cid, 1)
        propagate_constants(c)
        check(c)
        assert c.evaluate({c.find_input("x"): 0})[c.find_output("o")] == 1


class TestSweep:
    def test_removes_dead_logic(self, and_or_circuit):
        c = and_or_circuit
        # orphan gate
        a = c.find_input("a")
        orphan = c.add_simple(GateType.NOT, [a], 1.0)
        record = c.record_touched()
        assert sweep(c) == 1
        assert record == {orphan, a}  # the orphan's source lost a fanout
        check(c)

    def test_keeps_inputs(self):
        b = Builder()
        b.inputs("x", "y")
        z = b.input("z")
        b.output("o", b.buf(z))
        c = b.done()
        sweep(c)
        assert len(c.inputs) == 3

    def test_collapse_buffers_preserves_path_delay(self):
        b = Builder()
        x = b.input("x")
        w = b.buf(x, delay=0.0)
        g = b.not_(w, delay=2.0)
        b.output("o", g)
        c = b.done()
        from repro.timing import topological_delay

        before = topological_delay(c)
        sweep(c, collapse_buffers=True)
        check(c)
        assert topological_delay(c) == before
        assert all(
            g.gtype is not GateType.BUF for g in c.gates.values()
        )


class TestDuplicateChain:
    def test_theorem71_shape(self, two_output_circuit):
        c = two_output_circuit
        shared = c.find_gate("shared")
        inv = c.find_gate("inv")
        # chain = [shared] along the path a -> shared -> inv
        a = c.find_input("a")
        path_conn = next(
            cid for cid in c.gates[shared].fanin
            if c.conns[cid].src == a
        )
        e = next(
            cid for cid in c.gates[shared].fanout
            if c.conns[cid].dst == inv
        )
        record = c.record_touched()
        mapping, dup_conns = duplicate_chain(c, [shared], [path_conn])
        dup = mapping[shared]
        # the duplicate plus each source that gained a branch into it
        assert record == {dup, *c.fanin_gates(shared)}
        c.move_connection_source(e, dup)
        check(c)
        assert c.fanout_size(dup) == 1
        assert c.gates[dup].gtype is GateType.AND
        assert len(dup_conns) == 1
        # function unchanged
        av, bv = c.inputs
        values = c.evaluate({av: 1, bv: 1})
        assert values[c.find_output("y0")] == 1
        assert values[c.find_output("y1")] == 0

    def test_chain_and_conns_must_align(self, two_output_circuit):
        c = two_output_circuit
        with pytest.raises(Exception):
            duplicate_chain(c, [c.find_gate("shared")], [])


class TestDecompose:
    def _circuits_equal(self, make):
        a = make()
        b = make()
        decompose_complex_gates(b)
        check(b)
        assert b.is_simple_gate_network()
        assert outputs_equal_exhaustive(a, b)

    def test_xor2(self):
        def make():
            bld = Builder("x2")
            x, y = bld.inputs("x", "y")
            bld.output("o", bld.xor(x, y))
            return bld.done()

        self._circuits_equal(make)

    def test_xor3_and_xnor3(self):
        for gate in ("xor", "xnor"):
            def make(gate=gate):
                bld = Builder("x3")
                x, y, z = bld.inputs("x", "y", "z")
                root = getattr(bld, gate)(x, y, z)
                bld.output("o", root)
                return bld.done()

            self._circuits_equal(make)

    def test_delay_lands_on_last_gate(self):
        bld = Builder()
        x, y = bld.inputs("x", "y")
        bld.output("o", bld.xor(x, y, delay=7.0))
        c = bld.done()
        decompose_complex_gates(c)
        from repro.timing import topological_delay

        assert topological_delay(c) == 7.0

    def test_single_input_xor_becomes_buf(self):
        bld = Builder()
        x = bld.input("x")
        g = bld.circuit.add_simple(GateType.XOR, [x], 2.0)
        bld.output("o", g)
        c = bld.done()
        decompose_complex_gates(c)
        assert c.gates[g].gtype is GateType.BUF

    def test_mux_semantics(self):
        bld = Builder()
        s, a, b_ = bld.inputs("s", "a", "b")
        m = add_mux(bld.circuit, s, a, b_, delay=2.0)
        bld.output("o", m)
        c = bld.done()
        tt = truth_table(c)
        for bits, (out,) in tt.items():
            sv, av, bv = bits
            assert out == (bv if sv else av)


class TestRelabel:
    def test_compact_preserves_function_and_interface(self, and_or_circuit):
        c = and_or_circuit
        c.remove_gate(c.find_gate("g1"))  # leave gaps
        b = Builder("rebuild")  # rebuild a valid circuit instead
        x, y = b.inputs("a", "b")
        b.output("y", b.and_(x, y))
        c = b.done()
        d = relabel_compact(c)
        check(d)
        assert outputs_equal_exhaustive(c, d)
        assert sorted(d.gates) == list(range(len(d.gates)))
