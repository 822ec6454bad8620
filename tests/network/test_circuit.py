"""Circuit container: construction, traversal, evaluation, copying."""

import pytest

from repro.network import Builder, Circuit, CircuitError, GateType


class TestConstruction:
    def test_add_gate_assigns_unique_ids(self):
        c = Circuit()
        g1 = c.add_gate(GateType.INPUT, name="a")
        g2 = c.add_gate(GateType.AND, 1.0)
        assert g1 != g2
        assert c.gates[g1].gtype is GateType.INPUT
        assert c.gates[g2].delay == 1.0

    def test_inputs_and_outputs_track_order(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        g = c.add_simple(GateType.AND, [a, b])
        c.add_output("y", g)
        assert c.inputs == [a, b]
        assert c.input_names() == ["a", "b"]
        assert c.output_names() == ["y"]

    def test_connect_returns_cid_and_updates_lists(self):
        c = Circuit()
        a = c.add_input("a")
        g = c.add_gate(GateType.NOT, 1.0)
        cid = c.connect(a, g)
        assert c.conns[cid].src == a
        assert cid in c.gates[a].fanout
        assert cid in c.gates[g].fanin

    def test_cannot_drive_a_source(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        with pytest.raises(CircuitError):
            c.connect(a, b)

    def test_connect_unknown_gate_raises(self):
        c = Circuit()
        a = c.add_input("a")
        with pytest.raises(CircuitError):
            c.connect(a, 999)

    def test_multiple_connections_same_pair(self):
        """Definition 4.2 allows two connections between the same gates
        (e.g. AND(x, x))."""
        c = Circuit()
        a = c.add_input("a")
        g = c.add_gate(GateType.AND, 1.0)
        c.connect(a, g)
        c.connect(a, g)
        assert len(c.gates[g].fanin) == 2
        assert c.evaluate({a: 1})[g] == 1

    def test_input_arrival_defaults_to_zero(self):
        c = Circuit()
        a = c.add_input("a")
        assert c.input_arrival[a] == 0.0
        b = c.add_input("b", arrival=5.0)
        assert c.input_arrival[b] == 5.0


class TestRemoval:
    def test_remove_connection(self, and_or_circuit):
        c = and_or_circuit
        g1 = c.find_gate("g1")
        cid = c.gates[g1].fanin[0]
        c.remove_connection(cid)
        assert cid not in c.conns
        assert cid not in c.gates[g1].fanin

    def test_remove_gate_removes_touching_connections(self, and_or_circuit):
        c = and_or_circuit
        g1 = c.find_gate("g1")
        touching = list(c.gates[g1].fanin) + list(c.gates[g1].fanout)
        c.remove_gate(g1)
        assert g1 not in c.gates
        assert all(cid not in c.conns for cid in touching)

    def test_remove_input_updates_interface(self):
        c = Circuit()
        a = c.add_input("a")
        c.remove_gate(a)
        assert c.inputs == []
        assert a not in c.input_arrival

    def test_move_connection_source(self, and_or_circuit):
        c = and_or_circuit
        g2 = c.find_gate("g2")
        a = c.find_input("a")
        cid = c.gates[g2].fanin[0]  # from g1
        c.move_connection_source(cid, a)
        assert c.conns[cid].src == a
        assert cid in c.gates[a].fanout


class TestTraversal:
    def test_topological_order_respects_edges(self, and_or_circuit):
        c = and_or_circuit
        order = c.topological_order()
        pos = {g: i for i, g in enumerate(order)}
        for conn in c.conns.values():
            assert pos[conn.src] < pos[conn.dst]

    def test_cycle_detection(self):
        c = Circuit()
        a = c.add_input("a")
        g1 = c.add_gate(GateType.AND, 1.0)
        g2 = c.add_gate(GateType.AND, 1.0)
        c.connect(a, g1)
        c.connect(g1, g2)
        c.connect(g2, g1)
        with pytest.raises(CircuitError):
            c.topological_order()

    def test_transitive_fanin_fanout(self, and_or_circuit):
        c = and_or_circuit
        g2 = c.find_gate("g2")
        fanin = c.transitive_fanin([g2])
        assert c.find_input("a") in fanin
        assert c.find_input("c") in fanin
        a = c.find_input("a")
        assert g2 in c.transitive_fanout([a])

    def test_depth_counts_logic_gates_only(self, and_or_circuit):
        assert and_or_circuit.depth() == 2

    def test_fanout_size(self, two_output_circuit):
        c = two_output_circuit
        shared = c.find_gate("shared")
        assert c.fanout_size(shared) == 2


class TestEvaluation:
    def test_and_or(self, and_or_circuit):
        c = and_or_circuit
        a, b, cc = (c.find_input(n) for n in "abc")
        assert c.evaluate_outputs({a: 1, b: 1, cc: 0}) == (1,)
        assert c.evaluate_outputs({a: 1, b: 0, cc: 0}) == (0,)
        assert c.evaluate_outputs({a: 0, b: 0, cc: 1}) == (1,)

    def test_num_gates_excludes_structure(self, and_or_circuit):
        assert and_or_circuit.num_gates() == 2
        assert and_or_circuit.num_gates(logic_only=False) == 6

    def test_stats(self, and_or_circuit):
        stats = and_or_circuit.stats()
        assert stats["gates"] == 2
        assert stats["inputs"] == 3
        assert stats["outputs"] == 1
        assert stats["depth"] == 2


class TestCopy:
    def test_copy_preserves_ids_and_interface(self, and_or_circuit):
        c = and_or_circuit
        d = c.copy()
        assert d.inputs == c.inputs
        assert d.outputs == c.outputs
        assert set(d.gates) == set(c.gates)
        assert set(d.conns) == set(c.conns)

    def test_copy_is_independent(self, and_or_circuit):
        c = and_or_circuit
        d = c.copy()
        d.remove_gate(d.find_gate("g1"))
        assert "g1" in [g.name for g in c.gates.values() if g.name]

    def test_copy_preserves_arrivals(self):
        b = Builder()
        b.input("x", arrival=3.0)
        c = b.done()
        assert c.copy().input_arrival[c.inputs[0]] == 3.0

    def test_find_helpers_raise_keyerror(self, and_or_circuit):
        with pytest.raises(KeyError):
            and_or_circuit.find_input("zz")
        with pytest.raises(KeyError):
            and_or_circuit.find_output("zz")
        with pytest.raises(KeyError):
            and_or_circuit.find_gate("zz")


class TestTouchedRecords:
    """Each mutation primitive records exactly the gates it changed."""

    @pytest.fixture
    def c(self, and_or_circuit):
        return and_or_circuit

    def _ids(self, c):
        """(a, b, g1, g2): the inputs a, b and the two logic gates."""
        return (
            c.find_input("a"),
            c.find_input("b"),
            c.find_gate("g1"),
            c.find_gate("g2"),
        )

    def test_add_gate_records_the_gate(self, c):
        record = c.record_touched()
        gid = c.add_gate(GateType.NOT, 1.0)
        assert record == {gid}

    def test_set_gate_type_records_the_gate(self, c):
        _, _, g1, _ = self._ids(c)
        record = c.record_touched()
        c.set_gate_type(g1, GateType.NAND)
        assert record == {g1}

    def test_set_gate_delay_records_the_gate(self, c):
        _, _, g1, _ = self._ids(c)
        record = c.record_touched()
        c.set_gate_delay(g1, 4.0)
        assert record == {g1}

    def test_set_input_arrival_records_the_input(self, c):
        a, _, _, _ = self._ids(c)
        record = c.record_touched()
        c.set_input_arrival(a, 2.0)
        assert record == {a}

    def test_remove_gate_records_the_gate_and_its_neighbours(self, c):
        a, b, g1, g2 = self._ids(c)
        lone = c.add_gate(GateType.NOT, 1.0)
        record = c.record_touched()
        c.remove_gate(lone)
        assert record == {lone}
        # its connections go through remove_connection: both ends each
        c.remove_gate(g1)
        assert record == {lone, g1, a, b, g2}

    def test_connect_records_both_ends(self, c):
        a, _, _, g2 = self._ids(c)
        record = c.record_touched()
        c.connect(a, g2)
        assert record == {a, g2}

    def test_remove_connection_records_both_ends(self, c):
        a, _, g1, _ = self._ids(c)
        cid = next(x for x in c.gates[g1].fanin if c.conns[x].src == a)
        record = c.record_touched()
        c.remove_connection(cid)
        assert record == {a, g1}

    def test_move_connection_source_records_both_sources_and_sink(self, c):
        a, _, g1, g2 = self._ids(c)
        cid = next(x for x in c.gates[g2].fanin if c.conns[x].src == g1)
        record = c.record_touched()
        c.move_connection_source(cid, a)
        assert record == {g1, a, g2}

    def test_set_connection_delay_records_the_sink(self, c):
        a, _, g1, _ = self._ids(c)
        cid = next(x for x in c.gates[g1].fanin if c.conns[x].src == a)
        record = c.record_touched()
        c.set_connection_delay(cid, 3.0)
        assert record == {g1}

    def test_record_sees_only_later_edits(self, c):
        a, b, g1, _ = self._ids(c)
        c.set_gate_delay(g1, 2.0)
        c.set_input_arrival(a, 1.0)
        record = c.record_touched()
        assert record == set()
        c.set_input_arrival(b, 1.0)
        assert record == {b}
        # a copy carries no record over
        c.copy().set_gate_delay(g1, 5.0)
        assert record == {b}

    def test_two_records_fill_independently(self, c):
        a, _, g1, g2 = self._ids(c)
        first = c.record_touched()
        c.set_gate_delay(g1, 2.0)
        second = c.record_touched()
        c.set_gate_delay(g2, 2.0)
        assert first == {g1, g2}
        assert second == {g2}
        first.clear()  # one reader consuming its record
        assert second == {g2}
        c.set_input_arrival(a, 1.0)
        assert first == {a}
        assert second == {g2, a}
