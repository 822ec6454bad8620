"""Path objects and longest-first enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    carry_skip_adder,
    fig1_carry_skip_block,
    random_circuit,
)
from repro.timing import (
    analyze,
    iter_paths_longest_first,
    longest_paths,
    path_length,
)


class TestEnumeration:
    def test_lengths_nonincreasing(self):
        c = random_circuit(num_inputs=4, num_gates=15, seed=3)
        lengths = [
            p.length for p in iter_paths_longest_first(c, max_paths=200)
        ]
        assert lengths == sorted(lengths, reverse=True)

    def test_stored_length_matches_recomputation(self):
        c = random_circuit(num_inputs=4, num_gates=15, seed=4)
        for p in iter_paths_longest_first(c, max_paths=100):
            assert p.length == pytest.approx(path_length(c, p))

    def test_paths_are_structurally_valid(self):
        c = random_circuit(num_inputs=4, num_gates=15, seed=5)
        for p in iter_paths_longest_first(c, max_paths=50):
            assert len(p.conns) == len(p.gates) + 1
            prev = p.source
            for i, cid in enumerate(p.conns):
                conn = c.conns[cid]
                assert conn.src == prev
                prev = conn.dst
            assert prev == p.sink

    def test_first_path_achieves_topological_delay(self):
        c = random_circuit(num_inputs=5, num_gates=20, seed=6)
        ann = analyze(c)
        first = next(iter_paths_longest_first(c))
        assert first.length == pytest.approx(ann.delay)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_enumeration_is_exhaustive_and_distinct(self, seed):
        """On small circuits the enumerator yields every IO-path exactly
        once (cross-checked by DFS)."""
        c = random_circuit(num_inputs=3, num_gates=8, seed=seed)
        enumerated = {
            (p.source, p.conns) for p in iter_paths_longest_first(c)
        }
        # brute-force DFS count
        def count_paths(gid):
            gate = c.gates[gid]
            if gate.gtype.value == "output":
                return 1
            total = 0
            for cid in gate.fanout:
                total += count_paths(c.conns[cid].dst)
            return total

        expected = sum(count_paths(pi) for pi in c.inputs)
        assert len(enumerated) == expected

    def test_max_paths_truncates(self):
        c = random_circuit(num_inputs=5, num_gates=25, seed=7)
        assert (
            len(list(iter_paths_longest_first(c, max_paths=5))) <= 5
        )

    def test_max_paths_zero_yields_nothing(self):
        c = carry_skip_adder(2, 2)
        assert list(iter_paths_longest_first(c, max_paths=0)) == []
        assert list(iter_paths_longest_first(c, max_paths=-1)) == []


class TestPathApi:
    def test_fig1_longest_path_identity(self):
        c = fig1_carry_skip_block()
        paths = longest_paths(c)
        assert len(paths) == 1
        p = paths[0]
        assert c.gates[p.source].name == "c0"
        names = [c.gates[g].name for g in p.gates]
        assert names == [
            "gate6",
            "gate7",
            "gate9",
            "gate11",
            "mux_and0",
            "mux_or",
        ]
        assert p.length == 11.0

    def test_first_edge(self):
        c = fig1_carry_skip_block()
        p = longest_paths(c)[0]
        conn = c.conns[p.first_edge]
        assert c.gates[conn.src].name == "c0"
        assert c.gates[conn.dst].name == "gate6"

    def test_last_multifanout_gate(self):
        c = fig1_carry_skip_block()
        p = longest_paths(c)[0]
        n = p.last_multifanout_gate(c)
        # gate7 feeds gate8's xor legs and gate9 in the full block
        assert c.gates[n].name == "gate7"

    def test_event_times(self):
        c = fig1_carry_skip_block()
        p = longest_paths(c)[0]
        taus = p.event_times(c)
        # event reaches gate6 at t=5 (c0 arrival), gate7 at 6, gate9 at 7,
        # gate11 at 8, mux_and0 at 9, mux_or at 9 (and0 has delay 0)
        assert taus == [5.0, 6.0, 7.0, 8.0, 9.0, 9.0]

    def test_describe_mentions_endpoints(self):
        c = fig1_carry_skip_block()
        text = longest_paths(c)[0].describe(c)
        assert "c0" in text and "c2" in text
