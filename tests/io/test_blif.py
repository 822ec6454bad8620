"""BLIF parse/write round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    fig1_carry_skip_block,
    random_circuit,
    ripple_carry_adder,
)
from repro.io import BlifError, parse_blif, write_blif
from repro.sat import check_equivalence


SAMPLE = """
# a half adder
.model half
.inputs a b
.outputs s co
.names a b s
10 1
01 1
.names a b co
11 1
.end
"""


class TestParse:
    def test_half_adder(self):
        c = parse_blif(SAMPLE)
        assert c.name == "half"
        assert c.input_names() == ["a", "b"]
        a, b = c.inputs
        assert c.evaluate_outputs({a: 1, b: 0}) == (1, 0)
        assert c.evaluate_outputs({a: 1, b: 1}) == (0, 1)

    def test_zero_phase_table(self):
        text = """.model inv
.inputs a
.outputs y
.names a y
1 0
0 0
"""
        # y is 0 whenever a row matches; rows cover both -> constant 0?
        # standard semantics: 0-phase means y = NOT(cover)
        c = parse_blif(text)
        a = c.inputs[0]
        assert c.evaluate_outputs({a: 0}) == (0,)
        assert c.evaluate_outputs({a: 1}) == (0,)

    def test_constant_tables(self):
        text = """.model k
.inputs a
.outputs one zero
.names one
1
.names zero
.end
"""
        c = parse_blif(text)
        a = c.inputs[0]
        assert c.evaluate_outputs({a: 0}) == (1, 0)

    def test_out_of_order_tables(self):
        text = """.model o
.inputs a
.outputs y
.names t y
1 1
.names a t
0 1
.end
"""
        c = parse_blif(text)
        a = c.inputs[0]
        assert c.evaluate_outputs({a: 0}) == (1,)

    def test_latch_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.latch a b re clk 0\n.end")

    @pytest.mark.parametrize(
        "text",
        ["", ".model m\n.inputs a\n.names a y\n1 1\n.end\n"],
        ids=["empty", "no-outputs-line"],
    )
    def test_model_without_outputs_rejected(self, text):
        with pytest.raises(BlifError, match="no .outputs"):
            parse_blif(text)

    def test_undriven_output_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a\n.outputs y\n.end")

    def test_undriven_signal_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(
                ".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n"
            )

    def test_line_continuation(self):
        text = ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n"
        c = parse_blif(text)
        assert c.input_names() == ["a", "b"]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ripple_carry_adder(2),
            fig1_carry_skip_block,
        ],
    )
    def test_named_circuits(self, make):
        c = make()
        back = parse_blif(write_blif(c))
        assert check_equivalence(c, back).equivalent

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_random_circuits(self, seed):
        c = random_circuit(num_inputs=4, num_gates=10, seed=seed)
        back = parse_blif(write_blif(c))
        assert check_equivalence(c, back).equivalent

    def test_constants_roundtrip(self):
        from repro.network import Builder

        b = Builder("k")
        x = b.input("x")
        b.output("y", b.or_(x, b.const(1)))
        c = b.done()
        back = parse_blif(write_blif(c))
        assert back.evaluate_outputs({back.inputs[0]: 0}) == (1,)
