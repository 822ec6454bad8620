"""Static timing analysis, including the paper's Section III numbers."""

import pytest

from repro.circuits import fig1_carry_skip_block, fig4_c2_cone, random_circuit
from repro.network import Builder, GateType
from repro.timing import (
    UnitDelayModel,
    analyze,
    critical_connections,
    iter_paths_longest_first,
    topological_delay,
)
from repro.timing.models import EPS

from .test_incremental_property import MODELS


class TestArrival:
    def test_chain(self, chain_circuit):
        ann = analyze(chain_circuit)
        y = chain_circuit.find_output("y")
        assert ann.arrival[y] == 5.0
        assert ann.delay == 5.0

    def test_input_arrival_offsets(self):
        b = Builder()
        x = b.input("x", arrival=5.0)
        b.output("o", b.not_(x, delay=1.0))
        c = b.done()
        assert topological_delay(c) == 6.0

    def test_connection_delay_counts(self):
        b = Builder()
        x = b.input("x")
        g = b.circuit.add_gate(GateType.NOT, 1.0)
        b.circuit.connect(x, g, delay=2.0)
        b.output("o", g)
        assert topological_delay(b.done()) == 3.0

    def test_constants_never_arrive(self):
        b = Builder()
        x = b.input("x")
        g = b.or_(x, b.const(0), delay=1.0)
        b.output("o", g)
        c = b.done()
        ann = analyze(c)
        assert ann.delay == 1.0

    def test_all_constant_output_has_zero_delay(self):
        b = Builder()
        b.input("x")
        b.output("o", b.const(1))
        c = b.done()
        assert topological_delay(c) == 0.0


class TestRequiredAndSlack:
    def test_slack_zero_on_critical_path(self, chain_circuit):
        ann = analyze(chain_circuit)
        for gid in (
            chain_circuit.find_gate("n1"),
            chain_circuit.find_gate("n2"),
        ):
            assert ann.slack[gid] == 0.0

    def test_positive_slack_off_critical(self):
        b = Builder()
        x, y = b.inputs("x", "y")
        slow = b.not_(b.not_(x, delay=3.0), delay=3.0, name="slow")
        fast = b.buf(y, delay=1.0, name="fast")
        b.output("o", b.and_(slow, fast, delay=1.0))
        c = b.done()
        ann = analyze(c)
        assert ann.slack[c.find_gate("fast")] == pytest.approx(5.0)
        assert ann.slack[c.find_gate("slow")] == 0.0


class TestCriticalConnections:
    def test_single_critical_path(self, chain_circuit):
        crit = critical_connections(chain_circuit)
        assert len(crit) == 3  # x->n1, n1->n2, n2->output

    @pytest.mark.parametrize(
        "model",
        [model for _, model in MODELS],
        ids=[prefix.rstrip("-") or "as-built" for prefix, _ in MODELS],
    )
    def test_union_of_longest_paths(self, model):
        """Summed around a connection, the longest path through it can
        miss the delay in the last bits under non-integer delays; it is
        still a longest path."""
        for seed in range(200):
            circuit = random_circuit(
                num_inputs=4 + seed % 3,
                num_gates=12 + seed % 10,
                num_outputs=1 + seed % 3,
                seed=seed,
                max_arrival=3.0 if seed % 2 else 0.0,
            )
            ann = analyze(circuit, model)
            on_paths = set()
            for path in iter_paths_longest_first(circuit, model, ann):
                if path.length < ann.delay - EPS:
                    break
                on_paths.update(path.conns)
            assert set(critical_connections(circuit, model, ann)) == (
                on_paths
            ), seed


class TestPaperNumbers:
    """Section III: c0 arrives at 5, AND/OR delay 1, XOR/MUX delay 2."""

    def test_fig1_longest_path_is_11(self):
        assert topological_delay(fig1_carry_skip_block()) == 11.0

    def test_fig1_sum_path_is_9(self):
        c = fig1_carry_skip_block()
        ann = analyze(c)
        assert ann.arrival[c.find_output("s1")] == 9.0

    def test_fig1_s0_is_fast(self):
        c = fig1_carry_skip_block()
        ann = analyze(c)
        # s0 = p0 xor c0: 5 + 2 = 7? c0 arrives 5, the XOR adds 2
        assert ann.arrival[c.find_output("s0")] == 7.0

    def test_fig4_cone_matches_fig1_carry(self):
        c = fig4_c2_cone()
        ann = analyze(c)
        assert ann.arrival[c.find_output("c2")] == 11.0

    def test_unit_model_ignores_stored_delays(self):
        c = fig4_c2_cone()
        unit = UnitDelayModel(use_arrival_times=False)
        # every logic gate costs 1: longest structural chain decides
        assert topological_delay(c, unit) == c.depth()
