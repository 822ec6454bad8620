"""KMS edge cases and guard rails."""

import importlib

import pytest

from repro.circuits import (
    carry_skip_adder,
    fig4_c2_cone,
    random_redundant_circuit,
)
from repro.core import KmsError, kms
from repro.network import Builder
from repro.network.transform import duplicate_chain
from repro.sat import check_equivalence
from repro.timing import AsBuiltDelayModel, FanoutDelayModel


class TestDegenerateInputs:
    def test_empty_logic(self):
        b = Builder()
        x = b.input("x")
        b.output("o", x)
        c = b.done()
        result = kms(c)
        assert result.iterations == 0
        assert check_equivalence(c, result.circuit).equivalent

    def test_constant_output(self):
        b = Builder()
        b.input("x")
        b.output("o", b.const(1))
        c = b.done()
        result = kms(c)
        assert result.circuit.evaluate_outputs(
            {result.circuit.find_input("x"): 0}
        ) == (1,)

    def test_single_gate(self):
        b = Builder()
        x, y = b.inputs("x", "y")
        b.output("o", b.and_(x, y))
        c = b.done()
        result = kms(c, checked=True)
        assert result.iterations == 0
        assert result.cleanup_steps == 0

    def test_wire_only_paths_are_sensitizable(self):
        """PI -> BUF -> PO: no side inputs, trivially sensitizable, so
        the loop must not fire (firing would tie the output!)."""
        b = Builder()
        x = b.input("x")
        b.output("o", b.buf(x, delay=1.0))
        c = b.done()
        result = kms(c)
        assert result.iterations == 0
        assert check_equivalence(c, result.circuit).equivalent


class TestGuards:
    def test_max_iterations_raises(self):
        c = fig4_c2_cone()
        with pytest.raises(KmsError):
            kms(c, max_iterations=0)

    def test_trace_off_means_no_snapshots(self):
        c = fig4_c2_cone()
        result = kms(c, trace=False)
        assert all(e.snapshot is None for e in result.events)

    def test_checked_mode_catches_delay_changing_duplication(
        self, monkeypatch
    ):
        """Theorem 7.1: a duplication that slows the chain must raise,
        even though tying off P' later deletes the slowed duplicate."""

        def slow_duplicate_chain(circuit, chain, path_conns):
            mapping, conns = duplicate_chain(circuit, chain, path_conns)
            last = mapping[chain[-1]]
            circuit.set_gate_delay(last, circuit.gates[last].delay + 3)
            return mapping, conns

        monkeypatch.setattr(
            importlib.import_module("repro.core.kms"),
            "duplicate_chain",
            slow_duplicate_chain,
        )
        with pytest.raises(KmsError, match="duplication changed the delay"):
            kms(carry_skip_adder(4, 2), model=AsBuiltDelayModel(),
                checked=True)

    @pytest.mark.parametrize("mode", ["static", "viability"])
    def test_checked_mode_accepts_a_duplication_that_lowers_the_delay(
        self, mode
    ):
        """Under a fanout-load model, moving P's edge e onto n' lightens
        n, so a duplication can lower the delay (here 13.3 -> 13).
        ``checked`` promises only that the delay does not rise."""
        circuit = random_redundant_circuit(
            num_inputs=5, num_gates=15, seed=0
        )
        model = FanoutDelayModel(AsBuiltDelayModel(), load_per_fanout=0.1)
        result = kms(circuit, mode=mode, model=model, checked=True)
        assert result.duplicated_gates > 0
        assert check_equivalence(circuit, result.circuit).equivalent


def test_max_iterations_zero_ok_when_no_work_needed():
    """A circuit whose longest path is already sensitizable completes
    even with max_iterations=0 (the guard fires only on real work)."""
    b = Builder()
    x, y = b.inputs("x", "y")
    b.output("o", b.and_(x, y))
    c = b.done()
    result = kms(c, max_iterations=0)
    assert result.iterations == 0
