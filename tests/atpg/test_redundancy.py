"""Baseline (delay-oblivious) redundancy removal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    count_redundancies,
    is_irredundant,
    remove_fault,
    remove_redundancies,
    stem_fault,
)
from repro.circuits import (
    carry_skip_adder,
    fig1_carry_skip_block,
    random_redundant_circuit,
    ripple_carry_adder,
)
from repro.sat import check_equivalence


class TestRemoval:
    def test_absorption(self, redundant_or_circuit):
        c = redundant_or_circuit
        result = remove_redundancies(c)
        assert result.removed >= 1
        assert check_equivalence(c, result.circuit).equivalent
        assert is_irredundant(result.circuit)
        assert result.circuit.num_gates() < c.num_gates()

    def test_original_untouched(self, redundant_or_circuit):
        c = redundant_or_circuit
        before = c.num_gates()
        remove_redundancies(c)
        assert c.num_gates() == before

    def test_irredundant_input_is_noop(self, and_or_circuit):
        result = remove_redundancies(and_or_circuit)
        assert result.removed == 0

    @given(seed=st.integers(0, 25))
    @settings(max_examples=10, deadline=None)
    def test_random_redundant_circuits(self, seed):
        c = random_redundant_circuit(num_inputs=4, num_gates=10, seed=seed)
        assert count_redundancies(c) >= 1
        result = remove_redundancies(c)
        assert check_equivalence(c, result.circuit).equivalent
        assert is_irredundant(result.circuit)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_max_iterations_admits_exactly_that_many_removals(
        self, incremental
    ):
        """csa 2.2 becomes irredundant after one removal: a budget of
        one converges, a budget of zero does not."""
        c = carry_skip_adder(2, 2)
        result = remove_redundancies(
            c, max_iterations=1, incremental=incremental
        )
        assert result.removed == 1
        assert is_irredundant(result.circuit)
        with pytest.raises(RuntimeError, match="did not converge"):
            remove_redundancies(c, max_iterations=0, incremental=incremental)

    def test_steps_record_shrinkage(self, redundant_or_circuit):
        result = remove_redundancies(redundant_or_circuit)
        for step in result.steps:
            assert step.gates_after <= step.gates_before
            assert step.description


class TestRemoveFault:
    def test_remove_stem_fault_in_place(self, redundant_or_circuit):
        c = redundant_or_circuit.copy()
        inner = c.find_gate("inner")
        remove_fault(c, stem_fault(inner, 0))
        assert check_equivalence(redundant_or_circuit, c).equivalent


class TestPaperCircuits:
    def test_ripple_carry_is_irredundant(self):
        """Section III: 'a ripple-carry adder is fully testable'."""
        assert is_irredundant(ripple_carry_adder(2))

    def test_carry_skip_redundancy_counts(self):
        """Each block contributes two redundancies (Section VIII)."""
        assert count_redundancies(carry_skip_adder(2, 2)) == 2
        assert count_redundancies(carry_skip_adder(4, 2)) == 4

    def test_fig1_has_two_redundancies(self):
        assert count_redundancies(fig1_carry_skip_block()) == 2

    def test_naive_removal_slows_carry_skip_cone(self):
        """The paper's motivating failure: removing the skip redundancy
        first degrades the c2 cone to ripple speed."""
        from repro.circuits import fig4_c2_cone
        from repro.timing import viability_delay

        c = fig4_c2_cone()
        work = c.copy()
        remove_fault(work, stem_fault(work.find_gate("gate10"), 0))
        cleaned = remove_redundancies(work).circuit
        assert check_equivalence(c, cleaned).equivalent
        assert (
            viability_delay(cleaned).delay > viability_delay(c).delay
        )
