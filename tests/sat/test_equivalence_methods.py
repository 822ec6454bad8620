"""The fraig-first and CNF equivalence engines: verdict parity, budgets."""

import pytest

from repro.circuits import (
    carry_skip_adder,
    fig2_irredundant_block,
    random_circuit,
)
from repro.core import kms
from repro.counters import Window
from repro.sat import check_equivalence
from repro.timing import UnitDelayModel


def _kms_pair():
    circuit = carry_skip_adder(2, 2)
    model = UnitDelayModel(use_arrival_times=False)
    return circuit, kms(circuit, mode="static", model=model).circuit


def test_fraig_decides_kms_pair_with_zero_sat_calls():
    a, b = _kms_pair()
    window = Window()
    result = check_equivalence(a, b, method="fraig")
    assert result.equivalent
    assert window.delta()["sat_calls"] == 0


def test_cnf_baseline_costs_one_call():
    a, b = _kms_pair()
    window = Window()
    assert check_equivalence(a, b, method="cnf").equivalent
    assert window.delta()["sat_calls"] == 1


@pytest.mark.parametrize("seed", range(12))
def test_methods_agree_on_random_pairs(seed):
    """Same verdicts on perturbed random circuits; the fraig engine
    never spends more SAT calls than the CNF engine."""
    a = random_circuit(seed=seed, num_gates=18)
    b = (
        random_circuit(seed=seed, num_gates=18)
        if seed % 3
        else random_circuit(seed=seed + 1000, num_gates=18)
    )
    try:
        window = Window()
        fraig_result = check_equivalence(a, b, method="fraig")
        fraig_calls = window.delta()["sat_calls"]
        window = Window()
        cnf_result = check_equivalence(a, b, method="cnf")
        cnf_calls = window.delta()["sat_calls"]
    except ValueError:
        return  # interface mismatch raises identically on both paths
    assert fraig_result.equivalent == cnf_result.equivalent
    assert fraig_calls <= cnf_calls
    if not fraig_result.equivalent:
        # counterexamples from both engines must be genuine
        for result in (fraig_result, cnf_result):
            va = _eval(a, result.counterexample)
            vb = _eval(b, result.counterexample)
            assert va[result.differing_output] != vb[result.differing_output]


def _eval(circuit, assignment):
    from repro.sim import simulate_cube_by_name

    values = simulate_cube_by_name(circuit, assignment)
    return {
        circuit.gates[g].name: values[g] for g in circuit.outputs
    }


def test_fraig_on_self_is_structural():
    """Same circuit twice: every miter cone hashes together, no engine
    beyond structural identity runs."""
    circuit = fig2_irredundant_block()
    window = Window()
    assert check_equivalence(circuit, circuit).equivalent
    assert window.delta()["sat_calls"] == 0


def test_unknown_method_rejected():
    a, b = _kms_pair()
    with pytest.raises(ValueError):
        check_equivalence(a, b, method="magic")
