"""Bit-parallel fault simulation."""

import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    PackedCorpus,
    collapsed_faults,
    detecting_patterns,
    detects,
    fault_coverage,
    inject,
    random_vectors,
    stem_fault,
    validate_vectors,
)
from repro.circuits import carry_skip_adder, random_circuit
from repro.network import GateType
from repro.sim import get_compiled, pack_vectors, simulate_packed


@given(seed=st.integers(0, 40), bits=st.integers(0, 255))
@settings(max_examples=30, deadline=None)
def test_packed_fault_sim_matches_structural_injection(seed, bits):
    """Fault simulation with on-the-fly injection must equal simulating
    the structurally injected circuit."""
    c = random_circuit(num_inputs=4, num_gates=10, seed=seed)
    faults = collapsed_faults(c)
    fault = faults[bits % len(faults)]
    vector = {g: (bits >> i) & 1 for i, g in enumerate(c.inputs)}
    expected_circuit = inject(c, fault)
    expected = expected_circuit.evaluate(
        {g: vector[g] for g in c.inputs}
    )
    got = detects(c, fault, vector)
    golden = c.evaluate(vector)
    differs = any(
        expected[po] != golden[po] for po in c.outputs
    )
    assert got == differs


def test_detecting_patterns_bitmask(and_or_circuit):
    c = and_or_circuit
    g1 = c.find_gate("g1")
    fault = stem_fault(g1, 0)
    # patterns: (a,b,c) = (1,1,0) detects; (0,0,0) does not
    packed = {
        c.find_input("a"): 0b01,
        c.find_input("b"): 0b01,
        c.find_input("c"): 0b00,
    }
    mask = detecting_patterns(c, fault, packed, 2)
    assert mask == 0b01


def test_fault_coverage_full_on_exhaustive_vectors(and_or_circuit):
    c = and_or_circuit
    vectors = [
        {g: (bits >> i) & 1 for i, g in enumerate(c.inputs)}
        for bits in range(8)
    ]
    report = fault_coverage(c, collapsed_faults(c), vectors)
    assert report.coverage == 1.0
    assert report.undetected_faults == []


def test_fault_coverage_zero_vectors(and_or_circuit):
    report = fault_coverage(
        and_or_circuit, collapsed_faults(and_or_circuit), []
    )
    assert report.detected == 0
    assert report.coverage < 1.0


def test_coverage_counts_redundant_as_undetected(redundant_or_circuit):
    c = redundant_or_circuit
    vectors = [
        {g: (bits >> i) & 1 for i, g in enumerate(c.inputs)}
        for bits in range(4)
    ]
    report = fault_coverage(c, collapsed_faults(c), vectors)
    assert report.coverage < 1.0  # the redundant fault is undetectable


def test_random_vectors_deterministic(and_or_circuit):
    a = random_vectors(and_or_circuit, 10, seed=3)
    b = random_vectors(and_or_circuit, 10, seed=3)
    assert a == b


def test_kernel_and_legacy_paths_agree(and_or_circuit):
    """The compiled kernel is a drop-in for the interpreted grader."""
    c = and_or_circuit
    faults = collapsed_faults(c)
    vectors = random_vectors(c, 40, seed=11)
    fast = fault_coverage(c, faults, vectors)
    slow = fault_coverage(c, faults, vectors, compiled=False)
    assert fast.coverage == slow.coverage
    assert fast.undetected_faults == slow.undetected_faults


def test_kernel_and_legacy_paths_agree_random():
    for seed in range(5):
        c = random_circuit(num_inputs=4, num_gates=12, seed=seed)
        faults = collapsed_faults(c)
        vectors = random_vectors(c, 100, seed=seed)
        fast = fault_coverage(c, faults, vectors)
        slow = fault_coverage(c, faults, vectors, compiled=False)
        assert fast.undetected_faults == slow.undetected_faults


def test_detecting_patterns_reuses_good_words(and_or_circuit):
    """Positional good words grade identically to a fresh good sim."""
    c = and_or_circuit
    vectors = random_vectors(c, 16, seed=2)
    packed, width = pack_vectors(c, vectors)
    kern = get_compiled(c)
    good_words = kern.evaluate_words(packed, width)
    good_values = simulate_packed(c, packed, width)
    for fault in collapsed_faults(c):
        via_words = detecting_patterns(
            c, fault, packed, width, good_words=good_words
        )
        via_values = detecting_patterns(
            c, fault, packed, width, good_values=good_values
        )
        fresh = detecting_patterns(c, fault, packed, width, compiled=False)
        assert via_words == via_values == fresh


def _essence(report):
    return report.total_faults, report.detected, report.undetected_faults


def test_packed_corpus_reuse_matches_raw_vectors():
    circuit = carry_skip_adder(nbits=2, block_size=2)
    faults = collapsed_faults(circuit)
    vectors = random_vectors(circuit, 100, 3)
    corpus = PackedCorpus(circuit, vectors)
    assert corpus.fresh_for(circuit, corpus.block)
    want = fault_coverage(circuit, faults, vectors)
    got = fault_coverage(circuit, faults, corpus)
    assert _essence(got) == _essence(want)
    # a corpus for another circuit is stale and falls back to its raw
    # vectors rather than answering with the wrong packing
    other = carry_skip_adder(nbits=2, block_size=2)
    assert not corpus.fresh_for(other, corpus.block)


def test_packed_corpus_stale_after_pi_change_grades_like_raw():
    """A PI added after packing makes the corpus stale; grading falls
    back to the raw vectors (the new PI simulated as 0)."""
    circuit = carry_skip_adder(nbits=2, block_size=2)
    vectors = random_vectors(circuit, 100, 3)
    corpus = PackedCorpus(circuit, vectors)
    extra = circuit.add_input("extra")
    inv = circuit.add_gate(GateType.NOT, 1.0, name="extra_n")
    circuit.connect(extra, inv)
    circuit.add_output("extra_o", inv)
    assert not corpus.fresh_for(circuit, corpus.block)
    faults = collapsed_faults(circuit)
    got = fault_coverage(circuit, faults, corpus)
    want = fault_coverage(circuit, faults, vectors)
    assert _essence(got) == _essence(want)
    # the new input's stuck-at-0 faults stay undetected: it was never
    # driven to 1 by a vector packed before it existed
    assert got.detected < len(faults)


def test_partial_vectors_warn_once_per_call(and_or_circuit, caplog):
    """Regression: missing PI keys are reported once per call -- and
    grading still treats them as 0, same as an explicit zero."""
    c = and_or_circuit
    a = c.find_input("a")
    partial = [{a: 1} for _ in range(8)]
    explicit = [
        {gid: vec.get(gid, 0) for gid in c.inputs} for vec in partial
    ]
    faults = collapsed_faults(c)
    with caplog.at_level(logging.WARNING, logger="repro.atpg.faultsim"):
        report = fault_coverage(c, faults, partial)
    warnings = [
        r for r in caplog.records
        if "missing primary-input keys" in r.message
    ]
    assert len(warnings) == 1
    assert "8 of 8" in warnings[0].message
    full = fault_coverage(c, faults, explicit)
    assert report.undetected_faults == full.undetected_faults


def test_complete_vectors_do_not_warn(and_or_circuit, caplog):
    c = and_or_circuit
    vectors = random_vectors(c, 8, seed=0)
    with caplog.at_level(logging.WARNING, logger="repro.atpg.faultsim"):
        fault_coverage(c, collapsed_faults(c), vectors)
    assert not caplog.records


def test_validate_vectors_counts_partial(and_or_circuit):
    c = and_or_circuit
    a = c.find_input("a")
    full = {gid: 0 for gid in c.inputs}
    assert validate_vectors(c, [full, {a: 1}, {}]) == 2
    assert validate_vectors(c, []) == 0


def test_pack_vectors_masks_against_pi_set(and_or_circuit):
    """Non-PI keys are ignored and values reduce to their low bit."""
    c = and_or_circuit
    a = c.find_input("a")
    g1 = c.find_gate("g1")  # not a PI: must be ignored
    packed, width = pack_vectors(c, [{a: 1, g1: 1}, {a: 2}, {a: 3}])
    assert width == 3
    assert packed[a] == 0b101  # 2 has a zero low bit
    assert g1 not in packed
    assert set(packed) == set(c.inputs)
