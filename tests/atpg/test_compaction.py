"""Test set generation and compaction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    collapsed_faults,
    compact,
    fault_coverage,
    generate_test_set,
    random_vectors,
)
from repro.circuits import carry_skip_adder, mcnc_circuit, random_circuit


def eager_compact(circuit, vectors, faults=None):
    """The eager greedy ``compact`` replaced by the lazy heap, kept
    verbatim: every pick rescans every vector's gain."""
    worklist = (
        list(faults) if faults is not None else collapsed_faults(circuit)
    )
    from repro.sim.kernel import get_compiled
    from repro.sim.parallel import pack_vectors

    kern = get_compiled(circuit)
    detected_by = [set() for _ in vectors]
    block = 64
    for start in range(0, len(vectors), block):
        chunk = vectors[start : start + block]
        packed, width = pack_vectors(circuit, chunk)
        good_words = kern.evaluate_words(packed, width)
        masks = kern.detecting_words(worklist, good_words, width)
        for f_idx, mask in enumerate(masks):
            while mask:
                bit = (mask & -mask).bit_length() - 1
                detected_by[start + bit].add(f_idx)
                mask &= mask - 1
    target = set().union(*detected_by) if detected_by else set()
    kept = []
    covered = set()
    while covered != target:
        best = max(
            range(len(vectors)),
            key=lambda i: len(detected_by[i] - covered),
        )
        gain = detected_by[best] - covered
        if not gain:
            break
        covered |= gain
        kept.append(vectors[best])
    return kept


class TestGeneration:
    def test_full_coverage_of_testable_faults(self):
        c = carry_skip_adder(2, 2)
        faults = collapsed_faults(c)
        result = generate_test_set(c, faults)
        assert len(result.redundant) == 2  # the skip redundancies
        report = fault_coverage(c, faults, result.vectors)
        assert report.detected == len(faults) - len(result.redundant)
        # the undetected are exactly the redundancies
        assert set(report.undetected_faults) == set(result.redundant)

    def test_pool_starts_with_the_random_phase(self):
        c = carry_skip_adder(2, 2)
        for random_patterns, seed in ((8, 1), (48, 3)):
            result = generate_test_set(
                c, random_patterns=random_patterns, seed=seed
            )
            assert result.vectors[:random_patterns] == random_vectors(
                c, random_patterns, seed
            )

    @given(seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_random_circuits(self, seed):
        c = random_circuit(num_inputs=4, num_gates=10, seed=seed)
        result = generate_test_set(c, random_patterns=8)
        faults = collapsed_faults(c)
        report = fault_coverage(c, faults, result.vectors)
        assert (
            report.detected == len(faults) - len(result.redundant)
        )


class TestCompaction:
    def test_coverage_preserved(self):
        c = carry_skip_adder(2, 2)
        faults = collapsed_faults(c)
        result = generate_test_set(c, faults, random_patterns=48)
        before = fault_coverage(c, faults, result.vectors)
        small = compact(c, result.vectors, faults)
        after = fault_coverage(c, faults, small)
        assert after.detected == before.detected
        assert len(small) <= len(result.vectors)

    def test_compaction_actually_shrinks_random_heavy_sets(self):
        c = carry_skip_adder(2, 2)
        result = generate_test_set(c, random_patterns=64)
        small = compact(c, result.vectors)
        assert len(small) < len(result.vectors)

    def test_empty_vectors(self):
        c = carry_skip_adder(2, 2)
        assert compact(c, []) == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: carry_skip_adder(2, 2),
            lambda: carry_skip_adder(4, 2),
            lambda: mcnc_circuit("z4ml"),
            lambda: mcnc_circuit("f51m"),
            lambda: random_circuit(num_inputs=6, num_gates=40, seed=5),
        ],
        ids=["csa2.2", "csa4.2", "z4ml", "f51m", "rand"],
    )
    def test_lazy_greedy_keeps_the_eager_picks(self, make):
        c = make()
        pool = generate_test_set(c, random_patterns=96).vectors
        assert compact(c, pool) == eager_compact(c, pool)
        # duplicates and a shuffled pool: ties everywhere, broken by
        # the lowest index
        rng = random.Random(len(pool))
        mixed = pool + rng.sample(pool, len(pool) // 2)
        rng.shuffle(mixed)
        assert compact(c, mixed) == eager_compact(c, mixed)
        faults = collapsed_faults(c)[::3]
        assert compact(c, mixed, faults) == eager_compact(c, mixed, faults)
