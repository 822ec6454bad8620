"""Test set generation and compaction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    collapsed_faults,
    compact,
    fault_coverage,
    generate_test_set,
    random_vectors,
)
from repro.circuits import carry_skip_adder, random_circuit


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
