"""Test set generation and compaction.

A production flow doesn't stop at "each fault has a test": it wants the
smallest vector set achieving full coverage of the testable faults.
`generate_test_set` runs the standard pipeline -- random phase with
fault-simulation grading, deterministic phase (PODEM, SAT fallback) --
and `compact` shrinks the result by reverse-order fault simulation and
greedy set covering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..network import Circuit
from .faults import Fault, collapsed_faults
from .faultsim import fault_coverage
from .podem import Podem, Status
from .satatpg import SatAtpg

Vector = Dict[int, int]


@dataclass
class TestSet:
    """A generated stuck-at test set."""

    vectors: List[Vector]
    #: faults proven untestable (the redundancies).
    redundant: List[Fault] = field(default_factory=list)
    #: faults neither tested nor proven redundant (should be empty).
    aborted: List[Fault] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.aborted


def generate_test_set(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    random_patterns: int = 64,
    seed: int = 1,
    backtrack_limit: int = 5000,
) -> TestSet:
    """A test set detecting every testable fault in the list.

    Random phase first (cheap coverage), then PODEM per leftover fault,
    then SAT for PODEM aborts -- so the ``redundant`` list is exact.
    """
    worklist = (
        list(faults) if faults is not None else collapsed_faults(circuit)
    )
    rng = random.Random(seed)
    vectors: List[Vector] = [
        {gid: rng.getrandbits(1) for gid in circuit.inputs}
        for _ in range(random_patterns)
    ]
    report = fault_coverage(circuit, worklist, vectors)
    result = TestSet(vectors=vectors)
    podem = Podem(circuit, backtrack_limit=backtrack_limit)
    sat: Optional[SatAtpg] = None
    remaining = list(report.undetected_faults)
    while remaining:
        fault = remaining.pop(0)
        outcome = podem.generate(fault)
        if outcome.status is Status.UNTESTABLE:
            result.redundant.append(fault)
            continue
        test: Optional[Vector] = None
        if outcome.status is Status.TESTABLE:
            test = {
                gid: outcome.test.get(gid, 0) for gid in circuit.inputs
            }
        else:
            if sat is None:
                sat = SatAtpg(circuit)
            answer = sat.generate(fault)
            if not answer.testable:
                result.redundant.append(fault)
                continue
            test = answer.test
        result.vectors.append(test)
        # drop everything this fresh vector also detects
        if remaining:
            remaining = fault_coverage(
                circuit, remaining, [test]
            ).undetected_faults
    return result


def compact(
    circuit: Circuit,
    vectors: Sequence[Vector],
    faults: Optional[Sequence[Fault]] = None,
) -> List[Vector]:
    """Shrink a test set preserving its fault coverage.

    Greedy set covering over the detection matrix: repeatedly keep the
    vector detecting the most still-uncovered faults.  The result's
    coverage equals the input's (never worse).
    """
    worklist = (
        list(faults) if faults is not None else collapsed_faults(circuit)
    )
    # detection sets per vector, computed by bit-parallel blocks; the
    # good simulation is done once per block and shared across faults
    from ..sim.kernel import get_compiled
    from ..sim.parallel import pack_vectors

    kern = get_compiled(circuit)
    detected_by: List[set] = [set() for _ in vectors]
    block = 64
    for start in range(0, len(vectors), block):
        chunk = vectors[start : start + block]
        packed, width = pack_vectors(circuit, chunk)
        good_words = kern.evaluate_words(packed, width)
        for f_idx, fault in enumerate(worklist):
            mask = kern.detecting_word(fault, good_words, width)
            while mask:
                bit = (mask & -mask).bit_length() - 1
                detected_by[start + bit].add(f_idx)
                mask &= mask - 1
    target = set().union(*detected_by) if detected_by else set()
    kept: List[Vector] = []
    covered: set = set()
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
