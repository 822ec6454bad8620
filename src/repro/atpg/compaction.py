"""Test set generation and compaction.

A production flow doesn't stop at "each fault has a test": it wants the
smallest vector set achieving full coverage of the testable faults.
`generate_test_set` is one proof-engine classification: its vector pool
detects every fault the engine calls testable, and every other fault
has a SAT proof of untestability.  `compact` then shrinks the pool by
greedy set covering over the fault-simulation detection matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..network import Circuit
from .faults import Fault, collapsed_faults
from .proofengine import ProofEngine

Vector = Dict[int, int]


@dataclass
class TestSet:
    """A generated stuck-at test set."""

    vectors: List[Vector]
    #: faults proven untestable (the redundancies).
    redundant: List[Fault] = field(default_factory=list)


def generate_test_set(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    random_patterns: int = 64,
    seed: int = 1,
) -> TestSet:
    """A test set detecting every testable fault in the list (default:
    collapsed).

    One :class:`~repro.atpg.proofengine.ProofEngine` classification:
    the pool starts with ``random_patterns`` vectors drawn one bit per
    PI per vector from ``random.Random(seed)``, grows while random words
    keep detecting faults, and takes every SAT witness.  ``redundant``
    is exact, because every untestable verdict is a SAT proof.
    """
    engine = ProofEngine(circuit, patterns=random_patterns, seed=seed)
    redundant = engine.redundant_faults(faults)
    return TestSet(vectors=engine.vectors, redundant=redundant)


def compact(
    circuit: Circuit,
    vectors: Sequence[Vector],
    faults: Optional[Sequence[Fault]] = None,
) -> List[Vector]:
    """Shrink a test set preserving its fault coverage.

    Greedy set covering over the detection matrix: repeatedly keep the
    vector detecting the most still-uncovered faults (the lowest index
    on ties), picked lazily from a heap of stale gains.  The result's
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
        masks = kern.detecting_words(worklist, good_words, width)
        for f_idx, mask in enumerate(masks):
            while mask:
                bit = (mask & -mask).bit_length() - 1
                detected_by[start + bit].add(f_idx)
                mask &= mask - 1
    # Lazy greedy: a vector's gain only shrinks as coverage grows, so a
    # popped (-gain, index) whose recomputed gain still sorts at or
    # before the next entry is the eager scan's pick (most new faults,
    # lowest index on ties).
    heap = [(-len(found), i) for i, found in enumerate(detected_by) if found]
    heapq.heapify(heap)
    kept: List[Vector] = []
    covered: set = set()
    while heap:
        _, i = heapq.heappop(heap)
        gain = detected_by[i] - covered
        if not gain:
            continue
        if heap and (-len(gain), i) > heap[0]:
            heapq.heappush(heap, (-len(gain), i))
            continue
        covered |= gain
        kept.append(vectors[i])
    return kept
