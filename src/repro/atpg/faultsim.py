"""Bit-parallel stuck-at fault simulation.

Parallel-pattern: the good circuit is simulated once per pattern block,
and detection is the bitwise difference at any output.  A single fault
(:func:`detecting_patterns`) is resimulated with the stuck value
injected, through its fanout cone on the compiled kernel.  A fault list
(:func:`fault_coverage`) is graded on the kernel's ``detecting_words``:
one propagation per fanout-free region, each fault's mask exactly the
one its own cone would give.  Used to grade test sets (fault
coverage), to cross-check ATPG ("this vector really does detect the
fault"), and to drop detected faults cheaply in the test-generation
flow.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..network import Circuit, GateType
from ..sim.kernel import CompiledCircuit, get_compiled
from ..sim.parallel import eval_gate_bits, pack_vectors, simulate_packed
from .faults import CONN, Fault

logger = logging.getLogger(__name__)

#: ``compiled`` argument convention shared by the graded-simulation
#: entry points: ``None`` = the circuit's cached compiled kernel,
#: ``False`` = the interpreted reference (``simulate_packed`` /
#: :func:`simulate_fault_packed`, kept for tests and benchmarks), or an
#: explicit :class:`repro.sim.kernel.CompiledCircuit` to reuse one
#: schedule across many calls.
CompiledArg = Union[None, bool, CompiledCircuit]


def _resolve_compiled(
    circuit: Circuit, compiled: CompiledArg
) -> Optional[CompiledCircuit]:
    """Map the shared ``compiled`` convention to a kernel or None."""
    if compiled is False:
        return None
    if isinstance(compiled, CompiledCircuit):
        return compiled
    return get_compiled(circuit)


def simulate_fault_packed(
    circuit: Circuit,
    fault: Fault,
    packed_inputs: Mapping[int, int],
    width: int,
) -> Dict[int, int]:
    """Packed simulation of the faulty circuit."""
    mask = (1 << width) - 1
    stuck_word = mask if fault.value else 0
    values: Dict[int, int] = {}
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gate.gtype is GateType.INPUT:
            values[gid] = packed_inputs.get(gid, 0) & mask
        else:
            ins = []
            for cid in gate.fanin:
                word = values[circuit.conns[cid].src]
                if fault.kind == CONN and cid == fault.site:
                    word = stuck_word
                ins.append(word)
            values[gid] = eval_gate_bits(gate.gtype, ins, mask)
        if fault.kind != CONN and gid == fault.site:
            values[gid] = stuck_word
    return values


def detecting_patterns(
    circuit: Circuit,
    fault: Fault,
    packed_inputs: Mapping[int, int],
    width: int,
    good_values: Optional[Dict[int, int]] = None,
    compiled: CompiledArg = None,
    good_words: Optional[Sequence[int]] = None,
) -> int:
    """Bitmask of patterns (bit i = pattern i) that detect the fault.

    The good-circuit simulation is the reusable half: pass
    ``good_values`` (gid-keyed, from ``simulate_packed``) or
    ``good_words`` (positional, from
    :meth:`CompiledCircuit.evaluate_words`) when grading many faults
    against one pattern block so it is computed once, not per fault.
    ``compiled`` follows the shared convention (auto / ``False`` for
    the legacy oracle / an explicit kernel).
    """
    kern = _resolve_compiled(circuit, compiled)
    if kern is not None:
        if good_words is None:
            if good_values is not None:
                good_words = kern.words_from_values(good_values)
            else:
                good_words = kern.evaluate_words(packed_inputs, width)
        return kern.detecting_word(fault, good_words, width)
    if good_values is None:
        good_values = simulate_packed(circuit, packed_inputs, width)
    faulty = simulate_fault_packed(circuit, fault, packed_inputs, width)
    mask = 0
    for po in circuit.outputs:
        mask |= good_values[po] ^ faulty[po]
    return mask


def detects(
    circuit: Circuit, fault: Fault, vector: Mapping[int, int]
) -> bool:
    """Does a single test vector (PI gid -> 0/1) detect the fault?"""
    packed = {gid: (vector.get(gid, 0) & 1) for gid in circuit.inputs}
    return bool(detecting_patterns(circuit, fault, packed, 1))


@dataclass
class CoverageReport:
    """Fault-simulation outcome for a test set."""

    total_faults: int
    detected: int
    undetected_faults: List[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults


def validate_vectors(
    circuit: Circuit, vectors: Sequence[Mapping[int, int]]
) -> int:
    """Warn -- once per call, not per pattern -- about partial vectors.

    A vector missing a PI key is graded as if that input were 0, which
    is silent data loss when the caller mislabeled its gids.  Returns
    the number of partial vectors and logs a single summary warning.
    """
    pis = set(circuit.inputs)
    partial = sum(1 for vec in vectors if not pis.issubset(vec))
    if partial:
        missing = pis.difference(*[vec.keys() for vec in vectors]) if vectors else pis
        logger.warning(
            "%d of %d test vectors are missing primary-input keys "
            "(e.g. PI gids %s); missing inputs are simulated as 0",
            partial,
            len(vectors),
            sorted(missing)[:5] if missing else "varies per vector",
        )
    return partial


class PackedCorpus:
    """A test-vector corpus packed once per block for reuse.

    Campaign loops grade many fault lists against one corpus;
    :func:`fault_coverage` used to re-run :func:`validate_vectors` and
    :func:`pack_vectors` on every call.  Packing depends only on the
    circuit's PI gid set, so it is hoisted here: build once per
    (circuit, corpus) pair and pass the corpus wherever a vector
    sequence is accepted.  A corpus whose PI set no longer matches the
    circuit (or that is handed to a different circuit) transparently
    falls back to re-packing its raw vectors -- never a wrong answer,
    only a lost reuse.
    """

    def __init__(
        self,
        circuit: Circuit,
        vectors: Sequence[Mapping[int, int]],
        block: int = 64,
    ) -> None:
        self.circuit = circuit
        self.vectors: List[Mapping[int, int]] = list(vectors)
        self.block = block
        self._pi_key = tuple(circuit.inputs)
        self.partial = validate_vectors(circuit, self.vectors)
        #: per-block ``(packed map, width)`` pairs, ready to simulate
        self.blocks: List[Tuple[Dict[int, int], int]] = [
            pack_vectors(circuit, self.vectors[s : s + block])
            for s in range(0, len(self.vectors), block)
        ]

    def fresh_for(self, circuit: Circuit, block: int) -> bool:
        """Is the hoisted packing directly reusable for this grading
        call?  True when the circuit and blocking match and the PI gid
        set has not changed since packing."""
        return (
            circuit is self.circuit
            and block == self.block
            and tuple(circuit.inputs) == self._pi_key
        )

    def __len__(self) -> int:
        return len(self.vectors)


#: ``vectors`` convention for the grading entry points: a raw vector
#: sequence (packed per call, the historical behaviour) or a
#: :class:`PackedCorpus` (packed once, reused across calls).
VectorsArg = Union[Sequence[Mapping[int, int]], PackedCorpus]


def _iter_packed_blocks(
    circuit: Circuit, vectors: VectorsArg, block: int
) -> Iterator[Tuple[Dict[int, int], int]]:
    """Per-block ``(packed, width)`` pairs, reusing a fresh
    :class:`PackedCorpus` and lazily packing everything else (lazy so
    fault dropping can still exit before packing later blocks)."""
    if isinstance(vectors, PackedCorpus):
        if vectors.fresh_for(circuit, block):
            yield from vectors.blocks
            return
        vectors = vectors.vectors
    validate_vectors(circuit, vectors)
    for start in range(0, len(vectors), block):
        yield pack_vectors(circuit, vectors[start : start + block])


def fault_coverage(
    circuit: Circuit,
    faults: Sequence[Fault],
    vectors: VectorsArg,
    block: int = 64,
    compiled: CompiledArg = None,
) -> CoverageReport:
    """Grade a test set against a fault list.

    Parallel-pattern with fault dropping: each ``block`` of vectors is
    packed and simulated once for the good circuit, every
    still-undetected fault is graded against it, and detected faults
    leave the active list.  ``compiled`` follows the shared convention;
    the kernel path grades the block with one propagation per
    fanout-free region (``detecting_words``), the interpreted path with
    one full faulty simulation per fault.
    ``vectors`` may be a :class:`PackedCorpus` to reuse hoisted packing
    across many calls.
    """
    kern = _resolve_compiled(circuit, compiled)
    remaining = list(faults)
    for packed, width in _iter_packed_blocks(circuit, vectors, block):
        if kern is not None:
            good_words = kern.evaluate_words(packed, width)
            words = kern.detecting_words(remaining, good_words, width)
            still = [f for f, word in zip(remaining, words) if not word]
            kern.note_dropped(len(remaining) - len(still))
        else:
            good = simulate_packed(circuit, packed, width)
            still = []
            for fault in remaining:
                if not detecting_patterns(
                    circuit, fault, packed, width, good, compiled=False
                ):
                    still.append(fault)
        remaining = still
        if not remaining:
            break
    return CoverageReport(
        total_faults=len(faults),
        detected=len(faults) - len(remaining),
        undetected_faults=remaining,
    )


def complete_vector(
    circuit: Circuit, cube: Mapping[int, int]
) -> Dict[int, int]:
    """Extend a PI test cube to a full vector (don't-cares become 0).

    PODEM returns only the PIs it assigned; graded simulation and the
    proof engine's accumulated witness pool want every PI keyed so
    :func:`validate_vectors` stays quiet and packing is total.
    """
    return {gid: int(cube.get(gid, 0)) & 1 for gid in circuit.inputs}


def random_vectors(
    circuit: Circuit, count: int, seed: int = 0
) -> List[Dict[int, int]]:
    """Uniform random test vectors."""
    return draw_vectors(circuit, random.Random(seed), count)


def draw_vectors(
    circuit: Circuit, rng: random.Random, count: int
) -> List[Dict[int, int]]:
    """The next ``count`` uniform random vectors of ``rng``'s stream, so
    a stream drawn in several steps yields the same vectors as one
    :func:`random_vectors` call of the total size."""
    return [
        {gid: rng.getrandbits(1) for gid in circuit.inputs}
        for _ in range(count)
    ]
