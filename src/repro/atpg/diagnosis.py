"""Fault diagnosis by dictionary matching.

The flip side of test generation: a fabricated part failed some vectors
-- which fault explains it?  `FaultDictionary` precomputes, per fault,
the set of (vector, output) positions it flips; `diagnose` intersects
the observed failures with the dictionary, classic pass/fail diagnosis.

This closes the testing loop the paper's Section III motivates: the
speedtest hazard is precisely a failure *no* stuck-at dictionary entry
explains (the part passes every logic test), and
`diagnose` reports exactly that as "no candidates" -- the fingerprint
telling a test engineer to suspect a timing-only defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..network import Circuit
from ..sim.kernel import get_compiled
from ..sim.parallel import pack_vectors
from .faults import Fault, collapsed_faults

Vector = Mapping[int, int]
#: A failure signature: set of (vector index, PO gid) positions flipped.
Signature = FrozenSet[Tuple[int, int]]


@dataclass
class Diagnosis:
    """Candidate faults explaining an observed failure signature."""

    #: faults whose signature equals the observation exactly.
    exact: List[Fault] = field(default_factory=list)
    #: faults whose signature is a superset of the observation (the
    #: part may mask some detections electrically).
    covering: List[Fault] = field(default_factory=list)

    @property
    def unexplained(self) -> bool:
        """No stuck-at candidate at all -- e.g. a timing-only defect
        (the Section III speedtest scenario)."""
        return not self.exact and not self.covering


class FaultDictionary:
    """Per-fault failure signatures for a fixed test set."""

    def __init__(
        self,
        circuit: Circuit,
        vectors: Sequence[Vector],
        faults: Optional[Sequence[Fault]] = None,
    ) -> None:
        self.circuit = circuit
        self.vectors = list(vectors)
        self.faults = (
            list(faults)
            if faults is not None
            else collapsed_faults(circuit)
        )
        self.signatures: Dict[Fault, Signature] = {}
        self._build()

    def _build(self) -> None:
        circuit = self.circuit
        block = 64
        kern = get_compiled(circuit)
        per_fault: Dict[Fault, set] = {f: set() for f in self.faults}
        for start in range(0, len(self.vectors), block):
            chunk = self.vectors[start : start + block]
            packed, width = pack_vectors(circuit, chunk)
            good_words = kern.evaluate_words(packed, width)
            po_pos = [(po, kern.pos[po]) for po in circuit.outputs]
            for fault in self.faults:
                diffs = kern.fault_diffs(fault, good_words, width)
                for po, p in po_pos:
                    if p not in diffs:
                        continue
                    diff = good_words[p] ^ diffs[p]
                    while diff:
                        bit = (diff & -diff).bit_length() - 1
                        per_fault[fault].add((start + bit, po))
                        diff &= diff - 1
        self.signatures = {
            f: frozenset(s) for f, s in per_fault.items()
        }

    def expected_responses(self) -> Dict[int, List[int]]:
        """Golden responses: PO gid -> list of values per vector."""
        out: Dict[int, List[int]] = {
            po: [] for po in self.circuit.outputs
        }
        for vec in self.vectors:
            values = self.circuit.evaluate(
                {g: vec.get(g, 0) for g in self.circuit.inputs}
            )
            for po in self.circuit.outputs:
                out[po].append(values[po])
        return out

    def signature_of(self, fault: Fault) -> Signature:
        return self.signatures[fault]

    def diagnose(self, observed: Signature) -> Diagnosis:
        """Match an observed failure signature against the dictionary."""
        result = Diagnosis()
        observed = frozenset(observed)
        if not observed:
            return result
        for fault, signature in self.signatures.items():
            if not signature:
                continue
            if signature == observed:
                result.exact.append(fault)
            elif observed <= signature:
                result.covering.append(fault)
        return result

    def diagnose_responses(
        self, responses: Mapping[int, Sequence[int]]
    ) -> Diagnosis:
        """Diagnose from raw per-output response streams."""
        golden = self.expected_responses()
        observed = set()
        for po, stream in responses.items():
            for i, value in enumerate(stream):
                if value != golden[po][i]:
                    observed.add((i, po))
        return self.diagnose(frozenset(observed))
