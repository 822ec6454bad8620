"""SAT-based ATPG: an independent, complete test-generation engine.

A fault is testable iff the miter between the good circuit and the
fault-injected circuit is satisfiable; the model is a test vector.
UNSAT is an airtight untestability proof.  The proof engine
(:mod:`repro.atpg.proofengine`) decides every fault its random pool
leaves unresolved with the same miter, built incrementally on one
assumption-gated solver per circuit version.  :class:`SatAtpg` is the
from-scratch form of that miter: the fallback for PODEM aborts in the
oracle funnel and in test generation, and a cross-check in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..network import Circuit
from ..sat import CircuitEncoder, Solver
from .faults import Fault, inject


@dataclass
class SatAtpgResult:
    """Outcome of a SAT-ATPG query for one fault."""

    testable: bool
    #: PI gid -> 0/1 (full vector) when testable.
    test: Optional[Dict[int, int]] = None


class SatAtpg:
    """Engine bound to one circuit; encodes the good circuit once.

    Each fault query encodes only the faulty circuit (sharing PI
    variables) plus the difference constraint into a fresh solver.  The
    circuit must not mutate while the engine is alive.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._good_encoder = CircuitEncoder()
        self._good_var = self._good_encoder.encode(circuit)

    def generate(self, fault: Fault) -> SatAtpgResult:
        """Test the fault; UNSAT proves redundancy."""
        faulty = inject(self.circuit, fault)
        encoder = CircuitEncoder(self._good_encoder.cnf.copy())
        shared = {gid: self._good_var[gid] for gid in self.circuit.inputs}
        faulty_var = encoder.encode(faulty, input_vars=shared)
        cnf = encoder.cnf
        diff_lits = []
        for po in self.circuit.outputs:
            va = self._good_var[po]
            vb = faulty_var[po]
            d = cnf.new_var()
            cnf.add_clause((-va, -vb, -d))
            cnf.add_clause((va, vb, -d))
            cnf.add_clause((-va, vb, d))
            cnf.add_clause((va, -vb, d))
            diff_lits.append(d)
        cnf.add_clause(diff_lits)
        solver = Solver(cnf)
        if not solver.solve():
            return SatAtpgResult(testable=False)
        model = solver.model()
        test = {
            gid: int(model.get(self._good_var[gid], False))
            for gid in self.circuit.inputs
        }
        return SatAtpgResult(testable=True, test=test)

    def is_testable(self, fault: Fault) -> bool:
        return self.generate(fault).testable

    def is_redundant(self, fault: Fault) -> bool:
        return not self.generate(fault).testable


def redundant_faults(
    circuit: Circuit,
    faults: Optional[List[Fault]] = None,
    incremental: bool = True,
    jobs: Optional[int] = None,
) -> List[Fault]:
    """All untestable faults from the given list (default: collapsed).

    ``incremental`` (default) routes through the persistent
    :class:`repro.atpg.proofengine.ProofEngine`: simulate, then SAT.
    Random patterns (a pool grown until a 64-vector word detects
    nothing new) discharge the testable majority, and every survivor
    is decided on one shared assumption-gated solver, with witness
    feedback between survivors and optional proof sharding across
    ``jobs`` worker processes.

    ``False`` keeps the from-scratch funnel below as the A/B oracle,
    cheapest engine first:

    1. random-pattern fault simulation -- anything detected is testable;
    2. PODEM with a backtrack budget -- structural guidance finds tests
       (or completes untestability proofs) quickly on sparse functions;
    3. SAT-ATPG for the PODEM aborts -- a complete decision either way.

    Both return the identical verdict list.
    """
    from .faults import collapsed_faults
    from .podem import Podem, Status
    from .redundancy import _undetected_by_random

    if incremental:
        from .proofengine import ProofEngine

        return ProofEngine(circuit, jobs=jobs).redundant_faults(faults)
    worklist = faults if faults is not None else collapsed_faults(circuit)
    suspects = _undetected_by_random(circuit, list(worklist))
    if not suspects:
        return []
    # small budget: PODEM settles the easy majority in microseconds and
    # hands the stragglers to SAT, which is better at hard proofs
    podem = Podem(circuit, backtrack_limit=100)
    redundant: List[Fault] = []
    hard: List[Fault] = []
    for fault in suspects:
        result = podem.generate(fault)
        if result.status is Status.UNTESTABLE:
            redundant.append(fault)
        elif result.status is Status.ABORTED:
            hard.append(fault)
    if hard:
        engine = SatAtpg(circuit)
        redundant.extend(f for f in hard if engine.is_redundant(f))
    redundant.sort(key=lambda f: (f.kind, f.site, f.value))
    return redundant


def count_redundancies(circuit: Circuit, incremental: bool = True) -> int:
    """Number of untestable faults in the collapsed fault list -- the
    paper's Table I "Red." column metric."""
    return len(redundant_faults(circuit, incremental=incremental))
