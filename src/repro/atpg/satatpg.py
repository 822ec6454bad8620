"""SAT-based ATPG: an independent, complete test-generation engine.

A fault is testable iff the miter between the good circuit and the
fault-injected circuit is satisfiable; the model is a test vector.
UNSAT is an airtight untestability proof.  The proof engine
(:mod:`repro.atpg.proofengine`) decides every fault its random pool
leaves unresolved with the same miter, built incrementally on one
assumption-gated solver per circuit version.  :class:`SatAtpg` is the
from-scratch form of that miter: the fallback for PODEM aborts in the
from-scratch oracle (:mod:`repro.atpg.redundancy`), the independent
reference behind :func:`repro.core.verify_transformation` and the fuzz
minimizer, and a cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

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
