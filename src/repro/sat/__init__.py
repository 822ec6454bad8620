"""SAT substrate: CNF, CDCL solver, Tseitin encoding, equivalence."""

from .cnf import CNF
from .solver import Solver, solve_cnf
from .tseitin import (
    ActivationCnf,
    CircuitEncoder,
    CircuitSolver,
    EncodedCircuit,
    encode_circuit,
)
from .equivalence import (
    EquivalenceResult,
    assert_equivalent,
    check_equivalence,
)

__all__ = [
    "ActivationCnf",
    "CNF",
    "CircuitEncoder",
    "CircuitSolver",
    "EncodedCircuit",
    "EquivalenceResult",
    "Solver",
    "assert_equivalent",
    "check_equivalence",
    "encode_circuit",
    "solve_cnf",
]
