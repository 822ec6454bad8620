"""Static sensitization (Definition 4.11).

"A path is said to be statically sensitizable if there exists an input
cube which sets all the side-inputs to the path at noncontrolling
values."  We reduce the existence question to SAT: Tseitin-encode the
circuit and assert, for every side-input connection of every gate along
the path, that the driving signal equals the gate's noncontrolling value.

NOT/BUF gates have no side inputs.  A gate with two path positions (both
of a gate's pins on the path -- possible with our multi-edge connections)
contributes only its genuinely off-path pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..network import Circuit, GateType, noncontrolling_value
from ..sat import CircuitEncoder, Solver
from .paths import Path


@dataclass(frozen=True)
class SideInput:
    """One side-input constraint: connection ``cid`` into path gate
    ``gate`` must carry ``value`` (the gate's noncontrolling value)."""

    cid: int
    gate: int
    value: int


def edge_side_inputs(circuit: Circuit, cid: int) -> List[SideInput]:
    """The side-input constraints at the gate connection ``cid`` feeds,
    for a path that enters the gate through ``cid``.

    Only AND/NAND/OR/NOR gates have controlling values; XOR-family gates
    must be decomposed away before sensitization questions are asked
    (KMS precondition), and NOT/BUF gates and OUTPUT markers contribute
    nothing.
    """
    gid = circuit.conns[cid].dst
    gate = circuit.gates[gid]
    if gate.gtype in (GateType.NOT, GateType.BUF, GateType.OUTPUT):
        return []
    if gate.gtype in (GateType.XOR, GateType.XNOR):
        raise ValueError(
            "side inputs are undefined for undecomposed XOR gates"
        )
    ncv = noncontrolling_value(gate.gtype)
    return [
        SideInput(cid=side, gate=gid, value=ncv)
        for side in gate.fanin
        if side != cid
    ]


def side_inputs(circuit: Circuit, path: Path) -> List[SideInput]:
    """The side-input constraints of a path (Definition 4.10): those of
    each connection along it (see :func:`edge_side_inputs`)."""
    return [si for cid in path.conns for si in edge_side_inputs(circuit, cid)]


class SensitizationChecker:
    """Reusable SAT context for sensitization queries on one circuit.

    The circuit clauses are encoded once; each path query is a
    solve-under-assumptions call, so checking many paths (the inner loop
    of both KMS and the false-path-aware delay computation) shares all
    learned clauses.

    The circuit must not be mutated while a checker is alive.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        encoder = CircuitEncoder()
        self.var = encoder.encode(circuit)
        self.solver = Solver(encoder.cnf)

    def assumptions_for(self, path: Path) -> List[int]:
        """The assumption literals asserting all side-inputs
        noncontrolling."""
        lits = []
        for si in side_inputs(self.circuit, path):
            src = self.circuit.conns[si.cid].src
            v = self.var[src]
            lits.append(v if si.value else -v)
        return lits

    def sensitizing_cube(self, path: Path) -> Optional[Dict[int, int]]:
        """A PI assignment statically sensitizing the path, or None.

        The returned cube maps every PI gid to 0/1 (a full minterm taken
        from the SAT model; any minterm of the sensitizing cube serves).
        """
        if self.solver.solve(self.assumptions_for(path)):
            model = self.solver.model()
            return {
                gid: int(model.get(self.var[gid], False))
                for gid in self.circuit.inputs
            }
        return None

    def is_sensitizable(self, path: Path) -> bool:
        return self.sensitizing_cube(path) is not None


def statically_sensitizable(
    circuit: Circuit, path: Path
) -> Optional[Dict[int, int]]:
    """One-shot convenience wrapper around :class:`SensitizationChecker`."""
    return SensitizationChecker(circuit).sensitizing_cube(path)
