"""PODEM test pattern generation (Goel 1981).

A complete branch-and-bound over primary-input assignments: objectives
are backtraced to PIs, candidate assignments are validated by 5-valued
implication (:func:`repro.sim.dcalc.simulate5`), and exhaustion of the
PI space proves a fault *untestable* -- exactly the redundancy
identification the paper relies on ("the single stuck-at-0 fault on the
output of the gate 10 is not testable").

The implementation favours clarity over constant-factor speed: every
implication is a full composite resimulation.  The SAT-based engine
(:mod:`repro.atpg.satatpg`) provides an independent oracle; both are
cross-checked in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..counters import count
from ..network import (
    Circuit,
    GateType,
    has_controlling_value,
    noncontrolling_value,
)
from ..sim import X, simulate5
from ..sim.dcalc import is_d_or_dbar
from .faults import CONN, Fault


class Status(enum.Enum):
    TESTABLE = "testable"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Outcome of a PODEM run for one fault."""

    status: Status
    #: PI gid -> 0/1 test cube (only assigned PIs; others are don't-care).
    test: Optional[Dict[int, int]] = None
    backtracks: int = 0

    @property
    def testable(self) -> bool:
        return self.status is Status.TESTABLE


class Podem:
    """PODEM engine bound to one circuit.

    Reuse one instance for a whole fault list; per-fault state is local
    to :meth:`generate`.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 20000):
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        # static order: prefer objectives closer to outputs
        self._depth: Dict[int, int] = {}
        for gid in circuit.topological_order():
            preds = [
                self._depth[src] for src in circuit.fanin_gates(gid)
            ]
            self._depth[gid] = 1 + max(preds, default=0)
        # SCOAP controllability steers backtrace toward easy inputs
        from .scoap import compute_scoap

        self._scoap = compute_scoap(circuit)

    # -- fault-specific helpers ----------------------------------------- #

    def _site_gate(self, fault: Fault) -> int:
        """The gate whose *good* value must differ from the stuck value."""
        if fault.kind == CONN:
            return self.circuit.conns[fault.site].src
        return fault.site

    def _simulate(
        self, fault: Fault, assignment: Dict[int, Tuple]
    ) -> Dict[int, Tuple]:
        if fault.kind == CONN:
            return simulate5(
                self.circuit,
                assignment,
                fault_conn=fault.site,
                stuck_value=fault.value,
            )
        return simulate5(
            self.circuit,
            assignment,
            fault_gate=fault.site,
            stuck_value=fault.value,
        )

    def _d_frontier(self, fault: Fault, values: Dict[int, Tuple]) -> List[int]:
        """Gates with a fault effect on some input and X on the output."""
        frontier = []
        for gid, gate in self.circuit.gates.items():
            val = values[gid]
            if val[0] != X and val[1] != X:
                continue
            for cid in gate.fanin:
                v = values[self.circuit.conns[cid].src]
                if fault.kind == CONN and cid == fault.site:
                    v = (v[0], fault.value)
                if is_d_or_dbar(v):
                    frontier.append(gid)
                    break
        return frontier

    def _x_path_exists(self, frontier: List[int], values) -> bool:
        """Is there a path from some frontier gate to a PO along gates
        whose output is still undetermined (X in either component)?"""
        seen = set()
        stack = list(frontier)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            gate = self.circuit.gates[gid]
            if gate.gtype is GateType.OUTPUT:
                return True
            for dst in self.circuit.fanout_gates(gid):
                v = values[dst]
                if v[0] == X or v[1] == X or is_d_or_dbar(v):
                    stack.append(dst)
        return False

    # -- objective and backtrace ----------------------------------------#

    def _objective(
        self, fault: Fault, values: Dict[int, Tuple]
    ) -> Optional[Tuple[int, int]]:
        """(gate gid, desired good value) or None when stuck."""
        site = self._site_gate(fault)
        sv = values[site]
        if sv[0] == X:
            return (site, 1 - fault.value)  # activate the fault
        frontier = self._d_frontier(fault, values)
        if not frontier:
            return None
        # propagate through the frontier gate closest to an output
        frontier.sort(key=lambda g: -self._depth[g])
        gate = self.circuit.gates[frontier[0]]
        ncv = (
            noncontrolling_value(gate.gtype)
            if has_controlling_value(gate.gtype)
            else None
        )
        for cid in gate.fanin:
            src = self.circuit.conns[cid].src
            if values[src][0] == X:
                want = ncv if ncv is not None else 1
                return (src, want)
        return None

    def _backtrace(
        self, objective: Tuple[int, int], values: Dict[int, Tuple]
    ) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned PI.

        Classic inversion-parity walk: request value v on a gate; on
        AND/OR/BUF ask v of an X input, on NAND/NOR/NOT ask 1-v.
        """
        gid, value = objective
        guard = 0
        while True:
            guard += 1
            if guard > len(self.circuit.gates) + 2:
                return None  # cycle-proof; cannot happen in a DAG
            gate = self.circuit.gates[gid]
            if gate.gtype is GateType.INPUT:
                return (gid, value)
            if gate.gtype in (GateType.CONST0, GateType.CONST1):
                return None
            if gate.gtype in (GateType.NOT, GateType.NAND, GateType.NOR):
                value = 1 - value
            x_pins = [
                self.circuit.conns[cid].src
                for cid in gate.fanin
                if values[self.circuit.conns[cid].src][0] == X
            ]
            if not x_pins:
                return None
            # easiest-first: pick the X input with the lowest SCOAP
            # controllability toward the requested value
            gid = min(
                x_pins,
                key=lambda g: self._scoap.controllability(g, value),
            )

    # -- the search ------------------------------------------------------#

    def generate(self, fault: Fault) -> PodemResult:
        """Run PODEM for one fault, counting ``podem_calls``,
        ``podem_backtracks`` and ``podem_aborts``
        (:mod:`repro.counters`)."""
        result = self._generate(fault)
        count("podem_calls")
        count("podem_backtracks", result.backtracks)
        if result.status is Status.ABORTED:
            count("podem_aborts")
        return result

    def _generate(self, fault: Fault) -> PodemResult:
        assignment: Dict[int, Tuple] = {}
        decisions: List[Tuple[int, int, bool]] = []  # (pi, value, flipped)
        backtracks = 0

        while True:
            values = self._simulate(fault, assignment)
            outcome = self._check(fault, values)
            if outcome is True:
                test = {pi: v[0] for pi, v in assignment.items()}
                return PodemResult(Status.TESTABLE, test, backtracks)
            if outcome is None:
                objective = self._objective(fault, values)
                target = (
                    self._backtrace(objective, values)
                    if objective is not None
                    else None
                )
                if target is None:
                    # Completeness fallback: the heuristic objective can
                    # fail while a test still exists deeper in the PI
                    # space (e.g. the D-frontier is X only in the faulty
                    # component).  Decide any unassigned PI instead of
                    # declaring a dead end.
                    target = next(
                        (
                            (pi, 0)
                            for pi in self.circuit.inputs
                            if pi not in assignment
                        ),
                        None,
                    )
                if target is not None:
                    pi, value = target
                    decisions.append((pi, value, False))
                    assignment[pi] = (value, value)
                    continue
                # every PI assigned and still undetected: dead end
            # outcome is False (or dead end): backtrack
            while decisions:
                pi, value, flipped = decisions.pop()
                del assignment[pi]
                if not flipped:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(Status.ABORTED, None, backtracks)
                    newv = 1 - value
                    decisions.append((pi, newv, True))
                    assignment[pi] = (newv, newv)
                    break
            else:
                return PodemResult(Status.UNTESTABLE, None, backtracks)

    def _check(self, fault: Fault, values) -> Optional[bool]:
        """True = detected, False = provably impossible here, None = open."""
        for po in self.circuit.outputs:
            if is_d_or_dbar(values[po]):
                return True
        site = self._site_gate(fault)
        good = values[site][0]
        if good != X and good == fault.value:
            return False  # fault can never be excited under this prefix
        if good != X:
            frontier = self._d_frontier(fault, values)
            if not frontier:
                return False
            if not self._x_path_exists(frontier, values):
                return False
        return None


def generate_test(
    circuit: Circuit, fault: Fault, backtrack_limit: int = 20000
) -> PodemResult:
    """One-shot PODEM call."""
    return Podem(circuit, backtrack_limit).generate(fault)
