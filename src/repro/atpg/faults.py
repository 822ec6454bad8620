"""Single stuck-at fault model.

Faults live on *connections* (the paper's redundancy-removal primitive
acts on the "first edge" of a path) and on gate output *stems* (a fault
before the fanout point, affecting every branch).  For a single-fanout
gate the stem fault and the branch fault are the same physical site; the
collapsed fault list keeps one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..network import (
    Circuit,
    GateType,
    controlled_output,
    controlling_value,
    has_controlling_value,
)
from ..network.transform import set_connection_constant

CONN = "conn"
STEM = "stem"


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    Attributes:
        kind: ``"conn"`` (fault on one connection / fanout branch) or
            ``"stem"`` (fault on a gate output, before fanout).
        site: cid for conn faults, gid for stem faults.
        value: the stuck-at value, 0 or 1.
    """

    kind: str
    site: int
    value: int

    def describe(self, circuit: Circuit) -> str:
        if self.kind == STEM:
            gate = circuit.gates[self.site]
            where = gate.name or f"g{self.site}"
            return f"{where} output s-a-{self.value}"
        conn = circuit.conns[self.site]
        src = circuit.gates[conn.src]
        dst = circuit.gates[conn.dst]
        return (
            f"({src.name or conn.src})->({dst.name or conn.dst}) "
            f"s-a-{self.value}"
        )


def stem_fault(gid: int, value: int) -> Fault:
    return Fault(STEM, gid, value)


def conn_fault(cid: int, value: int) -> Fault:
    return Fault(CONN, cid, value)


def all_faults(circuit: Circuit) -> List[Fault]:
    """The uncollapsed fault list: both stuck values on every gate output
    stem (PIs included) and on every connection.

    Gates with no fanout (e.g. primary inputs the logic no longer uses)
    have no physical output line and are not fault sites.
    """
    faults: List[Fault] = []
    for gid, gate in circuit.gates.items():
        if gate.gtype is GateType.OUTPUT or not gate.fanout:
            continue
        for v in (0, 1):
            faults.append(stem_fault(gid, v))
    for cid in circuit.conns:
        for v in (0, 1):
            faults.append(conn_fault(cid, v))
    return faults


def _input_equivalences(gtype: GateType) -> Tuple[Tuple[int, int], ...]:
    """``(input stuck value, equivalent output stem stuck value)``
    pairs of one gate type's structural fault equivalences."""
    if gtype in (GateType.BUF, GateType.OUTPUT):
        return ((0, 0), (1, 1))
    if gtype is GateType.NOT:
        return ((0, 1), (1, 0))
    if has_controlling_value(gtype):
        return ((controlling_value(gtype), controlled_output(gtype)),)
    return ()


_INPUT_EQUIVALENCES = {gtype: _input_equivalences(gtype) for gtype in GateType}


def collapsed_faults(circuit: Circuit) -> List[Fault]:
    """Equivalence-collapsed fault list.

    Structural fault equivalences (classic):

    * input s-a-v of NOT/BUF/OUTPUT  ~  output stem s-a-(v xor inversion);
    * input s-a-controlling of AND/NAND/OR/NOR  ~  output stem s-a-
      controlled-output;
    * stem of a single-fanout gate  ~  the fault on its one fanout
      connection.

    Classes are formed by union-find over those rules and one
    representative is kept per class (preferring connection faults,
    matching the paper's edge-centric treatment).  Faults on constant
    gates are excluded -- a constant line carries its value by
    construction, so one polarity is undetectable-by-definition rather
    than interestingly redundant, and the other is equivalent to faults
    downstream.

    The union-find runs over integer keys: ``2 * cid + v`` for a
    connection fault and ``offset + 2 * gid + v`` for a stem fault, so
    integer order is both the representative preference (connections
    first, then site, then value) and the order of the returned list.
    Each class is rooted at its smallest key, and a :class:`Fault` is
    built only for the roots.
    """
    gates = circuit.gates
    conns = circuit.conns
    const_gids = {
        gid
        for gid, g in gates.items()
        if g.gtype in (GateType.CONST0, GateType.CONST1)
    }
    offset = 2 * (max(conns, default=-1) + 1)
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    universe: List[int] = []
    for cid, conn in conns.items():
        if conn.src in const_gids:
            continue
        key = 2 * cid
        universe.append(key)
        universe.append(key + 1)
        stem = offset + 2 * conn.dst
        for v, out in _INPUT_EQUIVALENCES[gates[conn.dst].gtype]:
            union(key + v, stem + out)
    for gid, gate in gates.items():
        if gate.gtype is GateType.OUTPUT or gid in const_gids:
            continue
        if not gate.fanout:
            continue  # floating line: not a fault site
        key = offset + 2 * gid
        universe.append(key)
        universe.append(key + 1)
        if len(gate.fanout) == 1:
            cid = gate.fanout[0]
            union(key, 2 * cid)
            union(key + 1, 2 * cid + 1)

    # A key outside the universe (an OUTPUT or floating stem) joins a
    # class only through a connection fault, whose key is smaller, so
    # every class is rooted at a universe key: its representative.
    result: List[Fault] = []
    for key in sorted(k for k in universe if k not in parent):
        if key < offset:
            result.append(Fault(CONN, key >> 1, key & 1))
        else:
            key -= offset
            result.append(Fault(STEM, key >> 1, key & 1))
    return result


def inject(circuit: Circuit, fault: Fault) -> Circuit:
    """Return a copy of the circuit with the fault tied in structurally.

    Gids/cids are preserved by :meth:`Circuit.copy`, so the fault site
    maps directly.  No constant propagation is performed -- the faulty
    circuit keeps its shape (ATPG and equivalence reasoning need the
    same interface, not an optimized network).
    """
    faulty = circuit.copy(f"{circuit.name}#fault")
    if fault.kind == CONN:
        set_connection_constant(faulty, fault.site, fault.value)
        return faulty
    gate = faulty.gates[fault.site]
    const = faulty.add_gate(
        GateType.CONST1 if fault.value else GateType.CONST0, 0.0
    )
    for cid in list(gate.fanout):
        faulty.move_connection_source(cid, const)
    # the now-dangling gate is kept: PIs must survive, and keeping logic
    # gates preserves gid stability for diagnostics
    return faulty
