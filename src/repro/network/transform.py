"""Structural transformations on circuits.

These are the mutation building blocks the KMS algorithm (Fig. 3 of the
paper) is made of:

* :func:`set_connection_constant` -- assert a constant on a single
  connection (the "set first edge of P' to constant 0 or 1" step);
* :func:`propagate_constants` -- push constants forward "as far as
  possible, removing useless gates";
* :func:`duplicate_chain` -- Theorem 7.1's duplication of the gates of a
  path prefix so the path becomes single-fanout;
* :func:`sweep` -- remove dead logic and (optionally) zero-delay buffers;
* :func:`decompose_complex_gates` -- rewrite XOR/XNOR into simple gates,
  assigning the complex gate's delay to the last gate of the decomposition
  and zero to the others (Section VI).

The transforms edit only through :class:`~repro.network.circuit.Circuit`'s
mutation primitives, so a reader that needs the gates an edit changed
takes them from :meth:`Circuit.record_touched`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit import Circuit, CircuitError
from .gates import (
    GateType,
    controlled_output,
    controlling_value,
    degenerate_single_input_type,
)

_CONST_TYPE = {0: GateType.CONST0, 1: GateType.CONST1}
_CONST_VALUE = {GateType.CONST0: 0, GateType.CONST1: 1}


def constant_value(circuit: Circuit, gid: int) -> Optional[int]:
    """Return 0/1 if gate ``gid`` is a constant source, else None."""
    return _CONST_VALUE.get(circuit.gates[gid].gtype)


def set_connection_constant(circuit: Circuit, cid: int, value: int) -> int:
    """Tie connection ``cid`` to constant ``value``.

    Only this connection is affected -- the driving gate keeps its other
    fanouts.  This is exactly the paper's redundancy-removal primitive: an
    untestable s-a-``value`` fault on a connection means the connection may
    be replaced by the constant without changing circuit function.

    Returns the gid of the constant gate now driving the connection.
    """
    if value not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got {value!r}")
    const = circuit.add_gate(_CONST_TYPE[value], 0.0)
    circuit.move_connection_source(cid, const)
    return const


def _make_constant(circuit: Circuit, gid: int, value: int) -> List[int]:
    """Replace logic gate ``gid`` by a constant source, rewiring fanout.
    Returns the fanout gates, which the constant now feeds."""
    gate = circuit.gates[gid]
    const = circuit.add_gate(_CONST_TYPE[value], 0.0)
    fed = []
    for cid in list(gate.fanout):
        fed.append(circuit.conns[cid].dst)
        circuit.move_connection_source(cid, const)
    circuit.remove_gate(gid)
    return fed


def propagate_constants(circuit: Circuit) -> int:
    """Propagate constant sources forward as far as possible.

    Rules (for an input tied to constant v):

    * AND/NAND/OR/NOR: if v is the controlling value the gate output is
      constant; otherwise the input is simply deleted;
    * XOR/XNOR: v = 0 deletes the input; v = 1 deletes the input and flips
      the gate's polarity (XOR <-> XNOR);
    * BUF/NOT: the output becomes constant.

    A multi-input gate reduced to one input degenerates to BUF/NOT; per the
    paper's convention its delay (and input-connection delay) is reduced to
    zero -- the gate "is equivalent to a wire".  Dead gates left behind are
    swept.

    One pass in topological order reaches the fixpoint: constants only
    flow forward, and the pass reaches a gate after all of its fanins.
    It visits only the gates a constant feeds, from a heap keyed on
    their topological index; a gate that becomes constant queues its
    fanout.

    Returns the number of logic gates removed, counted as the pass makes
    them constant and the final sweep removes them.
    """
    gates, conns = circuit.gates, circuit.conns
    fed = {
        conns[cid].dst
        for gate in gates.values()
        if gate.gtype in _CONST_VALUE
        for cid in gate.fanout
    }
    order = circuit.topological_order() if fed else []
    index = {gid: i for i, gid in enumerate(order)}
    heap = sorted(index[gid] for gid in fed)
    last = -1
    made_constant = 0

    def make_constant(gid: int, value: int) -> None:
        nonlocal made_constant
        made_constant += 1
        for dst in _make_constant(circuit, gid, value):
            heapq.heappush(heap, index[dst])

    while heap:
        i = heapq.heappop(heap)
        if i == last:
            continue  # queued twice
        last = i
        gid = order[i]
        gate = gates[gid]
        if gate.gtype is GateType.OUTPUT:
            continue
        const_pins: List[Tuple[int, int]] = []
        for cid in list(gate.fanin):
            val = constant_value(circuit, conns[cid].src)
            if val is not None:
                const_pins.append((cid, val))
        if not const_pins:
            continue
        gtype = gate.gtype
        if gtype is GateType.BUF:
            make_constant(gid, const_pins[0][1])
            continue
        if gtype is GateType.NOT:
            make_constant(gid, 1 - const_pins[0][1])
            continue
        if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
            cv = controlling_value(gtype)
            if any(val == cv for _, val in const_pins):
                make_constant(gid, controlled_output(gtype))
                continue
            for cid, _ in const_pins:  # all noncontrolling: drop pins
                circuit.remove_connection(cid)
        elif gtype in (GateType.XOR, GateType.XNOR):
            flips = 0
            for cid, val in const_pins:
                flips ^= val
                circuit.remove_connection(cid)
            if flips:
                circuit.set_gate_type(
                    gid,
                    GateType.XNOR if gtype is GateType.XOR else GateType.XOR,
                )
        if not gate.fanin:
            # every input was a noncontrolling constant: output is the
            # identity-element result of the gate
            empty = {
                GateType.AND: 1,
                GateType.NAND: 0,
                GateType.OR: 0,
                GateType.NOR: 1,
                GateType.XOR: 0,
                GateType.XNOR: 1,
            }[gate.gtype]
            make_constant(gid, empty)
        elif len(gate.fanin) == 1 and gate.gtype not in (
            GateType.BUF,
            GateType.NOT,
        ):
            circuit.set_gate_type(
                gid, degenerate_single_input_type(gate.gtype)
            )
            circuit.set_gate_delay(gid, 0.0)
            circuit.set_connection_delay(gate.fanin[0], 0.0)
    return made_constant + _remove_dead(circuit)[1]


def sweep(circuit: Circuit, collapse_buffers: bool = False) -> int:
    """Remove dead logic: gates with no fanout, and unused constants.

    Primary inputs are always kept (the PI interface is part of the
    circuit's identity -- equivalence checks and Table I reporting assume a
    stable PI list).  Dead gates come off a worklist seeded with the
    fanout-free gates; each removal queues the fanin sources it leaves
    fanout-free.  With ``collapse_buffers`` every zero-delay BUF is
    bypassed, folding its input-connection delay into each fanout
    connection so all path lengths are preserved exactly.

    Returns the number of gates removed.
    """
    removed = _remove_dead(circuit)[0]
    if collapse_buffers:
        for gid in list(circuit.gates):
            gate = circuit.gates.get(gid)
            if gate is None or gate.gtype is not GateType.BUF:
                continue
            if gate.delay != 0.0 or len(gate.fanin) != 1:
                continue
            in_cid = gate.fanin[0]
            in_conn = circuit.conns[in_cid]
            for out_cid in list(gate.fanout):
                out_conn = circuit.conns[out_cid]
                circuit.set_connection_delay(
                    out_cid, out_conn.delay + in_conn.delay + gate.delay
                )
                circuit.move_connection_source(out_cid, in_conn.src)
            circuit.remove_gate(gid)
            removed += 1
    return removed


def _remove_dead(circuit: Circuit) -> Tuple[int, int]:
    """:func:`sweep`'s dead-gate worklist.  Returns the number of gates
    removed and how many of them were logic gates (not constants)."""
    removed = logic = 0
    gates, conns = circuit.gates, circuit.conns
    keep = (GateType.INPUT, GateType.OUTPUT)
    # (round, position in gates, gid): the order in which repeated
    # passes over the gates would remove them
    heap = [
        (0, i, gid)
        for i, (gid, gate) in enumerate(gates.items())
        if not gate.fanout and gate.gtype not in keep
    ]
    position = {gid: i for i, gid in enumerate(gates)} if heap else {}
    while heap:
        rnd, i, gid = heapq.heappop(heap)
        gate = gates.get(gid)
        if gate is None:
            continue  # queued twice
        srcs = [conns[cid].src for cid in gate.fanin]
        if gate.gtype not in _CONST_VALUE:
            logic += 1
        circuit.remove_gate(gid)
        removed += 1
        for src in srcs:
            if not gates[src].fanout and gates[src].gtype not in keep:
                j = position[src]
                heapq.heappush(heap, (rnd if j > i else rnd + 1, j, src))
    return removed, logic


def duplicate_chain(
    circuit: Circuit,
    chain: Sequence[int],
    path_conns: Sequence[int],
) -> Tuple[Dict[int, int], List[int]]:
    """Duplicate the gates of a path prefix (Theorem 7.1 / Fig. 3).

    ``chain`` is the ordered list of gates ``g_0 .. g_k`` along the chosen
    longest path ``P`` up to and including ``n``, the gate closest to the
    output with fanout > 1.  ``path_conns`` is the list of connections
    ``c_0 .. c_k`` where ``c_j`` feeds ``g_j`` along ``P`` (``c_0`` comes
    from the primary input).

    Each duplicate ``g_j'`` has the same type, delay and fanin as ``g_j``
    (connection delays copied), except that the path fanin comes from
    ``g_{j-1}'``.  The caller is responsible for moving the path's fanout
    edge ``e`` of ``n`` onto the returned duplicate of ``n``, which then
    has exactly one fanout.

    Returns ``(mapping, dup_path_conns)`` where ``mapping`` maps original
    gid -> duplicate gid and ``dup_path_conns`` are the new connections
    ``c_0' .. c_k'`` forming the duplicated path prefix.
    """
    if len(chain) != len(path_conns):
        raise CircuitError("chain and path_conns must align")
    mapping: Dict[int, int] = {}
    dup_path_conns: List[int] = []
    for idx, gid in enumerate(chain):
        gate = circuit.gates[gid]
        dup = circuit.add_gate(
            gate.gtype, gate.delay, f"{gate.name}_dup" if gate.name else None
        )
        path_cid = path_conns[idx]
        for cid in gate.fanin:
            conn = circuit.conns[cid]
            src = conn.src
            if cid == path_cid and src in mapping:
                src = mapping[src]
            new_cid = circuit.connect(src, dup, conn.delay)
            if cid == path_cid:
                dup_path_conns.append(new_cid)
        mapping[gid] = dup
    return mapping, dup_path_conns


def decompose_complex_gates(circuit: Circuit) -> int:
    """Rewrite every XOR/XNOR into simple gates, in place.

    Per Section VI: "In converting a complex gate to an equivalent
    connection of simple gates, the last gate is assigned a delay equal to
    the delay of the complex gate.  The other gates are assigned delays of
    zero."

    A 2-input XOR becomes OR + NAND + AND (3 gates, the AND carrying the
    delay) -- the decomposition consistent with the paper's Table I gate
    counts for carry-skip adders.  XNOR becomes AND + NOR + ... the dual
    (OR of AND and NOR).  k-input XOR/XNOR gates are first balanced into a
    tree of 2-input gates.

    Returns the number of complex gates rewritten.
    """
    rewritten = 0
    for gid in list(circuit.gates):
        gate = circuit.gates.get(gid)
        if gate is None or gate.gtype not in (GateType.XOR, GateType.XNOR):
            continue
        rewritten += 1
        srcs = [circuit.conns[c].src for c in gate.fanin]
        if len(srcs) == 1:
            circuit.set_gate_type(
                gid,
                GateType.BUF if gate.gtype is GateType.XOR else GateType.NOT,
            )
            continue
        invert = gate.gtype is GateType.XNOR
        # balanced tree of 2-input xors, all zero delay
        frontier = list(srcs)
        while len(frontier) > 2:
            nxt = []
            for i in range(0, len(frontier) - 1, 2):
                a, b = frontier[i], frontier[i + 1]
                nxt.append(_xor2(circuit, a, b, 0.0))
            if len(frontier) % 2:
                nxt.append(frontier[-1])
            frontier = nxt
        a, b = frontier
        last = (
            _xnor2(circuit, a, b, gate.delay)
            if invert
            else _xor2(circuit, a, b, gate.delay)
        )
        for cid in list(gate.fanout):
            circuit.move_connection_source(cid, last)
        circuit.remove_gate(gid)
    return rewritten


def _xor2(circuit: Circuit, a: int, b: int, delay: float) -> int:
    """a XOR b = AND(OR(a, b), NAND(a, b)); the final AND takes ``delay``."""
    o = circuit.add_simple(GateType.OR, [a, b], 0.0)
    n = circuit.add_simple(GateType.NAND, [a, b], 0.0)
    return circuit.add_simple(GateType.AND, [o, n], delay)


def _xnor2(circuit: Circuit, a: int, b: int, delay: float) -> int:
    """a XNOR b = OR(AND(a, b), NOR(a, b)); the final OR takes ``delay``."""
    n = circuit.add_simple(GateType.AND, [a, b], 0.0)
    r = circuit.add_simple(GateType.NOR, [a, b], 0.0)
    return circuit.add_simple(GateType.OR, [n, r], delay)


def add_mux(
    circuit: Circuit, sel: int, when0: int, when1: int, delay: float = 0.0
) -> int:
    """Build a 2:1 multiplexer from simple gates; the final OR carries
    ``delay`` per the complex-gate conversion rule.

    Returns the gid of the OR gate computing
    ``sel' * when0 + sel * when1``.
    """
    inv = circuit.add_simple(GateType.NOT, [sel], 0.0)
    a0 = circuit.add_simple(GateType.AND, [inv, when0], 0.0)
    a1 = circuit.add_simple(GateType.AND, [sel, when1], 0.0)
    return circuit.add_simple(GateType.OR, [a0, a1], delay)


def relabel_compact(circuit: Circuit) -> Circuit:
    """Return a fresh copy with densely renumbered gids/cids.

    KMS iterations leave gaps in the id spaces; compaction keeps derived
    artifacts (CNF variable maps, reports) tidy.  PI/PO order is preserved.
    """
    fresh = Circuit(circuit.name)
    gid_map: Dict[int, int] = {}
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        new = fresh.add_gate(gate.gtype, gate.delay, gate.name)
        gid_map[gid] = new
        if gate.gtype is GateType.INPUT:
            fresh.input_arrival[new] = circuit.input_arrival.get(gid, 0.0)
        for cid in gate.fanin:
            conn = circuit.conns[cid]
            fresh.connect(gid_map[conn.src], new, conn.delay)
    # preserve PI/PO ordering of the original
    fresh._inputs = [gid_map[g] for g in circuit.inputs]
    fresh._outputs = [gid_map[g] for g in circuit.outputs]
    return fresh
