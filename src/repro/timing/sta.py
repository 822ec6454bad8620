"""Static timing analysis: arrival times, required times, slack.

The *computed delay* (Section V) of a circuit under a delay model starts
from the topological analysis here: the longest path ignoring logic
("static timing verifiers ... the delay of a circuit is determined to be
the longest path").  Sensitization-aware refinements (false-path aware
delay) live in :mod:`repro.timing.sensitize` and
:mod:`repro.timing.viability`, both of which consume this module's
arrival annotations.

Constant sources never transition, so their arrival time is -inf
(:data:`repro.timing.models.NEVER`); a gate fed only by constants also
never transitions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..counters import count
from ..network import Circuit, GateType
from .models import EPS, NEVER, AsBuiltDelayModel, DelayModel


@dataclass
class TimingAnnotation:
    """Arrival/required/slack annotations for one circuit + model pair.

    Attributes:
        arrival: gid -> time the gate's *output* settles.
        dist_to_po: gid -> longest delay from the gate's output to any PO
            (0 for OUTPUT markers; -inf if no PO is reachable).
        delay: the circuit's topological delay = max PO arrival
            (0.0 for circuits whose outputs are all constant).
        required: gid -> latest output time tolerable without exceeding
            ``delay``.
        slack: gid -> required - arrival.
    """

    arrival: Dict[int, float]
    dist_to_po: Dict[int, float]
    delay: float
    required: Dict[int, float] = field(default_factory=dict)
    slack: Dict[int, float] = field(default_factory=dict)


def _gate_arrival(
    circuit: Circuit,
    model: DelayModel,
    gid: int,
    arrival: Dict[int, float],
) -> float:
    """One forward relaxation: the gate's output settle time given its
    fanins' current arrival values.  Shared by the full and incremental
    engines so both produce bit-identical floats."""
    gate = circuit.gates[gid]
    if gate.gtype is GateType.INPUT:
        return model.input_arrival(circuit, gid)
    if gate.gtype in (GateType.CONST0, GateType.CONST1):
        return NEVER
    best = NEVER
    for cid in gate.fanin:
        conn = circuit.conns[cid]
        t = arrival[conn.src]
        if t == NEVER:
            continue
        t += model.conn_delay(circuit, cid)
        if t > best:
            best = t
    if best == NEVER:
        return NEVER
    return best + model.gate_delay(circuit, gid)


def _gate_dist(
    circuit: Circuit,
    model: DelayModel,
    gid: int,
    dist: Dict[int, float],
) -> float:
    """One backward relaxation: longest delay from the gate's output to
    any PO."""
    gate = circuit.gates[gid]
    if gate.gtype is GateType.OUTPUT:
        return 0.0
    best = NEVER
    for cid in gate.fanout:
        conn = circuit.conns[cid]
        down = dist[conn.dst]
        if down == NEVER:
            continue
        t = (
            model.conn_delay(circuit, cid)
            + model.gate_delay(circuit, conn.dst)
            + down
        )
        if t > best:
            best = t
    return best


def analyze(
    circuit: Circuit, model: Optional[DelayModel] = None
) -> TimingAnnotation:
    """Run STA and return the full annotation."""
    model = model if model is not None else AsBuiltDelayModel()
    order = circuit.topological_order()
    arrival: Dict[int, float] = {}
    for gid in order:
        arrival[gid] = _gate_arrival(circuit, model, gid, arrival)

    dist: Dict[int, float] = {}
    for gid in reversed(order):
        dist[gid] = _gate_dist(circuit, model, gid, dist)

    delay = 0.0
    for gid in circuit.outputs:
        if arrival[gid] != NEVER:
            delay = max(delay, arrival[gid])

    ann = TimingAnnotation(arrival=arrival, dist_to_po=dist, delay=delay)
    for gid in order:
        a = arrival[gid]
        d = dist[gid]
        if a == NEVER or d == NEVER:
            ann.required[gid] = float("inf")
            ann.slack[gid] = float("inf")
        else:
            ann.required[gid] = delay - d
            ann.slack[gid] = ann.required[gid] - a
    return ann


class IncrementalSTA:
    """Dirty-cone incremental STA over a mutating circuit.

    Holds arrival times and ``dist_to_po`` for one circuit + model pair,
    and re-relaxes only the affected region after a mutation: the
    transitive *fanout* of the touched gates for arrival times and the
    transitive *fanin* for ``dist_to_po``, with early cutoff as soon as
    a recomputed value is unchanged.  The touched gates are the ones the
    circuit's mutation primitives recorded since the last refresh, in
    the record the engine takes when it is built
    (:meth:`Circuit.record_touched`); edits made before that are
    covered by the initial full relaxation.

    Per-gate relaxations go through the same :func:`_gate_arrival` /
    :func:`_gate_dist` helpers as :func:`analyze`, so the incremental
    values are bit-identical to a from-scratch run -- the property suite
    (``tests/timing/test_incremental_property.py``) and the KMS A/B
    oracle both rely on that.

    Counters (:mod:`repro.counters`):

    * ``arrival_relaxations`` -- forward per-gate recomputations;
      :func:`analyze` costs ``len(circuit.gates)`` of these, so the
      full-vs-incremental ratio is the dirty-cone win.
    * ``dist_relaxations`` -- backward per-gate recomputations.

    The backward pass stops propagating to a gate's fanin sources as
    soon as the gate's *parent-visible* state is unchanged.  A parent's
    relaxation reads, per fanout connection, exactly the connection
    delay, the child's gate delay, and the child's ``dist`` -- so that
    tuple (plus the fanin connection ids, which change iff an edge was
    added or removed) is the memo key.  Seeding the backward heap with
    the touched gates alone is then sound: a touched gate whose key is
    unchanged cannot move any parent's value, and a connection edit
    records the parent itself (both ends of an added or removed
    connection, both sources of a re-sourced one).
    """

    def __init__(
        self, circuit: Circuit, model: Optional[DelayModel] = None
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else AsBuiltDelayModel()
        self.arrival: Dict[int, float] = {}
        self.dist_to_po: Dict[int, float] = {}
        #: gid -> parent-visible key (see class docstring); backward
        #: propagation to fanin sources happens only when it changes.
        self._bwd_memo: Dict[int, tuple] = {}
        self.delay = 0.0
        self._touched = circuit.record_touched()
        self._rebuild()

    def _parent_key(self, gid: int, dist: float) -> tuple:
        """Everything a fanin source's own relaxation can read off this
        gate: its delay, its fanin edges (ids + delays), and the
        maintained backward value."""
        circuit, model = self.circuit, self.model
        gate = circuit.gates[gid]
        return (
            model.gate_delay(circuit, gid),
            tuple(
                (cid, model.conn_delay(circuit, cid)) for cid in gate.fanin
            ),
            dist,
        )

    def _rebuild(self) -> None:
        """Initial full relaxation (counts as one relaxation per gate per
        direction, same unit as the incremental updates)."""
        circuit, model = self.circuit, self.model
        order = circuit.topological_order()
        self.arrival.clear()
        self.dist_to_po.clear()
        self._bwd_memo.clear()
        for gid in order:
            self.arrival[gid] = _gate_arrival(
                circuit, model, gid, self.arrival
            )
        for gid in reversed(order):
            d = _gate_dist(circuit, model, gid, self.dist_to_po)
            self.dist_to_po[gid] = d
            self._bwd_memo[gid] = self._parent_key(gid, d)
        count("arrival_relaxations", len(order))
        count("dist_relaxations", len(order))
        self._refresh_delay()

    def _refresh_delay(self) -> None:
        delay = 0.0
        for gid in self.circuit.outputs:
            a = self.arrival[gid]
            if a != NEVER:
                delay = max(delay, a)
        self.delay = delay

    def refresh(self) -> Set[int]:
        """Re-relax from the gates recorded since the last refresh, and
        return the gates whose arrival or ``dist_to_po`` changed (a gate
        added since counts as changed).

        A recorded gate that is still in the circuit seeds both passes;
        a removed one only loses its entries.  The record is cleared.
        """
        circuit = self.circuit
        moved: Set[int] = set()
        dirty: Set[int] = set()
        for gid in self._touched:
            if gid in circuit.gates:
                dirty.add(gid)
            else:
                self.arrival.pop(gid, None)
                self.dist_to_po.pop(gid, None)
                self._bwd_memo.pop(gid, None)
        self._touched.clear()
        if dirty:
            order = circuit.topological_order()
            pos = {gid: i for i, gid in enumerate(order)}
            self._relax_forward(dirty, pos, moved)
            # A touched gate's own-delay / in-edge-delay change shifts its
            # *parents'* dist_to_po while leaving its own unchanged (dist
            # covers only the fanout side); the parent-visible memo key in
            # _relax_backward covers exactly those components, so seeding
            # with the touched gates alone reaches every moved parent.
            self._relax_backward(dirty, pos, moved)
        self._refresh_delay()
        return moved

    def _relax_forward(
        self, dirty: Set[int], pos: Dict[int, int], moved: Set[int]
    ) -> None:
        circuit, model = self.circuit, self.model
        heap = [(pos[gid], gid) for gid in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        relaxed = 0
        while heap:
            _, gid = heapq.heappop(heap)
            queued.discard(gid)
            old = self.arrival.get(gid)
            new = _gate_arrival(circuit, model, gid, self.arrival)
            relaxed += 1
            self.arrival[gid] = new
            if old is not None and new == old:
                continue
            moved.add(gid)
            for cid in circuit.gates[gid].fanout:
                dst = circuit.conns[cid].dst
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (pos[dst], dst))
        count("arrival_relaxations", relaxed)

    def _relax_backward(
        self, dirty: Set[int], pos: Dict[int, int], moved: Set[int]
    ) -> None:
        circuit, model = self.circuit, self.model
        heap = [(-pos[gid], gid) for gid in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        relaxed = 0
        while heap:
            _, gid = heapq.heappop(heap)
            queued.discard(gid)
            new = _gate_dist(circuit, model, gid, self.dist_to_po)
            relaxed += 1
            if self.dist_to_po.get(gid) != new:
                moved.add(gid)
            self.dist_to_po[gid] = new
            key = self._parent_key(gid, new)
            if self._bwd_memo.get(gid) == key:
                continue
            self._bwd_memo[gid] = key
            for cid in circuit.gates[gid].fanin:
                src = circuit.conns[cid].src
                if src not in queued:
                    queued.add(src)
                    heapq.heappush(heap, (-pos[src], src))
        count("dist_relaxations", relaxed)

    def annotation(self) -> TimingAnnotation:
        """A :class:`TimingAnnotation` view of the current state, without
        ``required``/``slack``.

        The returned dicts are snapshots; mutating the circuit and
        refreshing does not invalidate a previously returned annotation.
        """
        return TimingAnnotation(
            arrival=dict(self.arrival),
            dist_to_po=dict(self.dist_to_po),
            delay=self.delay,
        )


def topological_delay(
    circuit: Circuit, model: Optional[DelayModel] = None
) -> float:
    """The length of the longest (topological) path -- the delay a plain
    static timing verifier would report."""
    return analyze(circuit, model).delay


def is_critical(
    circuit: Circuit, model: DelayModel, ann: TimingAnnotation, cid: int
) -> bool:
    """Does connection ``cid`` lie on a topologically-longest path?

    It does when the longest path through it reaches the delay within
    :data:`~repro.timing.models.EPS`: that path's length summed here in
    a different order than along the path can miss the delay in the
    last bits under non-integer delays.
    """
    conn = circuit.conns[cid]
    a = ann.arrival[conn.src]
    down = ann.dist_to_po[conn.dst]
    if a == NEVER or down == NEVER:
        return False
    total = (
        a
        + model.conn_delay(circuit, cid)
        + model.gate_delay(circuit, conn.dst)
        + down
    )
    return total >= ann.delay - EPS


def critical_connections(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    annotation: Optional[TimingAnnotation] = None,
) -> List[int]:
    """Connections lying on at least one topologically-longest path
    (:func:`is_critical`)."""
    model = model if model is not None else AsBuiltDelayModel()
    ann = annotation if annotation is not None else analyze(circuit, model)
    return [
        cid for cid in circuit.conns if is_critical(circuit, model, ann, cid)
    ]
