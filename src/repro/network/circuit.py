"""The combinational network: gates, connections, and structural queries.

Follows Definition 4.1 of the paper: a circuit is a DAG of gates and
*explicit connection objects*.  Connections (not just gate adjacency) are
first-class because

* the paper defines paths as alternating sequences of connections and
  gates (Definition 4.2), allowing two distinct connections between the
  same pair of gates;
* stuck-at faults live on connections (a fanout *branch* is a different
  fault site than the driving *stem*);
* both gates and connections carry delays (``d(g)`` and ``d(c)``).

Primary inputs are INPUT-type gates; primary outputs are OUTPUT-type
marker gates with exactly one fanin and zero delay, so that an *IO-path*
(Theorem 7.2) is simply a path from an INPUT gate to an OUTPUT gate.

Mutation keeps fanin/fanout lists consistent; anything more surgical
(duplication, constant propagation, sweeping) lives in
:mod:`repro.network.transform`, built from the primitives here.  The
primitives alone decide which gates an edit touched
(:meth:`Circuit.record_touched`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .gates import (
    GateType,
    SOURCE_TYPES,
    evaluate,
    is_simple,
)


@dataclass
class Gate:
    """A gate (node) in the network.

    Attributes:
        gid: unique integer id within the circuit.
        gtype: the :class:`GateType`.
        delay: gate delay ``d(g)`` (Definition 4.1).
        name: optional human-readable name (PIs/POs must be named).
        fanin: connection ids feeding this gate, in pin order.
        fanout: connection ids driven by this gate (unordered).
    """

    gid: int
    gtype: GateType
    delay: float = 0.0
    name: Optional[str] = None
    fanin: List[int] = field(default_factory=list)
    fanout: List[int] = field(default_factory=list)

    def __repr__(self) -> str:
        label = self.name or f"g{self.gid}"
        return f"<Gate {label}:{self.gtype.value} d={self.delay:g}>"


@dataclass
class Connection:
    """A connection (edge) between two gates.

    Attributes:
        cid: unique integer id within the circuit.
        src: gid of the driving gate.
        dst: gid of the driven gate.
        delay: connection delay ``d(c)``.
    """

    cid: int
    src: int
    dst: int
    delay: float = 0.0

    def __repr__(self) -> str:
        return f"<Conn {self.cid}: {self.src}->{self.dst} d={self.delay:g}>"


class CircuitError(Exception):
    """Raised on structurally invalid operations on a circuit."""


class Circuit:
    """A combinational logic network.

    The class is a mutable container with consistency-preserving primitive
    operations.  Iteration helpers (topological order, cones, fanin/fanout
    closure) recompute on demand and cache until the next mutation.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: Dict[int, Gate] = {}
        self.conns: Dict[int, Connection] = {}
        self._next_gid = 0
        self._next_cid = 0
        self._inputs: List[int] = []   # gid order = PI order
        self._outputs: List[int] = []  # gid order = PO order
        #: arrival time of each primary input (Section III: "assume the
        #: primary input c0 arrives at time t = 5").  Keyed by PI gid.
        self.input_arrival: Dict[int, float] = {}
        self._topo_cache: Optional[List[int]] = None
        #: monotonically increasing mutation counter.  Every structural
        #: change and every retype bumps it, so derived artifacts (the
        #: compiled simulation kernel in :mod:`repro.sim.kernel`) can
        #: detect staleness with one integer compare instead of hashing
        #: the network.
        self._version = 0
        #: attached :class:`repro.net.arena.NetArena` mirroring this
        #: circuit's simulation schedule as struct-of-arrays, or None.
        #: Every structural primitive and :meth:`set_gate_type` notify
        #: it so the flat arrays stay fresh in place.
        self._arena = None
        #: the sets handed out by :meth:`record_touched`; every mutation
        #: primitive adds the gids it touched to each of them.
        self._records: List[Set[int]] = []

    # ------------------------------------------------------------------ #
    # construction primitives
    # ------------------------------------------------------------------ #

    def add_gate(
        self,
        gtype: GateType,
        delay: float = 0.0,
        name: Optional[str] = None,
    ) -> int:
        """Add a gate and return its gid."""
        gid = self._next_gid
        self._next_gid += 1
        self.gates[gid] = Gate(gid, gtype, delay, name)
        if gtype is GateType.INPUT:
            self._inputs.append(gid)
            self.input_arrival.setdefault(gid, 0.0)
        elif gtype is GateType.OUTPUT:
            self._outputs.append(gid)
        self._dirty()
        self._touch(gid)
        if self._arena is not None:
            self._arena.on_add_gate(gid, gtype)
        return gid

    def add_input(self, name: str, arrival: float = 0.0) -> int:
        """Add a primary input with the given arrival time."""
        gid = self.add_gate(GateType.INPUT, 0.0, name)
        self.set_input_arrival(gid, arrival)
        return gid

    def add_output(self, name: str, src: int, delay: float = 0.0) -> int:
        """Add a primary-output marker driven by gate ``src``."""
        gid = self.add_gate(GateType.OUTPUT, 0.0, name)
        self.connect(src, gid, delay)
        return gid

    def connect(self, src: int, dst: int, delay: float = 0.0) -> int:
        """Add a connection from gate ``src`` to gate ``dst``; return cid."""
        if src not in self.gates or dst not in self.gates:
            raise CircuitError(f"connect: unknown gate {src} or {dst}")
        dgate = self.gates[dst]
        if dgate.gtype in SOURCE_TYPES:
            raise CircuitError(f"cannot drive source gate {dgate}")
        cid = self._next_cid
        self._next_cid += 1
        self.conns[cid] = Connection(cid, src, dst, delay)
        self.gates[src].fanout.append(cid)
        dgate.fanin.append(cid)
        self._dirty()
        self._touch(src, dst)
        if self._arena is not None:
            self._arena.on_connect(cid, src, dst)
        return cid

    def add_simple(
        self,
        gtype: GateType,
        fanin: Iterable[int],
        delay: float = 1.0,
        name: Optional[str] = None,
    ) -> int:
        """Convenience: add a gate and connect its fanin gates in order."""
        gid = self.add_gate(gtype, delay, name)
        for src in fanin:
            self.connect(src, gid)
        return gid

    # ------------------------------------------------------------------ #
    # removal primitives
    # ------------------------------------------------------------------ #

    def remove_connection(self, cid: int) -> None:
        """Remove a connection, keeping fanin/fanout lists consistent."""
        conn = self.conns.pop(cid)
        self.gates[conn.src].fanout.remove(cid)
        self.gates[conn.dst].fanin.remove(cid)
        self._dirty()
        self._touch(conn.src, conn.dst)
        if self._arena is not None:
            self._arena.on_remove_connection(cid)

    def remove_gate(self, gid: int) -> None:
        """Remove a gate and every connection touching it."""
        gate = self.gates[gid]
        for cid in list(gate.fanin) + list(gate.fanout):
            if cid in self.conns:
                self.remove_connection(cid)
        del self.gates[gid]
        if gid in self._inputs:
            self._inputs.remove(gid)
            self.input_arrival.pop(gid, None)
        if gid in self._outputs:
            self._outputs.remove(gid)
        self._dirty()
        self._touch(gid)
        if self._arena is not None:
            self._arena.on_remove_gate(gid)

    def move_connection_source(self, cid: int, new_src: int) -> None:
        """Re-source a connection (used for duplication rewiring and for
        the Fig. 2 style rewiring of an input)."""
        conn = self.conns[cid]
        old_src = conn.src
        self.gates[old_src].fanout.remove(cid)
        conn.src = new_src
        self.gates[new_src].fanout.append(cid)
        self._dirty()
        self._touch(old_src, new_src, conn.dst)
        if self._arena is not None:
            self._arena.on_move_source(cid, old_src, new_src)

    # ------------------------------------------------------------------ #
    # attribute setters
    # ------------------------------------------------------------------ #
    # Each records the gate it changed.  Only a retype bumps
    # :attr:`version` and notifies an attached arena: the compiled
    # kernels' opcodes and the proof engine's epoch CNF read gate types,
    # while none of them reads delays or arrival times.

    def set_gate_type(self, gid: int, gtype: GateType) -> None:
        """Retype a gate in place (constant-propagation degenerations)."""
        self.gates[gid].gtype = gtype
        self._version += 1
        self._touch(gid)
        if self._arena is not None:
            self._arena.on_set_gate_type(gid, gtype)

    def set_gate_delay(self, gid: int, delay: float) -> None:
        """Set a gate's delay ``d(g)`` in place."""
        self.gates[gid].delay = delay
        self._touch(gid)

    def set_connection_delay(self, cid: int, delay: float) -> None:
        """Set a connection's delay ``d(c)`` in place."""
        conn = self.conns[cid]
        conn.delay = delay
        self._touch(conn.dst)

    def set_input_arrival(self, gid: int, arrival: float) -> None:
        """Set a primary input's arrival time."""
        self.input_arrival[gid] = arrival
        self._touch(gid)

    # ------------------------------------------------------------------ #
    # touched-gate records
    # ------------------------------------------------------------------ #

    def record_touched(self) -> Set[int]:
        """Return a new record of the gates that later edits touch.

        From this call on, every mutation primitive adds gids to the
        returned set: the gate it adds, retypes, re-delays, re-times or
        removes; both ends of a connection it adds or removes; the old
        source, the new source and the sink of a connection it
        re-sources; the sink of a connection whose delay it sets.  So a
        gate is recorded whenever its own attributes, its fanin (pins,
        sources, delays) or its fanout changed, and a removed gate stays
        recorded.  Each record fills on its own: its reader consumes
        and clears it, and no other record loses a gid.  :meth:`copy`
        carries no record over.
        """
        record: Set[int] = set()
        self._records.append(record)
        return record

    def _touch(self, *gids: int) -> None:
        for record in self._records:
            record.update(gids)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> List[int]:
        """Primary input gids in creation order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[int]:
        """Primary output (OUTPUT-marker) gids in creation order."""
        return list(self._outputs)

    def gate(self, gid: int) -> Gate:
        return self.gates[gid]

    def conn(self, cid: int) -> Connection:
        return self.conns[cid]

    def fanin_gates(self, gid: int) -> List[int]:
        """gids driving ``gid``, in pin order."""
        return [self.conns[cid].src for cid in self.gates[gid].fanin]

    def fanout_gates(self, gid: int) -> List[int]:
        """gids driven by ``gid`` (with multiplicity, one per connection)."""
        return [self.conns[cid].dst for cid in self.gates[gid].fanout]

    def fanout_size(self, gid: int) -> int:
        """Number of fanout connections of a gate."""
        return len(self.gates[gid].fanout)

    def input_names(self) -> List[str]:
        return [self.gates[g].name or f"pi{g}" for g in self._inputs]

    def output_names(self) -> List[str]:
        return [self.gates[g].name or f"po{g}" for g in self._outputs]

    def find_input(self, name: str) -> int:
        """gid of the primary input with the given name."""
        for gid in self._inputs:
            if self.gates[gid].name == name:
                return gid
        raise KeyError(f"no primary input named {name!r}")

    def find_output(self, name: str) -> int:
        """gid of the primary output with the given name."""
        for gid in self._outputs:
            if self.gates[gid].name == name:
                return gid
        raise KeyError(f"no primary output named {name!r}")

    def find_gate(self, name: str) -> int:
        """gid of any gate with the given name."""
        for gid, gate in self.gates.items():
            if gate.name == name:
                return gid
        raise KeyError(f"no gate named {name!r}")

    def num_gates(self, logic_only: bool = True) -> int:
        """Gate count; by default counts only logic gates, mirroring the
        paper's Table I circuit-size metric (PIs, POs and constants are
        structural, not "simple gates")."""
        if not logic_only:
            return len(self.gates)
        skip = SOURCE_TYPES | {GateType.OUTPUT}
        return sum(1 for g in self.gates.values() if g.gtype not in skip)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def _dirty(self) -> None:
        self._topo_cache = None
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter: changes iff the structure or a gate type
        may have changed."""
        return self._version

    def topological_order(self) -> List[int]:
        """gids in topological order (sources first).

        Raises :class:`CircuitError` if the network has a cycle.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg = {gid: len(g.fanin) for gid, g in self.gates.items()}
        ready = sorted(gid for gid, d in indeg.items() if d == 0)
        order: List[int] = []
        queue = list(ready)
        while queue:
            gid = queue.pop()
            order.append(gid)
            for cid in self.gates[gid].fanout:
                dst = self.conns[cid].dst
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    queue.append(dst)
        if len(order) != len(self.gates):
            raise CircuitError("circuit contains a cycle")
        self._topo_cache = order
        return list(order)

    def transitive_fanin(self, gids: Iterable[int]) -> set:
        """Set of gids in the transitive fanin of ``gids`` (inclusive)."""
        seen = set()
        stack = list(gids)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            stack.extend(self.fanin_gates(gid))
        return seen

    def transitive_fanout(self, gids: Iterable[int]) -> set:
        """Set of gids in the transitive fanout of ``gids`` (inclusive)."""
        seen = set()
        stack = list(gids)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            stack.extend(self.fanout_gates(gid))
        return seen

    def depth(self) -> int:
        """Maximum number of logic gates along any path (Definition 4.12)."""
        skip = SOURCE_TYPES | {GateType.OUTPUT}
        best = {gid: 0 for gid in self.gates}
        for gid in self.topological_order():
            gate = self.gates[gid]
            here = 0 if gate.gtype in skip else 1
            pred = max(
                (best[src] for src in self.fanin_gates(gid)), default=0
            )
            best[gid] = pred + here
        return max(best.values(), default=0)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, assignment: Dict[int, int]) -> Dict[int, int]:
        """2-valued simulation: PI gid -> 0/1 in, returns all gate values."""
        values: Dict[int, int] = {}
        for gid in self.topological_order():
            gate = self.gates[gid]
            if gate.gtype is GateType.INPUT:
                values[gid] = assignment[gid]
            else:
                ins = [values[self.conns[c].src] for c in gate.fanin]
                values[gid] = evaluate(gate.gtype, ins)
        return values

    def evaluate_outputs(self, assignment: Dict[int, int]) -> Tuple[int, ...]:
        """2-valued simulation returning PO values in output order."""
        values = self.evaluate(assignment)
        return tuple(values[gid] for gid in self._outputs)

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep structural copy preserving all gids and cids."""
        other = Circuit(name or self.name)
        other._next_gid = self._next_gid
        other._next_cid = self._next_cid
        for gid, gate in self.gates.items():
            other.gates[gid] = Gate(
                gid,
                gate.gtype,
                gate.delay,
                gate.name,
                list(gate.fanin),
                list(gate.fanout),
            )
        for cid, conn in self.conns.items():
            other.conns[cid] = Connection(cid, conn.src, conn.dst, conn.delay)
        other._inputs = list(self._inputs)
        other._outputs = list(self._outputs)
        other.input_arrival = dict(self.input_arrival)
        return other

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def is_simple_gate_network(self) -> bool:
        """True if every logic gate is a simple gate (KMS precondition)."""
        skip = SOURCE_TYPES | {GateType.OUTPUT}
        return all(
            is_simple(g.gtype)
            for g in self.gates.values()
            if g.gtype not in skip
        )

    def stats(self) -> Dict[str, int]:
        """Coarse size statistics used by reports."""
        by_type: Dict[str, int] = {}
        for gate in self.gates.values():
            by_type[gate.gtype.value] = by_type.get(gate.gtype.value, 0) + 1
        return {
            "gates": self.num_gates(),
            "connections": len(self.conns),
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "depth": self.depth(),
            **{f"type_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:
        return (
            f"<Circuit {self.name!r}: {self.num_gates()} gates, "
            f"{len(self._inputs)} PI, {len(self._outputs)} PO>"
        )

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())
