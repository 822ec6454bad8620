"""Paths (Definition 4.2) and lazy longest-first path enumeration.

A path is an alternating sequence of connections and gates.  We represent
IO-paths (primary input to primary output, the objects Theorem 7.2 talks
about) explicitly: the source PI, the logic gates along the path, the
connections between them, and the OUTPUT marker at the end.

`iter_paths_longest_first` enumerates IO-paths in nonincreasing length
order using best-first search with the exact suffix potential
(``dist_to_po``) as priority -- this is what lets the sensitization- and
viability-based delay computations stop at the first "true" path without
enumerating everything.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Container, Iterator, List, Optional, Tuple

from ..network import Circuit, GateType
from .models import EPS, NEVER, AsBuiltDelayModel, DelayModel
from .sta import TimingAnnotation, analyze


@dataclass(frozen=True)
class Path:
    """An IO-path.

    Attributes:
        source: PI gid the path starts at.
        gates: logic gates ``g_0 .. g_{m-1}`` along the path, in order.
        conns: connections ``c_0 .. c_m``; ``c_i`` feeds ``g_i`` and the
            final ``c_m`` feeds the OUTPUT marker.
        sink: the OUTPUT marker gid.
        length: the path length under the enumerating model, including
            the source's arrival time (Definition 4.6 plus arrival).
    """

    source: int
    gates: Tuple[int, ...]
    conns: Tuple[int, ...]
    sink: int
    length: float

    @property
    def first_edge(self) -> int:
        """The first connection ``c_0`` -- the KMS constant-setting site."""
        return self.conns[0]

    def describe(self, circuit: Circuit) -> str:
        """Human-readable rendering using gate names."""

        def name(gid: int) -> str:
            gate = circuit.gates[gid]
            return gate.name or f"g{gid}"

        parts = [name(self.source)]
        parts.extend(name(g) for g in self.gates)
        parts.append(name(self.sink))
        return " -> ".join(parts) + f"  (length {self.length:g})"

    def last_multifanout_gate(self, circuit: Circuit) -> Optional[int]:
        """The gate along the path *closest to the output* with fanout > 1
        (the ``n`` of Fig. 3), or None if all path gates are single-fanout.
        """
        for gid in reversed(self.gates):
            if circuit.fanout_size(gid) > 1:
                return gid
        return None

    def event_times(
        self, circuit: Circuit, model: Optional[DelayModel] = None
    ) -> List[float]:
        """Event arrival time at each path gate's *input* (tau_i).

        ``tau_i`` is the time the propagating event reaches gate ``g_i``:
        source arrival plus all connection delays up to ``c_i`` and all
        gate delays strictly before ``g_i``.  Used by viability analysis
        to split side-inputs into early and late sets.
        """
        model = model if model is not None else AsBuiltDelayModel()
        t = model.input_arrival(circuit, self.source)
        times: List[float] = []
        for i, gid in enumerate(self.gates):
            t += model.conn_delay(circuit, self.conns[i])
            times.append(t)
            t += model.gate_delay(circuit, gid)
        return times


def path_length(
    circuit: Circuit, path: Path, model: Optional[DelayModel] = None
) -> float:
    """Recompute a path's length from scratch (test oracle for `length`)."""
    model = model if model is not None else AsBuiltDelayModel()
    t = model.input_arrival(circuit, path.source)
    for cid in path.conns:
        t += model.conn_delay(circuit, cid)
    for gid in path.gates:
        t += model.gate_delay(circuit, gid)
    return t


def iter_paths_longest_first(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    annotation: Optional[TimingAnnotation] = None,
    max_paths: Optional[int] = None,
    within: Optional[Container[int]] = None,
) -> Iterator[Path]:
    """Yield IO-paths in nonincreasing length order, lazily.

    Best-first search where a partial path ending at gate ``u`` with exact
    prefix length ``L`` has priority ``L + dist_to_po(u)`` -- an exact
    (hence admissible and consistent) bound on the best completion, so
    paths pop in sorted order.  Paths through constants (which never
    transition) are excluded.  ``max_paths <= 0`` yields nothing.

    ``within``, when given, restricts the search to those connections.
    Restricted to the critical connections
    (:func:`~repro.timing.sta.critical_connections`) it yields the same
    first path: every item the full search pops before its first path
    has priority at least the delay, up to rounding, so it came through
    a critical connection; and the items kept are pushed in the same
    relative order, so ties break the same way.
    """
    if max_paths is not None and max_paths <= 0:
        return
    model = model if model is not None else AsBuiltDelayModel()
    ann = annotation if annotation is not None else analyze(circuit, model)
    counter = itertools.count()
    heap: List[tuple] = []
    for pi in circuit.inputs:
        if ann.dist_to_po.get(pi, NEVER) == NEVER:
            continue
        prefix = model.input_arrival(circuit, pi)
        priority = prefix + ann.dist_to_po[pi]
        heapq.heappush(
            heap, (-priority, next(counter), pi, pi, (), (), prefix)
        )
    yielded = 0
    while heap:
        neg_prio, _, current, source, gates, conns, prefix = heapq.heappop(
            heap
        )
        gate = circuit.gates[current]
        if gate.gtype is GateType.OUTPUT:
            yield Path(
                source=source,
                gates=gates,
                conns=conns,
                sink=current,
                length=-neg_prio,
            )
            yielded += 1
            if max_paths is not None and yielded >= max_paths:
                return
            continue
        for cid in gate.fanout:
            if within is not None and cid not in within:
                continue
            conn = circuit.conns[cid]
            dst = conn.dst
            down = ann.dist_to_po.get(dst, NEVER)
            if down == NEVER:
                continue
            step = model.conn_delay(circuit, cid) + model.gate_delay(
                circuit, dst
            )
            new_prefix = prefix + step
            dst_gate = circuit.gates[dst]
            new_gates = (
                gates if dst_gate.gtype is GateType.OUTPUT else gates + (dst,)
            )
            heapq.heappush(
                heap,
                (
                    -(new_prefix + down),
                    next(counter),
                    dst,
                    source,
                    new_gates,
                    conns + (cid,),
                    new_prefix,
                ),
            )


def longest_paths(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    max_paths: int = 10000,
) -> List[Path]:
    """All paths achieving the topological delay (capped at ``max_paths``).
    """
    model = model if model is not None else AsBuiltDelayModel()
    ann = analyze(circuit, model)
    result: List[Path] = []
    for path in iter_paths_longest_first(circuit, model, ann, max_paths):
        if path.length < ann.delay - EPS:
            break
        result.append(path)
    return result
