"""Timing optimization: the stand-in for MIS-II ``speed_up`` [23], [12].

Two restructuring engines:

* :func:`timing_decompose` -- rebuild every multi-input AND/OR as a
  2-input tree merged Huffman-style by signal arrival time (earliest
  signals merge first, latest signals end up next to the root).  Local,
  cheap, works at any size.

* :func:`speed_up` -- per critical output: collapse the cone to a BDD
  over the primary inputs, then rebuild it either as an arrival-aware
  factored tree or as a *Shannon bypass* around the latest-arriving
  input (f = x ? f_x : f_x', putting the late signal one MUX from the
  output).  Keeps whichever realization improves arrival.  The Shannon
  bypass is the generalized form of the carry-skip trick -- it buys
  delay and, exactly as the paper describes, can introduce single
  stuck-at redundancies, which is what makes the optimized MCNC-style
  circuits interesting KMS inputs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd import BDD, circuit_bdds
from ..network import Circuit, GateType
from ..timing import AsBuiltDelayModel, DelayModel, analyze
from ..timing.models import EPS
from ..twolevel import espresso
from .isop import bdd_to_cover
from .optimize import area_optimize


def _huffman_tree(
    circuit: Circuit,
    gtype: GateType,
    signals: List[Tuple[float, int]],
    gate_delay: float,
) -> Tuple[float, int]:
    """Merge (arrival, gid) signals into a 2-input tree, earliest first.

    Returns (root arrival, root gid).  Optimal for minimizing the root
    arrival under a fixed per-gate delay.
    """
    if not signals:
        raise ValueError("cannot build a tree from no signals")
    counter = itertools.count()
    heap = [(a, next(counter), g) for a, g in signals]
    heapq.heapify(heap)
    while len(heap) > 1:
        a1, _, g1 = heapq.heappop(heap)
        a2, _, g2 = heapq.heappop(heap)
        gid = circuit.add_simple(gtype, [g1, g2], gate_delay)
        heapq.heappush(heap, (max(a1, a2) + gate_delay, next(counter), gid))
    arrival, _, gid = heap[0]
    return arrival, gid


def timing_decompose(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    gate_delay: float = 1.0,
) -> int:
    """Split every fanin-3+ AND/OR/NAND/NOR into arrival-balanced
    2-input trees, in place.  Returns the number of gates split.

    The inverting types keep their inversion at the root (the tree body
    is the non-inverting dual).
    """
    model = model if model is not None else AsBuiltDelayModel()
    split = 0
    for gid in list(circuit.topological_order()):
        gate = circuit.gates.get(gid)
        if gate is None or len(gate.fanin) <= 2:
            continue
        if gate.gtype not in (
            GateType.AND,
            GateType.OR,
            GateType.NAND,
            GateType.NOR,
        ):
            continue
        ann = analyze(circuit, model)
        body_type = (
            GateType.AND
            if gate.gtype in (GateType.AND, GateType.NAND)
            else GateType.OR
        )
        signals = []
        srcs = []
        for cid in list(gate.fanin):
            conn = circuit.conns[cid]
            signals.append(
                (
                    ann.arrival[conn.src] + model.conn_delay(circuit, cid),
                    conn.src,
                )
            )
            srcs.append(conn.src)
        # keep the last two signals for the original gate (it becomes the
        # tree root and keeps its type/polarity and fanouts)
        signals.sort()
        tail = signals[-1]
        _, body = _huffman_tree(
            circuit, body_type, signals[:-1], gate_delay
        )
        for cid in list(gate.fanin):
            circuit.remove_connection(cid)
        circuit.connect(body, gid)
        circuit.connect(tail[1], gid)
        split += 1
    return split


@dataclass
class SpeedupStats:
    """What one speed_up run did."""

    iterations: int
    collapsed_outputs: List[str]
    bypassed_inputs: List[str]
    delay_before: float
    delay_after: float


def speed_up(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    max_iterations: int = 20,
    collapse_limit: int = 14,
    allow_bypass: bool = True,
    gate_delay: float = 1.0,
) -> Tuple[Circuit, SpeedupStats]:
    """Delay-optimize a circuit; returns (new circuit, stats).

    Works on a copy.  Only accepts restructurings that strictly improve
    the rebuilt output's arrival, so the result is never slower than the
    input (topologically).
    """
    model = model if model is not None else AsBuiltDelayModel()
    work = circuit.copy(f"{circuit.name}#fast")
    stats = SpeedupStats(
        iterations=0,
        collapsed_outputs=[],
        bypassed_inputs=[],
        delay_before=analyze(circuit, model).delay,
        delay_after=0.0,
    )
    if len(work.inputs) > collapse_limit:
        timing_decompose(work, model, gate_delay)
        area_optimize(work)
        stats.delay_after = analyze(work, model).delay
        if stats.delay_after > stats.delay_before + EPS:
            # decomposing wide gates into 2-input trees can cost levels
            # under a unit model; honor the never-slower contract
            work = circuit.copy(f"{circuit.name}#fast")
            stats.delay_after = stats.delay_before
        return work, stats

    attempted = set()
    for _ in range(max_iterations):
        stats.iterations += 1
        ann = analyze(work, model)
        candidates = sorted(
            (gid for gid in work.outputs if gid not in attempted),
            key=lambda g: -ann.arrival[g],
        )
        if not candidates or ann.arrival[candidates[0]] < ann.delay:
            break
        po = candidates[0]
        attempted.add(po)
        improved = _rebuild_output(
            work, po, ann.arrival[po], model, allow_bypass, gate_delay, stats
        )
        area_optimize(work)
        if not improved and len(attempted) >= len(work.outputs):
            break
    area_optimize(work)
    stats.delay_after = analyze(work, model).delay
    return work, stats


def _rebuild_output(
    work: Circuit,
    po: int,
    old_arrival: float,
    model: DelayModel,
    allow_bypass: bool,
    gate_delay: float,
    stats: SpeedupStats,
) -> bool:
    """Try to rebuild one output cone, whose current arrival is
    ``old_arrival``; returns True if kept."""
    bdd, nodes = circuit_bdds(work)
    func = nodes[po]
    if func in (bdd.ZERO, bdd.ONE):
        return False
    pi_arrival = {
        i: model.input_arrival(work, gid)
        for i, gid in enumerate(work.inputs)
    }
    support = _support(bdd, func)
    builder = _ConeBuilder(work, bdd, pi_arrival, gate_delay)

    best: Optional[Tuple[float, int]] = None
    flat = builder.build_cover(func)
    if flat is not None and (best is None or flat[0] < best[0]):
        best = flat
    bypassed = None
    if allow_bypass and support:
        latest = max(support, key=lambda v: pi_arrival[v])
        shannon = builder.build_shannon(func, latest)
        if shannon is not None and (best is None or shannon[0] < best[0]):
            best = shannon
            bypassed = latest
    if best is None or best[0] >= old_arrival - EPS:
        return False
    arrival, root = best
    po_conn = work.gates[po].fanin[0]
    work.move_connection_source(po_conn, root)
    name = work.gates[po].name or f"po{po}"
    stats.collapsed_outputs.append(name)
    if bypassed is not None:
        stats.bypassed_inputs.append(
            work.gates[work.inputs[bypassed]].name or f"pi{bypassed}"
        )
    return True


def _support(bdd: BDD, node: int) -> List[int]:
    """Variable indices the function depends on."""
    seen = set()
    support = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n <= 1 or n in seen:
            continue
        seen.add(n)
        var, low, high = bdd._nodes[n]
        support.add(var)
        stack.extend((low, high))
    return sorted(support)


class _ConeBuilder:
    """Realizes BDD functions as timing-aware gate trees on a circuit."""

    def __init__(
        self,
        circuit: Circuit,
        bdd: BDD,
        pi_arrival: Dict[int, float],
        gate_delay: float,
    ) -> None:
        self.circuit = circuit
        self.bdd = bdd
        self.pi_arrival = pi_arrival
        self.gate_delay = gate_delay
        self._inverters: Dict[int, int] = {}

    def _literal(self, var: int, value: int) -> Tuple[float, int]:
        gid = self.circuit.inputs[var]
        arrival = self.pi_arrival[var]
        if value:
            return arrival, gid
        if gid not in self._inverters:
            self._inverters[gid] = self.circuit.add_simple(
                GateType.NOT, [gid], self.gate_delay
            )
        return arrival + self.gate_delay, self._inverters[gid]

    def build_cover(self, func: int) -> Optional[Tuple[float, int]]:
        """Two-level-from-ISOP realization with Huffman-by-arrival trees."""
        num_vars = len(self.circuit.inputs)
        cover = bdd_to_cover(self.bdd, func, num_vars)
        if cover.cubes:
            cover = espresso(cover).cover
        if not cover.cubes:
            return None
        terms: List[Tuple[float, int]] = []
        for cube in cover.cubes:
            lits = [self._literal(v, val) for v, val in cube.literals()]
            if not lits:
                return None  # tautology: caller handles constants
            terms.append(
                _huffman_tree(
                    self.circuit, GateType.AND, lits, self.gate_delay
                )
            )
        return _huffman_tree(
            self.circuit, GateType.OR, terms, self.gate_delay
        )

    def build_shannon(
        self, func: int, var: int
    ) -> Optional[Tuple[float, int]]:
        """f = var ? f1 : f0 with the cofactors built flat -- the
        generalized bypass around a late input."""
        bdd = self.bdd
        f0 = bdd.restrict(func, var, 0)
        f1 = bdd.restrict(func, var, 1)
        if f0 == f1:
            return None
        sel_arrival, sel = self._literal(var, 1)
        g = self.gate_delay

        def realize(node: int) -> Tuple[float, int]:
            if node == bdd.ZERO:
                return 0.0, self.circuit.add_gate(GateType.CONST0, 0.0)
            if node == bdd.ONE:
                return 0.0, self.circuit.add_gate(GateType.CONST1, 0.0)
            built = self.build_cover(node)
            if built is None:
                raise ValueError("unreachable: non-constant cover empty")
            return built

        a0, g0 = realize(f0)
        a1, g1 = realize(f1)
        inv = self.circuit.add_simple(GateType.NOT, [sel], g)
        and0 = self.circuit.add_simple(GateType.AND, [inv, g0], g)
        and1 = self.circuit.add_simple(GateType.AND, [sel, g1], g)
        root = self.circuit.add_simple(GateType.OR, [and0, and1], g)
        arrival = max(
            sel_arrival + 3 * g,  # through the inverter leg
            sel_arrival + 2 * g,
            a0 + 2 * g,
            a1 + 2 * g,
        )
        return arrival, root
