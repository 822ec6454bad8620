"""Arena-based struct-of-arrays simulation schedule for the KMS loop's
working copy.

PR 4's :class:`~repro.sim.kernel.CompiledCircuit` proved flat parallel
arrays beat the object graph ~50x for simulation, but it stays a
*derived* view rebuilt from scratch whenever the object
:class:`~repro.network.circuit.Circuit` mutates.  The KMS loop edits
its working copy a little per iteration and simulates it once per
iteration, so :func:`repro.core.kms` attaches a :class:`NetArena` to
that copy: the circuit's structural primitives and its retype notify
the arena, which mirrors them **in place**, and
:class:`~repro.sim.kernel.ArenaCompiledCircuit` simulates straight
from its arrays with no recompile.  The object ``Circuit`` stays the
source of truth for everything else: fingerprints, cones, delays and
arrival times are read from it alone.

Layout (slot-indexed parallel arrays; a *slot* is an arena-internal
index, stable between compactions, mapped to/from circuit gids):

* ``gt[slot]``      -- gate-type code (:data:`GT_CODE`);
* ``evalop[slot]``  -- simulation opcode (OUTPUT markers evaluate as
  BUF, mirroring :mod:`repro.sim.kernel`);
* ``rank[slot]``    -- position in the maintained topological order;
* fanin/fanout      -- per-slot pin lists of connection slots;
* ``csrc/cdst/cpin[cslot]`` -- connection endpoints (slots) and pin
  index on the destination gate.

Every array is a plain Python list: the simulation view reads one
element at a time, which a list serves with no per-read conversion.

Two maintenance mechanisms keep the arena cheap to keep fresh:

* **free-list GC** -- removed gates/connections push their slots onto a
  free list for reuse; when dead slots exceed half the arena (and a
  minimum floor), :meth:`NetArena.compact` rebuilds the arrays densely
  in the style of CaDiCaL's ``reduce``/arena collection (SNIPPETS.md
  #1): one sweep, slots renumbered in topological order, holes gone;
* **incremental topological order** -- the order is repaired on edge
  insertion with the Pearce-Kelly algorithm (discover the affected
  region between the endpoints' ranks, reorder only that window), so a
  whole KMS iteration costs order-maintenance proportional to the
  touched region.  Edge *removals* never invalidate a topological
  order, so they are free.

Deterministic counters (counted in :mod:`repro.counters`, so they
reach ``KmsResult`` and the stage records, and gated by the ``arena``
row of the CI perf-gate matrix against
``benchmarks/baselines/BENCH_arena_baseline.json``):

* ``arena_full_builds``       -- from-scratch array builds (one per
  attach);
* ``arena_compactions``       -- free-list GC compactions run;
* ``array_ops_inplace``       -- in-place array mutations applied by
  the hooks (the transforms' work, measured on the arrays);
* ``compile_rebuilds_avoided``-- stale-kernel uses served by the
  maintained arrays where the legacy path would have recompiled its
  schedule from the object graph.

The legacy object-graph path is kept verbatim: set
``REPRO_NET_LEGACY=1`` and no arena is attached, so the loop falls back
to recompiling the kernel when it is stale -- the A/B oracle
``benchmarks/test_net_arena.py`` holds bit-identical on every decision.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from ..counters import count
from ..network.circuit import Circuit, CircuitError
from ..network.gates import GateType
from ..sim.opcodes import OPCODE

#: Environment variable forcing the legacy object-graph path (A/B oracle).
LEGACY_ENV = "REPRO_NET_LEGACY"

#: The arena's work counters gated by the ``arena`` perf gate.
ARENA_COUNTERS = (
    "arena_compactions",
    "array_ops_inplace",
    "compile_rebuilds_avoided",
)

#: Gate-type code table (index into :data:`GT_LIST`).
GT_LIST: List[GateType] = list(GateType)
GT_CODE: Dict[GateType, int] = {gt: i for i, gt in enumerate(GT_LIST)}

#: Simulation opcodes -- the shared table of :mod:`repro.sim.opcodes`
#: (OUTPUT markers evaluate as BUF; one table, so the arena's ``evalop``
#: array can never drift from what the kernels execute).
SIM_OPCODE: Dict[GateType, int] = OPCODE

#: Compaction policy: collect when dead slots exceed half the arena and
#: the absolute floor (no point compacting toy arenas).
COMPACT_MIN_DEAD = 64
COMPACT_DEAD_FRACTION = 0.5


def net_enabled() -> bool:
    """Should the KMS loop run on the arena representation?

    True unless ``REPRO_NET_LEGACY`` is set to a non-empty, non-zero
    value -- the env-level A/B switch back to the object-graph path.
    """
    return os.environ.get(LEGACY_ENV, "") in ("", "0")


class NetArena:
    """Struct-of-arrays simulation schedule of one :class:`Circuit`,
    hook-maintained.

    Construct via :func:`attach_arena`; the circuit's structural
    primitives and :meth:`Circuit.set_gate_type` then keep the arrays
    fresh in place, and the zero-copy simulation view in
    :mod:`repro.sim.kernel` reads them.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        #: informational: Pearce-Kelly order repairs and slots moved.
        self.pk_reorders = 0
        self.pk_slots_moved = 0
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _new_arrays(self) -> None:
        self.gt: List[int] = []
        self.evalop: List[int] = []
        self.rank: List[int] = []
        self.alive: List[bool] = []
        self.gid_of: List[int] = []
        self.slot_of: Dict[int, int] = {}
        self.fanin: List[List[int]] = []   # conn slots, pin order
        self.fanout: List[List[int]] = []  # conn slots
        self.free_slots: List[int] = []
        # connections
        self.csrc: List[int] = []
        self.cdst: List[int] = []
        self.cpin: List[int] = []
        self.calive: List[bool] = []
        self.cid_of: List[int] = []
        self.cslot_of: Dict[int, int] = {}
        self.free_cslots: List[int] = []
        # maintained topological order: list of slots, -1 holes
        self.sched_order: List[int] = []
        # interface
        self.po_slots: List[int] = []
        # live census
        self.n_live_gates = 0
        self.n_eval_gates = 0  # live non-INPUT slots (sim cost metric)

    def _build(self) -> None:
        """Full from-scratch build -- runs once at attach; afterwards
        the hooks maintain everything in place."""
        circuit = self.circuit
        self._new_arrays()
        count("arena_full_builds")
        order = circuit.topological_order()
        for gid in order:
            slot = self._alloc_slot(gid, circuit.gates[gid].gtype)
            self.rank[slot] = len(self.sched_order)
            self.sched_order.append(slot)
        for gid in order:
            for cid in circuit.gates[gid].fanin:
                conn = circuit.conns[cid]
                self._alloc_conn(
                    cid, self.slot_of[conn.src], self.slot_of[conn.dst]
                )
        self.po_slots = [self.slot_of[g] for g in circuit.outputs]

    def _alloc_slot(self, gid: int, gtype: GateType) -> int:
        if self.free_slots:
            slot = self.free_slots.pop()
            self.gt[slot] = GT_CODE[gtype]
            self.evalop[slot] = SIM_OPCODE[gtype]
            self.alive[slot] = True
            self.gid_of[slot] = gid
            self.fanin[slot] = []
            self.fanout[slot] = []
        else:
            slot = len(self.alive)
            self.gt.append(GT_CODE[gtype])
            self.evalop.append(SIM_OPCODE[gtype])
            self.rank.append(-1)
            self.alive.append(True)
            self.gid_of.append(gid)
            self.fanin.append([])
            self.fanout.append([])
        self.slot_of[gid] = slot
        self.n_live_gates += 1
        if gtype is not GateType.INPUT:
            self.n_eval_gates += 1
        return slot

    def _alloc_conn(self, cid: int, src: int, dst: int) -> int:
        if self.free_cslots:
            c = self.free_cslots.pop()
            self.csrc[c] = src
            self.cdst[c] = dst
            self.calive[c] = True
            self.cid_of[c] = cid
        else:
            c = len(self.calive)
            self.csrc.append(src)
            self.cdst.append(dst)
            self.cpin.append(0)
            self.calive.append(True)
            self.cid_of.append(cid)
        self.cslot_of[cid] = c
        self.cpin[c] = len(self.fanin[dst])
        self.fanin[dst].append(c)
        self.fanout[src].append(c)
        return c

    # ------------------------------------------------------------------ #
    # mutation hooks (called by Circuit primitives)
    # ------------------------------------------------------------------ #

    def on_add_gate(self, gid: int, gtype: GateType) -> None:
        slot = self._alloc_slot(gid, gtype)
        self.rank[slot] = len(self.sched_order)
        self.sched_order.append(slot)
        if gtype is GateType.OUTPUT:
            self.po_slots.append(slot)
        count("array_ops_inplace")

    def on_connect(self, cid: int, src: int, dst: int) -> None:
        s, d = self.slot_of[src], self.slot_of[dst]
        self._alloc_conn(cid, s, d)
        if self.rank[s] > self.rank[d]:
            self._pk_repair(s, d)
        count("array_ops_inplace")

    def on_remove_connection(self, cid: int) -> None:
        c = self.cslot_of.pop(cid)
        s, d = self.csrc[c], self.cdst[c]
        self.fanout[s].remove(c)
        pin = self.cpin[c]
        pins = self.fanin[d]
        pins.pop(pin)
        for later in pins[pin:]:
            self.cpin[later] = self.cpin[later] - 1
        self.calive[c] = False
        self.cid_of[c] = -1
        self.free_cslots.append(c)
        count("array_ops_inplace")

    def on_remove_gate(self, gid: int) -> None:
        """Called after the circuit dropped the gate's connections."""
        slot = self.slot_of.pop(gid)
        gtype = GT_LIST[self.gt[slot]]
        self.alive[slot] = False
        self.sched_order[self.rank[slot]] = -1
        self.gid_of[slot] = -1
        self.free_slots.append(slot)
        self.n_live_gates -= 1
        if gtype is not GateType.INPUT:
            self.n_eval_gates -= 1
        if gtype is GateType.OUTPUT:
            self.po_slots.remove(slot)
        count("array_ops_inplace")
        self._maybe_compact()

    def on_move_source(self, cid: int, old_src: int, new_src: int) -> None:
        c = self.cslot_of[cid]
        s_old, s_new = self.slot_of[old_src], self.slot_of[new_src]
        self.fanout[s_old].remove(c)
        self.fanout[s_new].append(c)
        self.csrc[c] = s_new
        d = self.cdst[c]
        if self.rank[s_new] > self.rank[d]:
            self._pk_repair(s_new, d)
        count("array_ops_inplace")

    def on_set_gate_type(self, gid: int, gtype: GateType) -> None:
        slot = self.slot_of[gid]
        old = GT_LIST[self.gt[slot]]
        if (old is GateType.INPUT) != (gtype is GateType.INPUT):
            self.n_eval_gates += 1 if gtype is GateType.INPUT else -1
        self.gt[slot] = GT_CODE[gtype]
        self.evalop[slot] = SIM_OPCODE[gtype]
        count("array_ops_inplace")

    # ------------------------------------------------------------------ #
    # Pearce-Kelly incremental topological order
    # ------------------------------------------------------------------ #

    def _pk_repair(self, src_slot: int, dst_slot: int) -> None:
        """Restore rank[src] < rank[dst] for a new edge src -> dst by
        reordering only the affected window [rank[dst], rank[src]].

        Standard Pearce-Kelly: F = slots forward-reachable from dst
        within the window, B = slots backward-reachable from src within
        the window; pool their order positions and lay B before F.
        """
        rank = self.rank
        lb, ub = rank[dst_slot], rank[src_slot]
        # forward discovery from dst (fanout direction)
        fwd: List[int] = []
        seen_f = {dst_slot}
        stack = [dst_slot]
        while stack:
            s = stack.pop()
            fwd.append(s)
            for c in self.fanout[s]:
                t = self.cdst[c]
                if t == src_slot:
                    raise CircuitError("arena: edge insertion creates a cycle")
                if t not in seen_f and rank[t] <= ub:
                    seen_f.add(t)
                    stack.append(t)
        # backward discovery from src (fanin direction)
        bwd: List[int] = []
        seen_b = {src_slot}
        stack = [src_slot]
        while stack:
            s = stack.pop()
            bwd.append(s)
            for c in self.fanin[s]:
                t = self.csrc[c]
                if t not in seen_b and rank[t] >= lb:
                    seen_b.add(t)
                    stack.append(t)
        pool = sorted(rank[s] for s in fwd + bwd)
        nodes = sorted(bwd, key=rank.__getitem__) + sorted(
            fwd, key=rank.__getitem__
        )
        for position, slot in zip(pool, nodes):
            self.sched_order[position] = slot
            rank[slot] = position
        self.pk_reorders += 1
        self.pk_slots_moved += len(nodes)

    # ------------------------------------------------------------------ #
    # free-list GC / compaction
    # ------------------------------------------------------------------ #

    def _maybe_compact(self) -> None:
        dead = len(self.alive) - self.n_live_gates
        if dead >= COMPACT_MIN_DEAD and dead > (
            COMPACT_DEAD_FRACTION * len(self.alive)
        ):
            self.compact()

    def compact(self) -> None:
        """Rebuild the arrays densely, renumbering slots in topological
        order (after compaction ``rank`` is the identity over slots).
        Circuit gids/cids are untouched."""
        old_order = [s for s in self.sched_order if s != -1]
        old_gid_of = self.gid_of
        old_gt = self.gt
        old_fanin = self.fanin
        old_cid_of = self.cid_of
        old_csrc = self.csrc

        self._new_arrays()
        remap: Dict[int, int] = {}
        for old_slot in old_order:
            slot = self._alloc_slot(
                old_gid_of[old_slot], GT_LIST[old_gt[old_slot]]
            )
            self.rank[slot] = len(self.sched_order)
            self.sched_order.append(slot)
            remap[old_slot] = slot
        for old_slot in old_order:
            for c in old_fanin[old_slot]:
                self._alloc_conn(
                    old_cid_of[c], remap[old_csrc[c]], remap[old_slot]
                )
        self.po_slots = [
            self.slot_of[g] for g in self.circuit.outputs
        ]
        count("arena_compactions")

    # ------------------------------------------------------------------ #
    # readers
    # ------------------------------------------------------------------ #

    def live_slots(self) -> Iterable[int]:
        """Live slots in maintained topological order."""
        for slot in self.sched_order:
            if slot != -1:
                yield slot

    def check(self) -> None:
        """Structural self-check against the owning circuit (tests and
        paranoia; raises :class:`CircuitError` on any divergence)."""
        circuit = self.circuit
        if set(self.slot_of) != set(circuit.gates):
            raise CircuitError("arena: gid set diverged")
        if set(self.cslot_of) != set(circuit.conns):
            raise CircuitError("arena: cid set diverged")
        rank = self.rank
        for cid, conn in circuit.conns.items():
            c = self.cslot_of[cid]
            s, d = self.slot_of[conn.src], self.slot_of[conn.dst]
            if self.csrc[c] != s or self.cdst[c] != d:
                raise CircuitError(f"arena: conn {cid} endpoints diverged")
            if rank[s] >= rank[d]:
                raise CircuitError(f"arena: order violated on conn {cid}")
        for gid, gate in circuit.gates.items():
            slot = self.slot_of[gid]
            if GT_LIST[self.gt[slot]] is not gate.gtype:
                raise CircuitError(f"arena: gate {gid} type diverged")
            if [self.cid_of[c] for c in self.fanin[slot]] != gate.fanin:
                raise CircuitError(f"arena: gate {gid} fanin diverged")
            if sorted(self.cid_of[c] for c in self.fanout[slot]) != sorted(
                gate.fanout
            ):
                raise CircuitError(f"arena: gate {gid} fanout diverged")
            for pin, c in enumerate(self.fanin[slot]):
                if self.cpin[c] != pin:
                    raise CircuitError(f"arena: pin index diverged on {gid}")
        if [self.gid_of[s] for s in self.po_slots] != circuit.outputs:
            raise CircuitError("arena: PO order diverged")

    def __repr__(self) -> str:
        return (
            f"<NetArena {self.circuit.name!r}: {self.n_live_gates} live / "
            f"{len(self.alive)} slots>"
        )


# ---------------------------------------------------------------------- #
# attachment
# ---------------------------------------------------------------------- #

def attach_arena(circuit: Circuit) -> NetArena:
    """Build a :class:`NetArena` for ``circuit`` and register it as the
    circuit's simulation schedule (idempotent)."""
    arena = getattr(circuit, "_arena", None)
    if arena is None or arena.circuit is not circuit:
        arena = NetArena(circuit)
        circuit._arena = arena
    return arena


def get_arena(circuit: Circuit) -> Optional[NetArena]:
    """The circuit's attached arena, or None."""
    arena = getattr(circuit, "_arena", None)
    if arena is not None and arena.circuit is circuit:
        return arena
    return None


def detach_arena(circuit: Circuit) -> None:
    """Drop the attached arena (the circuit reverts to pure object
    graph; mainly for tests and the A/B oracle)."""
    circuit._arena = None
