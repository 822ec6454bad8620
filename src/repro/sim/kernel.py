"""Compiled levelized simulation kernel.

:func:`repro.sim.parallel.simulate_packed` re-derives the topological
order and does per-gate dict lookups on every call, and
:func:`repro.atpg.faultsim.simulate_fault_packed` re-simulates the whole
circuit once per fault.  This module compiles a :class:`Circuit` once
into a flat levelized schedule and makes both costs go away:

* :class:`CompiledCircuit` lowers the network into parallel lists --
  topological order, integer opcodes, fanin source *positions* -- built
  once and reused across calls.  Staleness is detected with one integer
  compare against :attr:`Circuit.version` (every structural mutation
  and every retype bumps it), and the next use recompiles.

* a pattern block is one arbitrary-precision Python int per gate (bit
  *i* is the gate's value under pattern *i*), so one bitwise op per
  fanin evaluates a gate under every pattern of the block, at any width.

* event-driven parallel-pattern fault simulation
  (:meth:`CompiledCircuit.fault_diffs`): the stuck value is injected at
  the fault site and propagated only through the fanout cone, cutting
  off as soon as the good/faulty difference word goes to zero.  The
  faulty-value map is sparse -- gates outside the cone are never
  evaluated.

* fanout-free-region grading (:func:`region_detecting_words`, behind
  ``detecting_words``): a whole fault list is graded with one such
  propagation per region stem instead of one per fault, and local
  Boolean differences carry each fault's effect to its stem.  Every
  mask equals the per-fault one bit for bit; this is where the >=100x
  gate-evaluation saving of ``BENCH_sim.json`` comes from.

All work is counted in :mod:`repro.counters` under the names of
:data:`WORK_COUNTERS` -- exact functions of circuit + pattern block, no
wall-clock jitter.

Every simulation consumer runs this kernel.  The interpreted
``simulate_packed`` / ``simulate_fault_packed`` pair stays as the test
reference; the graded-simulation entry points that tests and benchmarks
compare against it take ``compiled=False`` to run it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..counters import count
from ..network import Circuit, GateType
from .opcodes import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_INPUT,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    OPCODE,
    eval_op_word,
)

#: The kernel's work counters (:mod:`repro.counters`), in the order
#: ``repro atpg`` prints them and the ``sim`` perf gate reads them.
WORK_COUNTERS = (
    "gate_evals_good",
    "gate_evals_faulty",
    "cone_cutoffs",
    "faults_dropped",
    "compile_rebuilds",
)


# ---------------------------------------------------------------------- #
# the compiled circuit
# ---------------------------------------------------------------------- #

class CompiledCircuit:
    """A :class:`Circuit` lowered to a flat levelized schedule.

    Parallel lists indexed by *position* (rank in topological order):
    ``ops[i]`` is the integer opcode, ``fanin_pos[i]`` the positions of
    the gate's fanin sources in pin order, ``fanout_pos[i]`` the sorted
    positions it feeds.  ``order`` maps position -> gid and ``pos`` the
    inverse; ``conn_pin`` maps each connection id to its
    ``(dst position, pin index)`` so connection faults inject without
    touching the ``Circuit`` object.

    The kernel records :attr:`Circuit.version` at compile time and
    recompiles lazily whenever the circuit has mutated since.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._compile()

    # ------------------------------ build ----------------------------- #

    def _compile(self) -> None:
        circuit = self.circuit
        self.version = circuit.version
        count("compile_rebuilds")
        order = circuit.topological_order()
        self.order: List[int] = order
        pos = {gid: i for i, gid in enumerate(order)}
        self.pos: Dict[int, int] = pos
        n = len(order)
        ops: List[int] = [0] * n
        fanin_pos: List[Tuple[int, ...]] = [()] * n
        fanout_pos: List[Tuple[int, ...]] = [()] * n
        conn_pin: Dict[int, Tuple[int, int]] = {}
        conns = circuit.conns
        for i, gid in enumerate(order):
            gate = circuit.gates[gid]
            ops[i] = OPCODE[gate.gtype]
            srcs = tuple(pos[conns[cid].src] for cid in gate.fanin)
            fanin_pos[i] = srcs
            for pin, cid in enumerate(gate.fanin):
                conn_pin[cid] = (i, pin)
            fanout_pos[i] = tuple(
                sorted({pos[conns[cid].dst] for cid in gate.fanout})
            )
        self.ops = ops
        self.fanin_pos = fanin_pos
        self.fanout_pos = fanout_pos
        self.conn_pin = conn_pin
        self.pi_pos = [pos[g] for g in circuit.inputs]
        self.po_pos = [pos[g] for g in circuit.outputs]
        self._po_pos_set = set(self.po_pos)
        #: positions the good-eval counter charges (everything but PIs)
        self._num_eval_gates = sum(1 for op in ops if op != OP_INPUT)

    @property
    def stale(self) -> bool:
        """Has the circuit mutated since this schedule was built?"""
        return self.version != self.circuit.version

    def _ensure_fresh(self) -> None:
        if self.stale:
            self._compile()

    # ----------------------------- queries ---------------------------- #

    def num_eval_gates(self) -> int:
        """Gates one full-circuit evaluation costs (non-PI positions) --
        the per-fault price of the legacy full resimulation."""
        self._ensure_fresh()
        return self._num_eval_gates

    def words_from_values(self, values: Mapping[int, int]) -> List[int]:
        """Positional word list from a gid-keyed value map (the shape
        ``simulate_packed`` returns), for interop with legacy callers."""
        self._ensure_fresh()
        return [values[gid] for gid in self.order]

    # --------------------------- good evaluation ----------------------- #

    def evaluate(
        self,
        packed_inputs: Mapping[int, int],
        width: int,
        overrides: Optional[Mapping[int, int]] = None,
    ) -> Dict[int, int]:
        """Drop-in, bit-identical replacement for ``simulate_packed``.

        Returns packed words for every gate, keyed by gid.  ``overrides``
        forces gate outputs exactly like the interpreted path.
        """
        words = self.evaluate_words(packed_inputs, width, overrides)
        return {gid: words[i] for i, gid in enumerate(self.order)}

    def evaluate_words(
        self,
        packed_inputs: Mapping[int, int],
        width: int,
        overrides: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Like :meth:`evaluate` but positional (index = topo rank) --
        the representation the fault simulator consumes."""
        self._ensure_fresh()
        mask = (1 << width) - 1
        over: Dict[int, int] = {}
        if overrides:
            over = {self.pos[g]: v & mask for g, v in overrides.items()}
        values, evals = self._evaluate(packed_inputs, mask, over)
        count("gate_evals_good", evals)
        return values

    def _evaluate(
        self,
        packed_inputs: Mapping[int, int],
        mask: int,
        over: Dict[int, int],
    ) -> Tuple[List[int], int]:
        ops = self.ops
        fanin_pos = self.fanin_pos
        order = self.order
        values = [0] * len(ops)
        evals = 0
        for idx, op in enumerate(ops):
            if idx in over:
                values[idx] = over[idx]
                continue
            if op == OP_INPUT:
                values[idx] = packed_inputs.get(order[idx], 0) & mask
                continue
            evals += 1
            srcs = fanin_pos[idx]
            if op == OP_AND or op == OP_NAND:
                acc = mask
                for s in srcs:
                    acc &= values[s]
                values[idx] = acc if op == OP_AND else ~acc & mask
            elif op == OP_OR or op == OP_NOR:
                acc = 0
                for s in srcs:
                    acc |= values[s]
                values[idx] = acc if op == OP_OR else ~acc & mask
            elif op == OP_BUF:
                values[idx] = values[srcs[0]]
            elif op == OP_NOT:
                values[idx] = ~values[srcs[0]] & mask
            elif op == OP_XOR or op == OP_XNOR:
                acc = 0
                for s in srcs:
                    acc ^= values[s]
                values[idx] = acc if op == OP_XOR else ~acc & mask
            elif op == OP_CONST0:
                values[idx] = 0
            else:  # OP_CONST1
                values[idx] = mask
        return values, evals

    def _eval_one(self, idx: int, ins: Sequence[int], mask: int) -> int:
        """Evaluate one gate over explicit fanin words (fault path) --
        straight through the shared opcode table."""
        return eval_op_word(self.ops[idx], ins, mask)

    # ------------------------ event-driven faults ---------------------- #

    def fault_diffs(
        self, fault, good_words: Sequence[int], width: int
    ) -> Dict[int, int]:
        """Event-driven faulty simulation: sparse position -> faulty word.

        Injects the stuck value at the fault site and propagates only
        through the fanout cone in topological order, cutting a branch
        off the moment its good/faulty difference word goes to zero.
        Only differing gates appear in the result; everything else holds
        its good value.  ``fault`` is an :class:`repro.atpg.Fault`
        (``kind`` ``"conn"`` or ``"stem"``) -- duck-typed to avoid a
        sim -> atpg import cycle.
        """
        self._ensure_fresh()
        mask = (1 << width) - 1
        stuck = mask if fault.value else 0
        if fault.kind == "conn":
            seed, pin = self.conn_pin[fault.site]
            ins = [good_words[s] for s in self.fanin_pos[seed]]
            ins[pin] = stuck
            word = self._eval_one(seed, ins, mask)
            count("gate_evals_faulty")
        else:
            seed = self.pos[fault.site]
            word = stuck
        if word == good_words[seed]:
            count("cone_cutoffs")
            return {}
        return self._propagate(seed, word, good_words, mask)

    def _propagate(
        self, seed: int, word: int, good_words: Sequence[int], mask: int
    ) -> Dict[int, int]:
        """Propagate faulty ``word`` at position ``seed`` (which must
        differ from its good word) through the fanout cone in
        topological order; sparse position -> faulty word, seed
        included."""
        diffs: Dict[int, int] = {seed: word}
        heap = list(self.fanout_pos[seed])
        heapq.heapify(heap)
        queued = set(heap)
        fanin_pos = self.fanin_pos
        fanout_pos = self.fanout_pos
        evals = 0
        cutoffs = 0
        while heap:
            p = heapq.heappop(heap)
            queued.discard(p)
            ins = [diffs.get(s, good_words[s]) for s in fanin_pos[p]]
            word = self._eval_one(p, ins, mask)
            evals += 1
            if word == good_words[p]:
                cutoffs += 1
                continue
            diffs[p] = word
            for q in fanout_pos[p]:
                if q not in queued:
                    queued.add(q)
                    heapq.heappush(heap, q)
        count("gate_evals_faulty", evals)
        count("cone_cutoffs", cutoffs)
        return diffs

    def detecting_word(
        self, fault, good_words: Sequence[int], width: int
    ) -> int:
        """Bitmask of patterns under which ``fault`` is visible at any
        primary output (bit i = pattern i) -- the event-driven
        equivalent of ``atpg.faultsim.detecting_patterns``."""
        diffs = self.fault_diffs(fault, good_words, width)
        if not diffs:
            return 0
        word = 0
        for p in self._po_pos_set.intersection(diffs):
            word |= diffs[p] ^ good_words[p]
        return word

    def detecting_words(
        self, faults: Sequence, good_words: Sequence[int], width: int
    ) -> List[int]:
        """:meth:`detecting_word` of every fault, bit for bit, from one
        propagation per fanout-free region
        (:func:`region_detecting_words`)."""
        self._ensure_fresh()
        return region_detecting_words(self, faults, good_words, width)

    def simulate_fault(
        self,
        fault,
        packed_inputs: Mapping[int, int],
        width: int,
        good_words: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Full faulty-value map, bit-identical to
        ``simulate_fault_packed``: the good values overlaid with the
        fault's cone diffs.  Pass precomputed ``good_words`` to reuse
        one good simulation across a whole fault list."""
        if good_words is None:
            good_words = self.evaluate_words(packed_inputs, width)
        diffs = self.fault_diffs(fault, good_words, width)
        return {
            gid: diffs.get(i, good_words[i])
            for i, gid in enumerate(self.order)
        }

    def note_dropped(self, dropped: int) -> None:
        """Record ``dropped`` faults dropped from an active list after
        detection (the fault simulator's drop-on-detect accounting)."""
        count("faults_dropped", dropped)

    def __repr__(self) -> str:
        return (
            f"<CompiledCircuit {self.circuit.name!r}: "
            f"{len(self.order)} positions, "
            f"v{self.version}{' STALE' if self.stale else ''}>"
        )


# ---------------------------------------------------------------------- #
# the zero-copy arena view
# ---------------------------------------------------------------------- #

class ArenaCompiledCircuit:
    """Zero-copy simulation view of a :class:`repro.net.arena.NetArena`.

    Duck-type compatible with :class:`CompiledCircuit` for every
    consumer (fault simulation, diagnosis, compaction, the timing
    prefilter), but there is no compiled artifact to rebuild: *positions
    are arena slots*.  Opcodes, fanin connections, and the maintained
    topological order are read live from the arena's parallel arrays at
    evaluation time, so circuit mutations never invalidate this view --
    the arena's hooks already updated the arrays in place.

    Staleness points where the legacy kernel would have recompiled its
    schedule from the object graph instead bump the arena's
    ``compile_rebuilds_avoided`` counter (tracked against
    :attr:`Circuit.version`, exactly the legacy staleness condition, so
    the avoided count is comparable to the legacy run's
    ``compile_rebuilds``).

    Bit-identity with the legacy kernel: values are keyed by gid and
    per-gate, and both views evaluate every gate after all its fanins
    (any valid topological order), so every returned word, every
    detecting mask, and every work counter except the rebuilds pair is
    identical.
    """

    def __init__(self, circuit: Circuit, arena) -> None:
        self.circuit = circuit
        self.arena = arena
        #: object-graph version at last staleness check -- the legacy
        #: kernel's recompile trigger, reused for avoided accounting.
        self.version = circuit.version

    # ------------------------- staleness protocol ---------------------- #

    @property
    def stale(self) -> bool:
        """A live view is never stale (the hooks keep it fresh)."""
        return False

    def _note_avoided(self) -> None:
        count("compile_rebuilds_avoided")
        self.version = self.circuit.version

    def _ensure_fresh(self) -> None:
        if self.version != self.circuit.version:
            self._note_avoided()

    # ----------------------------- queries ---------------------------- #

    @property
    def pos(self) -> Dict[int, int]:
        """gid -> position; a position is the arena slot (live map)."""
        return self.arena.slot_of

    @property
    def order(self) -> List[int]:
        """position -> gid, ``-1`` at dead slots (live array)."""
        return self.arena.gid_of

    def num_eval_gates(self) -> int:
        """Gates one full-circuit evaluation costs (non-PI gates)."""
        return self.arena.n_eval_gates

    def words_from_values(self, values: Mapping[int, int]) -> List[int]:
        """Slot-positional word list from a gid-keyed value map."""
        arena = self.arena
        words = [0] * len(arena.alive)
        for slot in arena.live_slots():
            words[slot] = values[arena.gid_of[slot]]
        return words

    # --------------------------- good evaluation ----------------------- #

    def evaluate(
        self,
        packed_inputs: Mapping[int, int],
        width: int,
        overrides: Optional[Mapping[int, int]] = None,
    ) -> Dict[int, int]:
        """Drop-in, bit-identical replacement for ``simulate_packed``."""
        words = self.evaluate_words(packed_inputs, width, overrides)
        arena = self.arena
        return {
            arena.gid_of[slot]: words[slot] for slot in arena.live_slots()
        }

    def evaluate_words(
        self,
        packed_inputs: Mapping[int, int],
        width: int,
        overrides: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Like :meth:`evaluate` but positional (index = arena slot)."""
        self._ensure_fresh()
        mask = (1 << width) - 1
        over: Dict[int, int] = {}
        if overrides:
            slot_of = self.arena.slot_of
            over = {slot_of[g]: v & mask for g, v in overrides.items()}
        values, evals = self._evaluate(packed_inputs, mask, over)
        count("gate_evals_good", evals)
        return values

    def _evaluate(
        self,
        packed_inputs: Mapping[int, int],
        mask: int,
        over: Dict[int, int],
    ) -> Tuple[List[int], int]:
        arena = self.arena
        evalop = arena.evalop
        fanin = arena.fanin
        csrc = arena.csrc
        gid_of = arena.gid_of
        values = [0] * len(arena.alive)
        evals = 0
        for slot in arena.sched_order:
            if slot == -1:
                continue
            if slot in over:
                values[slot] = over[slot]
                continue
            op = evalop[slot]
            if op == OP_INPUT:
                values[slot] = packed_inputs.get(gid_of[slot], 0) & mask
                continue
            evals += 1
            srcs = [csrc[c] for c in fanin[slot]]
            if op == OP_AND or op == OP_NAND:
                acc = mask
                for s in srcs:
                    acc &= values[s]
                values[slot] = acc if op == OP_AND else ~acc & mask
            elif op == OP_OR or op == OP_NOR:
                acc = 0
                for s in srcs:
                    acc |= values[s]
                values[slot] = acc if op == OP_OR else ~acc & mask
            elif op == OP_BUF:
                values[slot] = values[srcs[0]]
            elif op == OP_NOT:
                values[slot] = ~values[srcs[0]] & mask
            elif op == OP_XOR or op == OP_XNOR:
                acc = 0
                for s in srcs:
                    acc ^= values[s]
                values[slot] = acc if op == OP_XOR else ~acc & mask
            elif op == OP_CONST0:
                values[slot] = 0
            else:  # OP_CONST1
                values[slot] = mask
        return values, evals

    def _eval_one(self, slot: int, ins: Sequence[int], mask: int) -> int:
        """Evaluate one gate over explicit fanin words (fault path) --
        straight through the shared opcode table."""
        return eval_op_word(self.arena.evalop[slot], ins, mask)

    # ------------------------ event-driven faults ---------------------- #

    def fault_diffs(
        self, fault, good_words: Sequence[int], width: int
    ) -> Dict[int, int]:
        """Event-driven faulty simulation: sparse slot -> faulty word.

        Same algorithm as :meth:`CompiledCircuit.fault_diffs`, but the
        propagation frontier is ordered by the arena's maintained
        ``rank`` (slots are not themselves topological)."""
        self._ensure_fresh()
        arena = self.arena
        mask = (1 << width) - 1
        stuck = mask if fault.value else 0
        if fault.kind == "conn":
            c = arena.cslot_of[fault.site]
            seed = arena.cdst[c]
            pin = arena.cpin[c]
            ins = [good_words[arena.csrc[cc]] for cc in arena.fanin[seed]]
            ins[pin] = stuck
            word = self._eval_one(seed, ins, mask)
            count("gate_evals_faulty")
        else:
            seed = arena.slot_of[fault.site]
            word = stuck
        if word == good_words[seed]:
            count("cone_cutoffs")
            return {}
        return self._propagate(seed, word, good_words, mask)

    def _propagate(
        self, seed: int, word: int, good_words: Sequence[int], mask: int
    ) -> Dict[int, int]:
        """:meth:`CompiledCircuit._propagate` over arena slots, the
        frontier ordered by the arena's maintained ``rank``."""
        arena = self.arena
        diffs: Dict[int, int] = {seed: word}
        rank = arena.rank
        cdst = arena.cdst
        fanin = arena.fanin
        fanout = arena.fanout
        csrc = arena.csrc
        heap: List[Tuple[int, int]] = []
        queued = set()
        for c in fanout[seed]:
            dst = cdst[c]
            if dst not in queued:
                queued.add(dst)
                heapq.heappush(heap, (rank[dst], dst))
        evals = 0
        cutoffs = 0
        while heap:
            _, p = heapq.heappop(heap)
            queued.discard(p)
            ins = [
                diffs.get(s, good_words[s])
                for s in (csrc[c] for c in fanin[p])
            ]
            word = self._eval_one(p, ins, mask)
            evals += 1
            if word == good_words[p]:
                cutoffs += 1
                continue
            diffs[p] = word
            for c in fanout[p]:
                q = cdst[c]
                if q not in queued:
                    queued.add(q)
                    heapq.heappush(heap, (rank[q], q))
        count("gate_evals_faulty", evals)
        count("cone_cutoffs", cutoffs)
        return diffs

    def detecting_word(
        self, fault, good_words: Sequence[int], width: int
    ) -> int:
        """Bitmask of patterns under which ``fault`` is visible at any
        primary output (bit i = pattern i)."""
        diffs = self.fault_diffs(fault, good_words, width)
        if not diffs:
            return 0
        word = 0
        for p in set(self.arena.po_slots).intersection(diffs):
            word |= diffs[p] ^ good_words[p]
        return word

    def detecting_words(
        self, faults: Sequence, good_words: Sequence[int], width: int
    ) -> List[int]:
        """:meth:`detecting_word` of every fault, bit for bit, from one
        propagation per fanout-free region
        (:func:`region_detecting_words`)."""
        self._ensure_fresh()
        return region_detecting_words(self, faults, good_words, width)

    def simulate_fault(
        self,
        fault,
        packed_inputs: Mapping[int, int],
        width: int,
        good_words: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Full faulty-value map keyed by gid, bit-identical to
        ``simulate_fault_packed``."""
        if good_words is None:
            good_words = self.evaluate_words(packed_inputs, width)
        diffs = self.fault_diffs(fault, good_words, width)
        arena = self.arena
        return {
            arena.gid_of[slot]: diffs.get(slot, good_words[slot])
            for slot in arena.live_slots()
        }

    def note_dropped(self, dropped: int) -> None:
        """Record faults dropped from an active list after detection."""
        count("faults_dropped", dropped)

    def __repr__(self) -> str:
        return (
            f"<ArenaCompiledCircuit {self.circuit.name!r}: "
            f"{len(self.arena.alive)} slots "
            f"({self.arena.n_live_gates} live), arena-backed>"
        )


# ---------------------------------------------------------------------- #
# fanout-free-region grading
# ---------------------------------------------------------------------- #

_AND_LIKE = (GateType.AND, GateType.NAND)
_OR_LIKE = (GateType.OR, GateType.NOR)


def region_detecting_words(
    kern, faults: Sequence, good_words: Sequence[int], width: int
) -> List[int]:
    """``[kern.detecting_word(f, good_words, width) for f in faults]``,
    bit for bit, from one propagation per fanout-free region.

    Critical path tracing confined to fanout-free regions (Abramovici,
    Menon and Miller, IEEE D&T 1984).  A gate is a region *stem* when
    its fanout is not exactly one connection, or when it is an OUTPUT
    marker; every other gate has exactly one path to its stem, and no
    side input of that path depends on it.  So a fault effect reaches
    the stem in exactly the lanes of the fault's *local word*: its
    excitation (the site's good word differs from the stuck value)
    ANDed with the Boolean difference of every gate on the path with
    respect to the pin the path enters on -- the other pins' good words
    ANDed for AND/NAND, their complements ANDed for OR/NOR, all ones
    for BUF, NOT, XOR, XNOR and OUTPUT.  A connection fault enters its
    destination's pin, so it also takes that pin's difference.

    Per stem, the OR of its faults' local words is propagated once
    through the kernel's event-driven ``_propagate``; the OR of the
    resulting output differences is the stem's observability word.
    Lanes are independent, so each fault's detecting word is its local
    word AND its stem's observability.  The stem propagations charge
    ``gate_evals_faulty`` and ``cone_cutoffs`` as ``fault_diffs`` does;
    local words are not gate evaluations.

    Reads only ``kern.circuit``, ``kern.pos`` and ``kern._propagate``,
    so every kernel shares it.
    """
    circuit = kern.circuit
    gates = circuit.gates
    conns = circuit.conns
    pos = kern.pos
    mask = (1 << width) - 1
    # cid -> Boolean difference of its destination w.r.t. its pin
    pin_memo: Dict[int, int] = {}
    # gid -> (its stem gid, local sensitization of its output)
    region: Dict[int, Tuple[int, int]] = {}

    def pin_difference(cid: int) -> int:
        word = pin_memo.get(cid)
        if word is None:
            dst = gates[conns[cid].dst]
            gtype = dst.gtype
            if gtype in _AND_LIKE:
                word = mask
                for other in dst.fanin:
                    if other != cid:
                        word &= good_words[pos[conns[other].src]]
            elif gtype in _OR_LIKE:
                acc = 0
                for other in dst.fanin:
                    if other != cid:
                        acc |= good_words[pos[conns[other].src]]
                word = ~acc & mask
            else:
                word = mask
            pin_memo[cid] = word
        return word

    def to_stem(gid: int) -> Tuple[int, int]:
        path = []
        while gid not in region:
            gate = gates[gid]
            if len(gate.fanout) != 1 or gate.gtype is GateType.OUTPUT:
                region[gid] = (gid, mask)
                break
            path.append(gate)
            gid = conns[gate.fanout[0]].dst
        stem, sens = region[gid]
        for gate in reversed(path):
            sens &= pin_difference(gate.fanout[0])
            region[gate.gid] = (stem, sens)
        return stem, sens

    local: List[Tuple[int, int]] = []
    flips: Dict[int, int] = {}
    for fault in faults:
        stuck = mask if fault.value else 0
        if fault.kind == "conn":
            conn = conns[fault.site]
            word = good_words[pos[conn.src]] ^ stuck
            if word:
                word &= pin_difference(fault.site)
            line = conn.dst
        else:
            word = good_words[pos[fault.site]] ^ stuck
            line = fault.site
        stem = -1
        if word:
            stem, sens = to_stem(line)
            word &= sens
            if word:
                flips[stem] = flips.get(stem, 0) | word
        local.append((word, stem))

    po = {pos[g] for g in circuit.outputs}
    observed: Dict[int, int] = {}
    for stem, flip in flips.items():
        seed = pos[stem]
        diffs = kern._propagate(
            seed, good_words[seed] ^ flip, good_words, mask
        )
        obs = 0
        for p in po.intersection(diffs):
            obs |= diffs[p] ^ good_words[p]
        observed[stem] = obs
    return [word & observed[stem] if word else 0 for word, stem in local]


def get_compiled(circuit: Circuit):
    """The circuit's cached compiled kernel, recompiled when stale.

    The kernel is attached to the circuit object itself (copies start
    clean; ``Circuit.copy`` does not carry it over), so every consumer
    of the same mutating circuit shares one schedule.

    A circuit with an attached :class:`repro.net.arena.NetArena` (only
    :func:`repro.core.kms` attaches one, to the loop's working copy)
    gets the zero-copy :class:`ArenaCompiledCircuit` view instead of a
    rebuilt schedule.  Every other circuit -- the cleanup's copy
    included, and every circuit under ``REPRO_NET_LEGACY=1`` -- gets
    the :class:`CompiledCircuit` path.
    """
    kern = getattr(circuit, "_compiled_kernel", None)
    arena = getattr(circuit, "_arena", None)
    if arena is not None:
        if (
            isinstance(kern, ArenaCompiledCircuit)
            and kern.circuit is circuit
            and kern.arena is arena
        ):
            kern._ensure_fresh()
        else:
            kern = ArenaCompiledCircuit(circuit, arena)
            circuit._compiled_kernel = kern
        return kern
    if (
        kern is None
        or kern.circuit is not circuit
        or isinstance(kern, ArenaCompiledCircuit)
    ):
        kern = CompiledCircuit(circuit)
        circuit._compiled_kernel = kern
    elif kern.stale:
        kern._compile()
    return kern
