"""Incremental timing context for the KMS loop.

The Fig. 3 while-loop perturbs a small region per iteration (a
duplicated chain plus a constant-propagation cone) yet the reference
implementation recomputes every timing quantity from scratch each time.
Following Teslenko & Dubrova's observation that restricting recomputation
to the affected region is where the speed comes from, this module bundles
what the loop needs:

* **dirty-cone STA** -- an :class:`~repro.timing.sta.IncrementalSTA`
  reading the gates the circuit's mutation primitives recorded
  (:meth:`~repro.network.circuit.Circuit.record_touched`), re-relaxing
  arrival times and ``dist_to_po`` only in the transitive fanout/fanin
  of mutated gates;
* **one question per loop test** -- the loop condition "all longest
  paths are not statically sensitizable/viable" is one existential
  question, asked once over the *critical map* (each connection that
  lies on a longest path, with its side-input constraints) instead of
  once per longest path.  The map is kept across tests: within one
  delay only the connections around the edited and re-timed gates are
  re-derived.

  1. a **reach pass** over the iteration's 64 packed random patterns
     walks the critical connections in topological order with
     ``reach(dst) |= reach(src) & sideok(c)``; a pattern that reaches an
     OUTPUT marker sensitizes a whole longest path, so it *is* a
     witness and no SAT work is done;
  2. otherwise **one SAT solve** over the circuit's Tseitin encoding
     plus one selection variable per critical connection (see
     :meth:`IncrementalTiming.check_path`), on one
     :class:`~repro.sat.CircuitSolver` that lives for the whole run:
     each solve re-encodes only the gates whose type or fanin sources
     changed since the last one, and the selection definitions whose
     in-edges or constraints changed.

Counter semantics (all deterministic; counted in
:mod:`repro.counters`, so they reach
:class:`repro.core.kms.KmsResult` counters and engine telemetry):

* ``arrival_relaxations`` / ``dist_relaxations`` -- per-gate STA
  recomputations (a full :func:`~repro.timing.sta.analyze` costs one per
  gate per direction);
* ``viability_checks_prefiltered`` -- loop tests the reach pass
  answered;
* ``viability_checks_exact`` -- loop tests answered by the SAT solve;
* ``loop_gate_encodings`` -- gate definitions the loop solver encoded:
  every gate at each (re)build, plus each re-encoded gate;
* ``loop_select_encodings`` -- selection definitions the loop solver
  encoded: every critical connection at each (re)build, plus each one
  whose in-edges or constraints changed.

The reach pass answers only "yes", with a witness, and the SAT query is
exact, so the incremental loop takes the same decisions as the per-path
reference ``kms(..., incremental=False)``; the property suite asserts
exactly that.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set, Tuple

from ..counters import count
from ..network import Circuit, GateType
from ..sat import CircuitSolver
from .models import AsBuiltDelayModel, DelayModel
from .sensitize import edge_side_inputs
from .sta import IncrementalSTA, TimingAnnotation, is_critical
from .viability import settled_before

#: Packed-simulation width: one machine word of random patterns.
PREFILTER_WIDTH = 64

#: critical connection -> its (source gid, required value) side-input
#: constraints under the context's mode.
CriticalEdges = Dict[int, Tuple[Tuple[int, int], ...]]


class IncrementalTiming:
    """The incremental KMS loop's timing engine.

    One instance lives for a whole :func:`repro.core.kms.kms` run over
    the mutating working circuit.  Per iteration the loop calls
    :meth:`begin_iteration` (fresh packed patterns), reads
    :meth:`annotation`, asks :meth:`check_path` whether some longest
    path qualifies, and after the structural edits calls :meth:`refresh`,
    which re-relaxes from the gates the circuit recorded since the last
    one.
    """

    def __init__(
        self,
        circuit: Circuit,
        model: Optional[DelayModel] = None,
        mode: str = "static",
        seed: int = 0,
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else AsBuiltDelayModel()
        self.mode = mode
        self.seed = seed
        self.sta = IncrementalSTA(circuit, self.model)
        self._iteration = 0
        self._sim: Optional[Dict[int, int]] = None
        self._annotation: Optional[TimingAnnotation] = None
        self._solver: Optional[CircuitSolver] = None
        #: the critical map as of the last loop test (see
        #: :meth:`check_path`), kept across tests.
        self.critical: CriticalEdges = {}
        # gid -> its critical in-edges, in fanin order
        self._into: Dict[int, Tuple[int, ...]] = {}
        # the delay the map was derived at; None: derive from scratch
        self._critical_delay: Optional[float] = None
        # the gates edited, and those re-timed, since the map was derived
        self._touched = circuit.record_touched()
        self._moved: Set[int] = set()

    # ------------------------------------------------------------------ #
    # per-iteration lifecycle
    # ------------------------------------------------------------------ #

    def begin_iteration(self) -> None:
        """Start one Fig. 3 iteration: fresh packed patterns.

        The simulation routes through the compiled kernel
        (:mod:`repro.sim.kernel`) -- the schedule is compiled once and
        recompiled only after the circuit version moved.
        """
        rng = random.Random((self.seed << 20) ^ self._iteration)
        from ..sim import get_compiled, random_packed_inputs

        packed = random_packed_inputs(self.circuit, PREFILTER_WIDTH, rng)
        self._sim = get_compiled(self.circuit).evaluate(
            packed, PREFILTER_WIDTH
        )
        self._annotation = None
        self._iteration += 1

    def annotation(self) -> TimingAnnotation:
        """The current iteration's timing annotation (cached per
        iteration; bit-identical to a from-scratch ``analyze``)."""
        if self._annotation is None:
            self._annotation = self.sta.annotation()
        return self._annotation

    def refresh(self) -> None:
        """Re-relax timing in the dirty cone of the gates edited since
        the last refresh."""
        self._moved |= self.sta.refresh()
        self._annotation = None

    # ------------------------------------------------------------------ #
    # the loop test: reach pass, then one SAT solve
    # ------------------------------------------------------------------ #

    def check_path(self) -> bool:
        """Is some longest path statically sensitizable (static mode) /
        viable (viability mode)?

        The question is asked over the critical map :attr:`critical`,
        brought up to date first (:meth:`_update_critical`).  The SAT
        query adds, to the Tseitin encoding, a selection variable
        ``s_c`` per critical connection ``c`` with

        * ``s_c -> OR(s_c' over src(c)'s critical in-edges)`` when
          ``src(c)`` is not a PI;
        * ``OR(s_c over critical connections into OUTPUT markers)``;
        * ``s_c ->`` every constrained side input of ``dst(c)`` at its
          noncontrolling value.

        A model's selected connections contain a PI-to-PO chain of
        critical connections -- a longest path -- with every constrained
        side input noncontrolling, and any qualifying path gives a
        model, so SAT means some longest path qualifies.  Before the
        first :meth:`begin_iteration` there are no patterns, and the
        SAT solve answers alone.

        The encoding lives on one :class:`~repro.sat.CircuitSolver`
        for the context's lifetime: synced to the circuit and the map
        before each solve, it keeps the gate and selection definitions,
        so a query is only the root clause, retired after the solve.
        """
        circuit = self.circuit
        self._update_critical()
        edges, into = self.critical, self._into
        if self._reach(edges, into):
            count("viability_checks_prefiltered")
            return True
        count("viability_checks_exact")
        if self._solver is None:
            self._solver = CircuitSolver(circuit)
        loop = self._solver
        loop.sync(edges, into)
        select = loop.select
        loop.query().add_clause(
            [select[c] for out in circuit.outputs for c in into.get(out, ())]
        )
        return loop.solve()

    def _update_critical(self) -> None:
        """Bring the critical map up to the current annotation.

        The map is derived from scratch on the first test and whenever
        the delay moved.  Otherwise only the fanin connections of three
        kinds of gate are re-derived: the gates edited since, the gates
        whose arrival or ``dist_to_po`` changed, and the gates those
        feed.  A connection's entry reads nothing else: its source's
        arrival, its own delay, its sink's type, delay, fanin and
        ``dist_to_po``, and in viability mode its side sources'
        arrivals and side delays.
        """
        circuit = self.circuit
        ann = self.annotation()
        gates, conns = circuit.gates, circuit.conns
        if ann.delay != self._critical_delay:
            self._critical_delay = ann.delay
            self.critical.clear()
            self._into.clear()
            dirty = list(gates)
        else:
            fed = {
                conns[cid].dst
                for gid in self._moved
                if gid in gates
                for cid in gates[gid].fanout
            }
            dirty = sorted(self._touched | self._moved | fed)
        self._touched.clear()
        self._moved.clear()
        for gid in dirty:
            self._derive(gid, ann)

    def _derive(self, gid: int, ann: TimingAnnotation) -> None:
        """Re-derive the map entries of gate ``gid``'s fanin connections.

        In viability mode only the early side inputs are constrained:
        those settled before the event arrives along ``c``.  On a
        critical connection that event time is ``arrival(src(c)) +
        d(c)``, so the early set depends on the connection alone.
        """
        circuit, model, edges = self.circuit, self.model, self.critical
        for cid in self._into.pop(gid, ()):
            del edges[cid]
        gate = circuit.gates.get(gid)
        if gate is None:
            return
        viability = self.mode == "viability"
        into = []
        for cid in gate.fanin:
            if not is_critical(circuit, model, ann, cid):
                continue
            tau = ann.arrival[circuit.conns[cid].src] + model.conn_delay(
                circuit, cid
            )
            edges[cid] = tuple(
                [
                    (circuit.conns[si.cid].src, si.value)
                    for si in edge_side_inputs(circuit, cid)
                    if not viability
                    or settled_before(circuit, model, ann, si.cid, tau)
                ]
            )
            into.append(cid)
        if into:
            self._into[gid] = tuple(into)

    def _reach(
        self, edges: CriticalEdges, into: Dict[int, Tuple[int, ...]]
    ) -> bool:
        """Does one of the packed patterns sensitize a longest path?"""
        circuit, sim = self.circuit, self._sim
        if sim is None:
            return False
        mask = (1 << PREFILTER_WIDTH) - 1
        reach = dict.fromkeys(circuit.inputs, mask)
        for gid in circuit.topological_order():
            cids = into.get(gid)
            if cids is None:
                continue
            word = 0
            for cid in cids:
                lanes = reach.get(circuit.conns[cid].src, 0)
                for src, value in edges[cid]:
                    if not lanes:
                        break
                    lanes &= sim[src] if value else mask ^ sim[src]
                word |= lanes
            if word and circuit.gates[gid].gtype is GateType.OUTPUT:
                return True
            reach[gid] = word
        return False
