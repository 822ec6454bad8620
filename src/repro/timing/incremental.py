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
  question, asked once over the *critical subgraph* (the connections
  that lie on a longest path) instead of once per longest path:

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
     changed since the last one.

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
  every gate at each (re)build, plus each re-encoded gate.

The reach pass answers only "yes", with a witness, and the SAT query is
exact, so the incremental loop takes the same decisions as the per-path
reference ``kms(..., incremental=False)``; the property suite asserts
exactly that.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..counters import count
from ..network import Circuit, GateType
from ..sat import CircuitSolver
from .models import AsBuiltDelayModel, DelayModel
from .sensitize import edge_side_inputs
from .sta import IncrementalSTA, TimingAnnotation, critical_connections
from .viability import settled_before

#: Packed-simulation width: one machine word of random patterns.
PREFILTER_WIDTH = 64

#: critical connection -> its (source gid, required value) side-input
#: constraints under the context's mode.
CriticalEdges = Dict[int, List[Tuple[int, int]]]


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
        self.sta.refresh()
        self._annotation = None

    # ------------------------------------------------------------------ #
    # the loop test: reach pass, then one SAT solve
    # ------------------------------------------------------------------ #

    def check_path(self) -> bool:
        """Is some longest path statically sensitizable (static mode) /
        viable (viability mode)?

        The SAT query adds, to the Tseitin encoding, a selection
        variable ``s_c`` per critical connection ``c`` with

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
        for the context's lifetime: it is synced to the circuit before
        each solve, and these clauses form one query, retired after it.
        """
        circuit = self.circuit
        edges = self._critical_edges()
        into: Dict[int, List[int]] = {}  # gid -> its critical in-edges
        for cid in edges:
            into.setdefault(circuit.conns[cid].dst, []).append(cid)
        if self._reach(edges, into):
            count("viability_checks_prefiltered")
            return True
        count("viability_checks_exact")
        if self._solver is None:
            self._solver = CircuitSolver()
        loop = self._solver
        loop.sync(circuit)
        var = loop.var
        cnf = loop.query()
        select = {cid: cnf.new_var() for cid in edges}
        roots = []
        for cid, sides in edges.items():
            conn = circuit.conns[cid]
            s = select[cid]
            if circuit.gates[conn.src].gtype is not GateType.INPUT:
                cnf.add_clause(
                    [-s] + [select[c] for c in into.get(conn.src, ())]
                )
            if circuit.gates[conn.dst].gtype is GateType.OUTPUT:
                roots.append(s)
            for src, value in sides:
                cnf.add_clause([-s, var[src] if value else -var[src]])
        cnf.add_clause(roots)
        return loop.solve()

    def _critical_edges(self) -> CriticalEdges:
        """Critical connections with their side-input constraints.

        In viability mode only the early side inputs are constrained:
        those settled before the event arrives along ``c``.  On a
        critical connection that event time is ``arrival(src(c)) +
        d(c)``, so the early set depends on the connection alone.
        """
        circuit, model = self.circuit, self.model
        ann = self.annotation()
        viability = self.mode == "viability"
        edges: CriticalEdges = {}
        for cid in critical_connections(circuit, model, ann):
            tau = ann.arrival[circuit.conns[cid].src] + model.conn_delay(
                circuit, cid
            )
            edges[cid] = [
                (circuit.conns[si.cid].src, si.value)
                for si in edge_side_inputs(circuit, cid)
                if not viability
                or settled_before(circuit, model, ann, si.cid, tau)
            ]
        return edges

    def _reach(
        self, edges: CriticalEdges, into: Dict[int, List[int]]
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
