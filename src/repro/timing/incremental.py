"""Incremental timing context for the KMS loop.

The Fig. 3 while-loop perturbs a small region per iteration (a
duplicated chain plus a constant-propagation cone) yet the reference
implementation recomputes every timing quantity from scratch each time.
Following Teslenko & Dubrova's observation that restricting recomputation
to the affected region is where the speed comes from, this module bundles
the three incremental facilities the loop needs:

* **dirty-cone STA** -- an :class:`~repro.timing.sta.IncrementalSTA`
  consuming the touched-gate sets returned by the transforms in
  :mod:`repro.network.transform`, re-relaxing arrival times and
  longest-path counts only in the transitive fanout/fanin of mutated
  gates;
* **bit-parallel witness prefilter** -- once per iteration, 64 random
  patterns are simulated in one packed word per gate
  (:func:`repro.sim.parallel.simulate_packed`); any pattern that puts
  every constrained side-input at its noncontrolling value *is* a
  sensitization/viability witness, so the exact SAT cube computation is
  skipped entirely for that path;
* **cube memoization** -- exact verdicts are cached keyed by the content
  fingerprints (:mod:`repro.engine.hashing`) of the constrained signals.
  Fingerprints are canonical over the signal's whole fanin cone *and* the
  PI interface positions, so equal keys mean the same SAT question: cones
  untouched by an iteration reuse their cubes across iterations for free.

Counter semantics (all deterministic; exported via
:class:`repro.core.kms.KmsResult` counters and engine telemetry):

* ``arrival_relaxations`` / ``dist_relaxations`` -- per-gate STA
  recomputations (a full :func:`~repro.timing.sta.analyze` costs one per
  gate per direction);
* ``viability_checks_prefiltered`` -- path checks resolved by the packed
  simulation witness alone;
* ``cube_cache_hits`` -- path checks resolved from the fingerprint-keyed
  cube cache;
* ``viability_checks_exact`` -- path checks that fell through to a SAT
  solve.

The prefilter and cache decide the same booleans SAT would (the witness
is sound, and a fingerprint-equal constraint set is the same question),
so the incremental loop takes bit-identical decisions to the full
recompute -- the A/B oracle ``kms(..., incremental=False)`` and the
property suite assert exactly that.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..network import Circuit
from ..sat import CircuitEncoder, Solver
from .models import AsBuiltDelayModel, DelayModel
from .paths import Path
from .sensitize import side_inputs
from .sta import IncrementalSTA, TimingAnnotation
from .viability import early_side_inputs

#: Packed-simulation width: one machine word of random patterns.
PREFILTER_WIDTH = 64

#: Constraint list: (source gid, required settled value) pairs.
Constraints = List[Tuple[int, int]]


class _ExactOracle:
    """One Tseitin encoding + solver for the current circuit state.

    Both static sensitization and viability reduce to the same question:
    *is there an input assignment under which each constrained signal
    settles to its required value?*  Encoded once per KMS iteration,
    solved under assumptions per path -- the same query the
    :class:`~repro.timing.sensitize.SensitizationChecker` and
    :class:`~repro.timing.viability.ViabilityChecker` issue.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        encoder = CircuitEncoder()
        self.var = encoder.encode(circuit)
        self.solver = Solver(encoder.cnf)

    def solve(self, constraints: Constraints) -> Optional[Dict[int, int]]:
        lits = [
            self.var[src] if value else -self.var[src]
            for src, value in constraints
        ]
        if self.solver.solve(lits):
            model = self.solver.model()
            return {
                gid: int(model.get(self.var[gid], False))
                for gid in self.circuit.inputs
            }
        return None


class IncrementalTiming:
    """The incremental KMS loop's timing engine.

    One instance lives for a whole :func:`repro.core.kms.kms` run over
    the mutating working circuit.  Per iteration the loop calls
    :meth:`begin_iteration` (refreshing the packed simulation and the
    lazily built SAT oracle), reads :meth:`annotation`, tests candidate
    paths with :meth:`check_path`, and after the structural edits calls
    :meth:`refresh` with the union of the transforms' touched-gate sets.
    """

    def __init__(
        self,
        circuit: Circuit,
        model: Optional[DelayModel] = None,
        mode: str = "static",
        seed: int = 0,
    ) -> None:
        from ..engine.hashing import gate_fingerprints

        self.circuit = circuit
        self.model = model if model is not None else AsBuiltDelayModel()
        self.mode = mode
        self.seed = seed
        self.sta = IncrementalSTA(circuit, self.model)
        #: with an attached arena the fingerprint cache lives in the
        #: arena (hook-driven dirty tracking, same digests); otherwise
        #: this context maintains its own gid-keyed dict.
        self._arena = getattr(circuit, "_arena", None)
        self._fps: Optional[Dict[int, str]] = (
            None if self._arena is not None else gate_fingerprints(circuit)
        )
        #: cache key -> (verdict, cube by PI position or None)
        self.cube_cache: Dict[tuple, Optional[Dict[int, int]]] = {}
        self.viability_checks_exact = 0
        self.viability_checks_prefiltered = 0
        self.cube_cache_hits = 0
        self._iteration = 0
        self._sim: Optional[Dict[int, int]] = None
        self._oracle: Optional[_ExactOracle] = None
        self._annotation: Optional[TimingAnnotation] = None

    @property
    def fingerprints(self) -> Dict[int, str]:
        """Current gid-keyed content fingerprints (arena-maintained when
        the circuit carries one, else this context's own cache)."""
        if self._arena is not None:
            return self._arena.gate_fps()
        assert self._fps is not None
        return self._fps

    # ------------------------------------------------------------------ #
    # per-iteration lifecycle
    # ------------------------------------------------------------------ #

    def begin_iteration(self) -> None:
        """Start one Fig. 3 iteration: fresh packed patterns, lazy oracle.

        The witness simulation routes through the compiled kernel
        (:mod:`repro.sim.kernel`) -- the schedule is compiled once and
        recompiled only when :meth:`refresh` reports structural edits.
        """
        rng = random.Random((self.seed << 20) ^ self._iteration)
        from ..sim import get_compiled, random_packed_inputs

        packed = random_packed_inputs(self.circuit, PREFILTER_WIDTH, rng)
        self._sim = get_compiled(self.circuit).evaluate(
            packed, PREFILTER_WIDTH
        )
        self._oracle = None
        self._annotation = None
        self._iteration += 1

    def annotation(self) -> TimingAnnotation:
        """The current iteration's timing annotation (cached per
        iteration; bit-identical to a from-scratch ``analyze``)."""
        if self._annotation is None:
            self._annotation = self.sta.annotation()
        return self._annotation

    def refresh(self, touched) -> None:
        """Re-relax timing and re-hash fingerprints in the dirty cone."""
        from ..sim import refresh_compiled

        self.sta.refresh(touched)
        self._update_fingerprints(touched)
        refresh_compiled(self.circuit, touched)
        self._annotation = None

    # ------------------------------------------------------------------ #
    # path checking: prefilter -> cube cache -> exact SAT
    # ------------------------------------------------------------------ #

    def path_constraints(self, path: Path) -> Constraints:
        """The (source gid, required value) constraint set of a path
        under the context's mode."""
        if self.mode == "viability":
            triples = early_side_inputs(
                self.circuit, self.model, self.annotation(), path
            )
        else:
            triples = [
                (si.cid, si.gate, si.value)
                for si in side_inputs(self.circuit, path)
            ]
        conns = self.circuit.conns
        return [(conns[cid].src, value) for cid, _gid, value in triples]

    def check_path(self, path: Path) -> bool:
        """Is the path statically sensitizable (static mode) / viable
        (viability mode)?  Same verdict the exact checkers give."""
        constraints = self.path_constraints(path)
        if self._witness_bits(constraints):
            self.viability_checks_prefiltered += 1
            return True
        key = self._cache_key(constraints)
        if key in self.cube_cache:
            self.cube_cache_hits += 1
            return self.cube_cache[key] is not None
        if self._oracle is None:
            self._oracle = _ExactOracle(self.circuit)
        cube = self._oracle.solve(constraints)
        self.viability_checks_exact += 1
        self.cube_cache[key] = self._cube_by_position(cube)
        return cube is not None

    def witness_cube(self, path: Path) -> Optional[Dict[int, int]]:
        """A witness PI cube for a path the prefilter can resolve, else
        None (diagnostic/test hook; ``check_path`` is the loop entry)."""
        constraints = self.path_constraints(path)
        word = self._witness_bits(constraints)
        if not word:
            return None
        bit = (word & -word).bit_length() - 1
        assert self._sim is not None
        return {
            gid: (self._sim[gid] >> bit) & 1 for gid in self.circuit.inputs
        }

    def _witness_bits(self, constraints: Constraints) -> int:
        """Packed word of patterns satisfying every constraint."""
        if self._sim is None:
            return 0
        mask = (1 << PREFILTER_WIDTH) - 1
        word = mask
        for src, value in constraints:
            bits = self._sim[src]
            word &= bits if value else ~bits & mask
            if not word:
                return 0
        return word

    def _cache_key(self, constraints: Constraints) -> tuple:
        fps = self.fingerprints
        return (
            self.mode,
            tuple(sorted((fps[src], value) for src, value in constraints)),
        )

    def _cube_by_position(
        self, cube: Optional[Dict[int, int]]
    ) -> Optional[Dict[int, int]]:
        """Store cubes by PI *position* so a cached entry survives gid
        renumbering (fingerprints canonicalize over positions too)."""
        if cube is None:
            return None
        return {
            i: cube.get(gid, 0)
            for i, gid in enumerate(self.circuit.inputs)
        }

    # ------------------------------------------------------------------ #
    # fingerprint maintenance
    # ------------------------------------------------------------------ #

    def _update_fingerprints(self, touched) -> None:
        """Re-hash the transitive fanout of touched gates, early-cutoff
        on unchanged digests (a gate's fingerprint covers exactly its
        fanin cone, so nothing upstream can have moved).

        With an attached arena this is a no-op: the mutation hooks
        already recorded the dirty gids, and :meth:`fingerprints`
        re-hashes the dirty cone lazily inside the arena."""
        if self._arena is not None:
            return
        import heapq

        from ..engine.hashing import gate_fingerprint

        circuit = self.circuit
        fps = self.fingerprints
        for gid in [g for g in fps if g not in circuit.gates]:
            del fps[gid]
        dirty = {g for g in touched if g in circuit.gates}
        if not dirty:
            return
        pi_index = {gid: i for i, gid in enumerate(circuit.inputs)}
        po_index = {gid: i for i, gid in enumerate(circuit.outputs)}
        pos = {gid: i for i, gid in enumerate(circuit.topological_order())}
        heap = [(pos[gid], gid) for gid in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        while heap:
            _, gid = heapq.heappop(heap)
            queued.discard(gid)
            old = fps.get(gid)
            new = gate_fingerprint(circuit, gid, fps, pi_index, po_index)
            fps[gid] = new
            if new == old:
                continue
            for cid in circuit.gates[gid].fanout:
                dst = circuit.conns[cid].dst
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (pos[dst], dst))

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #

    def counters(self) -> Dict[str, float]:
        """The deterministic counter snapshot telemetry exports."""
        return {
            "arrival_relaxations": self.sta.arrival_relaxations,
            "dist_relaxations": self.sta.dist_relaxations,
            "viability_checks_exact": self.viability_checks_exact,
            "viability_checks_prefiltered": self.viability_checks_prefiltered,
            "cube_cache_hits": self.cube_cache_hits,
        }
