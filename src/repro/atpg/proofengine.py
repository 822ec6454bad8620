"""Persistent incremental redundancy-proof engine.

The KMS epilogue ("remaining redundancies are then removable in any
order") and every irredundancy check funnel through the same question --
*which collapsed faults are untestable right now?* -- asked over and
over on a circuit that changes only a little between questions.  The
from-scratch funnel in :mod:`repro.atpg.redundancy` restarts completely
each time: re-enumerate the fault universe, re-roll the same random
vectors, re-run PODEM on every suspect, rebuild a full Tseitin CNF per
SAT proof.  This engine keeps its vector pool alive across removals
and answers simulation first, in the style of Teslenko--Dubrova's
simulation-first redundancy removal:

* **Adaptive random pool.**  Bit-parallel random simulation through
  the compiled kernel discharges every fault it can.  The pool is one
  seeded ``random.Random(seed)`` stream whose first ``patterns``
  vectors are exactly ``random_vectors(circuit, patterns, seed)``.
  After an epoch grades its pending faults against the pool, further
  64-vector words are drawn from the same stream and graded against
  the survivors: a word that detects at least one survivor joins the
  pool, and the first word that detects nothing ends the growth.  The
  stop rule is that measurement, so there is no size cap.

* **SAT for every survivor.**  The good circuit is Tseitin-encoded
  once per circuit version into a single :class:`repro.sat.Solver`;
  each surviving fault adds only its faulty fanout cone, every clause
  gated by a fresh activation literal, and is decided by
  ``solve(assumptions=(act,))``.  Retired queries are disabled with a
  root-level ``(-act)`` unit.

* **One circuit version.**  Verdicts, like the epoch solver, hold for
  one :attr:`Circuit.version`.  The first query after the version
  moves drops both, so its epoch grades the whole universe against the
  pool.  A fault a removal left alone is still detected by the pool
  vector that detected it before, so re-grading it costs simulation,
  never a SAT proof.

* **Witness feedback.**  Every SAT model is completed to a full vector,
  pushed through the compiled kernel's event-driven fault grading to
  drop other unresolved faults in the same epoch, and appended to the
  pool, so later epochs start from every test found so far.

Every fault the engine calls testable was detected by a pool vector, by
a grown word that then joined the pool, or by its own SAT witness, which
joins the pool too.  So after a classification the pool
(:attr:`ProofEngine.vectors`) is a complete test set for the classified
faults: :func:`repro.atpg.compaction.generate_test_set` is one
classification.

The removal loop picks the *first untestable fault in collapsed order*.
That rule is a function of the circuit alone -- simulation only ever
discharges testable faults and SAT is complete -- so the pool size,
seed and witness history change how much work a step costs, never
which fault it removes.  The from-scratch oracle applies the same rule
with PODEM plus a SAT fallback, so engine and oracle take identical steps.
The deterministic work counters -- exact functions of circuit + seed --
are counted in :mod:`repro.counters`, so :class:`repro.core.kms.KmsResult`,
engine telemetry and the CLI report them, and they gate the ``atpg`` row
of the ``perf-gate`` CI job.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..counters import count
from ..network import Circuit
from ..sat import ActivationCnf, CircuitEncoder, Solver
from .faults import CONN, Fault, collapsed_faults
from .faultsim import (
    PackedCorpus,
    VectorsArg,
    complete_vector,
    draw_vectors,
    fault_coverage,
)

#: Verdict classes.
TESTABLE = "testable"
UNTESTABLE = "untestable"

#: Vectors per adaptive growth step: one 64-lane simulation word.
WORD = 64

#: The engine's work counters (glossary in :mod:`repro.counters`), in
#: the order ``repro atpg`` prints them.
PROOF_COUNTERS = (
    "faults_requalified",
    "witness_drops",
    "cnf_reuses",
    "sat_proofs",
    "tseitin_builds",
    "random_words",
)


class ProofEngine:
    """Incremental redundancy-proof engine bound to one live circuit.

    The circuit may mutate between queries: verdicts and the epoch
    solver are keyed to :attr:`Circuit.version`, so the first query
    after any mutation starts over from the vector pool.

    Args:
        circuit: the live circuit (mutated in place by :meth:`remove`).
        patterns: size of the initial seeded random-vector pool; the
            pool then grows one 64-vector word at a time while words
            keep detecting survivors.
        seed: seed of the random-vector stream (the oracle's ``7``).

    Attributes:
        vectors: the pool, in draw order: the first ``patterns`` random
            vectors, then every grown word that detected a survivor and
            every SAT witness.  It detects every fault the engine has
            called testable, so after :meth:`redundant_faults` it is a
            test set for every classified fault that is not redundant.
    """

    def __init__(
        self, circuit: Circuit, patterns: int = 64, seed: int = 7
    ) -> None:
        self.circuit = circuit
        self._rng = random.Random(seed)
        self.vectors = draw_vectors(circuit, self._rng, patterns)
        # hoisted packing of the vector pool, rebuilt when the pool
        # grows or the circuit's PI set changes (see PackedCorpus)
        self._corpus: Optional[PackedCorpus] = None
        # the verdicts and the epoch solver hold for one circuit version
        self._version = circuit.version
        self._verdicts: Dict[Fault, str] = {}
        self._solver: Optional[Solver] = None
        self._good_var: Dict[int, int] = {}
        self._true_lit = 0

    def remove(self, fault: Fault) -> None:
        """Remove an untestable fault in place
        (:func:`~repro.atpg.redundancy.remove_fault`)."""
        from .redundancy import remove_fault

        remove_fault(self.circuit, fault)

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def _prepare_epoch(
        self, faults: Optional[Sequence[Fault]]
    ) -> List[Fault]:
        """Start an epoch: drop the verdicts and the epoch solver if
        the circuit version moved, enumerate the universe, grade the
        faults without a verdict against the vector pool, and grow the
        pool one word at a time until a word detects no survivor."""
        if self._version != self.circuit.version:
            self._version = self.circuit.version
            self._verdicts.clear()
            self._solver = None
        universe = (
            list(faults)
            if faults is not None
            else collapsed_faults(self.circuit)
        )
        pending = [f for f in universe if f not in self._verdicts]
        count("faults_requalified", len(pending))
        if pending and self.vectors:
            pending = self._grade(pending, self._vector_corpus())
        while pending:
            word = draw_vectors(self.circuit, self._rng, WORD)
            count("random_words")
            survivors = self._grade(pending, word)
            if len(survivors) == len(pending):
                break
            self.vectors.extend(word)
            pending = survivors
        return universe

    def _grade(
        self, faults: List[Fault], vectors: VectorsArg
    ) -> List[Fault]:
        """Mark every fault ``vectors`` detect testable; return the
        undetected rest."""
        survivors = fault_coverage(
            self.circuit, faults, vectors
        ).undetected_faults
        undetected = set(survivors)
        for f in faults:
            if f not in undetected:
                self._verdicts[f] = TESTABLE
        return survivors

    def _vector_corpus(self) -> PackedCorpus:
        """The vector pool packed once and reused across epochs --
        rebuilt only when the pool grew or the circuit's PI gid set
        changed since packing."""
        corpus = self._corpus
        if (
            corpus is None
            or len(corpus) != len(self.vectors)
            or not corpus.fresh_for(self.circuit, corpus.block)
        ):
            corpus = PackedCorpus(self.circuit, self.vectors)
            self._corpus = corpus
        return corpus

    def _absorb_witness(
        self, cube: Dict[int, int], universe: Sequence[Fault]
    ) -> None:
        """Accumulate a testability witness and grade every unresolved
        fault against it through the compiled kernel's event-driven
        fault simulation."""
        vector = complete_vector(self.circuit, cube)
        self.vectors.append(vector)
        targets = [f for f in universe if f not in self._verdicts]
        if targets:
            drops = len(targets) - len(self._grade(targets, [vector]))
            count("witness_drops", drops)

    # ------------------------------------------------------------------ #
    # the epoch SAT solver
    # ------------------------------------------------------------------ #

    def _epoch_solver(self) -> Solver:
        """The shared incremental solver for the current circuit
        version, building the good-circuit Tseitin once per epoch."""
        if self._solver is not None:
            count("cnf_reuses")
            return self._solver
        encoder = CircuitEncoder()
        self._good_var = encoder.encode(self.circuit)
        count("tseitin_builds")
        solver = Solver(encoder.cnf)
        self._true_lit = solver.new_var()
        solver.add_clause((self._true_lit,))
        self._solver = solver
        return solver

    def _sat_qualify(self, fault: Fault, universe: Sequence[Fault]) -> str:
        """Complete decision for one simulation survivor on the epoch
        solver: encode the faulty fanout cone under an activation
        literal, solve under assumption, retire the literal."""
        solver = self._epoch_solver()
        solver.reset_to_root()
        act = solver.new_var()
        testable, model = _prove_on_solver(
            self.circuit, fault, solver, self._good_var,
            self._true_lit, act,
        )
        count("sat_proofs")
        if not testable:
            self._verdicts[fault] = UNTESTABLE
            return UNTESTABLE
        self._verdicts[fault] = TESTABLE
        cube = {
            gid: int(model.get(self._good_var[gid], False))
            for gid in self.circuit.inputs
        }
        self._absorb_witness(cube, universe)
        return TESTABLE

    # ------------------------------------------------------------------ #
    # public queries
    # ------------------------------------------------------------------ #

    def next_redundant(self) -> Optional[Fault]:
        """The first untestable fault of the collapsed universe, in its
        deterministic order, or ``None`` when the circuit is
        irredundant.  Faults the pool leaves unresolved go to SAT in
        scan order; the scan stops at the first proof of
        untestability."""
        universe = self._prepare_epoch(None)
        for fault in universe:
            verdict = self._verdicts.get(fault)
            if verdict is None:
                verdict = self._sat_qualify(fault, universe)
            if verdict == UNTESTABLE:
                return fault
        return None

    def redundant_faults(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> List[Fault]:
        """All untestable faults from ``faults`` (default: the collapsed
        universe), sorted.  Every fault gets a verdict, so afterwards
        :attr:`vectors` detects each of ``faults`` that is not in the
        returned list."""
        universe = self._prepare_epoch(faults)
        for fault in universe:
            if fault not in self._verdicts:
                self._sat_qualify(fault, universe)
        redundant = [
            f for f in universe if self._verdicts[f] == UNTESTABLE
        ]
        redundant.sort(key=lambda f: (f.kind, f.site, f.value))
        return redundant


# ---------------------------------------------------------------------- #
# the assumption-gated faulty-cone encoding
# ---------------------------------------------------------------------- #


def _prove_on_solver(
    circuit: Circuit,
    fault: Fault,
    solver: Solver,
    good_var: Dict[int, int],
    true_lit: int,
    act: int,
) -> Tuple[bool, Dict[int, bool]]:
    """Encode ``fault``'s faulty cone onto ``solver`` gated by ``act``
    and decide testability under that assumption.

    Only the fanout cone of the fault is re-encoded; cone inputs fed
    from outside the cone share the good-circuit variables, and the
    stuck site reads a constant literal.  Returns ``(testable, model)``
    with the activation literal retired either way.
    """
    stuck_lit = true_lit if fault.value else -true_lit
    if fault.kind == CONN:
        conn = circuit.conns[fault.site]
        cone = circuit.transitive_fanout([conn.dst])
        stem_gid = None
    else:
        cone = circuit.transitive_fanout([fault.site])
        cone.discard(fault.site)
        stem_gid = fault.site
    gated = ActivationCnf(solver, act)
    encoder = CircuitEncoder(gated)
    faulty_var: Dict[int, int] = {}
    for gid in circuit.topological_order():
        if gid not in cone:
            continue
        gate = circuit.gates[gid]
        ins: List[int] = []
        for cid in gate.fanin:
            src = circuit.conns[cid].src
            if fault.kind == CONN and cid == fault.site:
                ins.append(stuck_lit)
            elif src == stem_gid:
                ins.append(stuck_lit)
            else:
                ins.append(faulty_var.get(src, good_var[src]))
        out = solver.new_var()
        faulty_var[gid] = out
        encoder.constrain(gate.gtype, out, ins)
    diff_lits: List[int] = []
    for po in circuit.outputs:
        if po not in faulty_var:
            continue  # outside the cone: cannot differ
        va, vb = good_var[po], faulty_var[po]
        d = solver.new_var()
        gated.add_clause((-va, -vb, -d))
        gated.add_clause((va, vb, -d))
        gated.add_clause((-va, vb, d))
        gated.add_clause((va, -vb, d))
        diff_lits.append(d)
    gated.add_clause(diff_lits)  # empty cone-to-PO: forces UNSAT
    testable = bool(solver.solve(assumptions=(act,)))
    model = solver.model() if testable else {}
    solver.reset_to_root()
    solver.add_clause((-act,))
    return testable, model
