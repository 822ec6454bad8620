"""Deterministic work counters: the one store.

Every layer that does countable work calls :func:`count` where the work
happens.  Everything that reports work -- :func:`repro.core.kms`,
:func:`repro.atpg.remove_redundancies`, the engine's stage records, the
CLI and the fuzz grader -- opens a :class:`Window` before the work and
reads :meth:`Window.delta` after it.  Totals only grow, so windows nest
and overlap freely and no reader can disturb another.  Each process
counts its own work; a worker's counts reach its parent only inside the
records it sends back.  Counting takes no lock: a window attributes
correctly only while one thread of its process does countable work, as
in the engine's and the serve daemon's worker processes.

Every counter is an exact function of the circuit, the parameters and
the seeds, with no wall-clock jitter.  That is what lets the CI perf
gates (``benchmarks/compare_baseline.py``) compare them against
committed baselines.  The name groups the gates and the CLI read live
with the layer that counts them:
:data:`repro.sim.kernel.WORK_COUNTERS`,
:data:`repro.atpg.proofengine.PROOF_COUNTERS`,
:data:`repro.atpg.redundancy.ORACLE_COUNTERS` and
:data:`repro.net.arena.ARENA_COUNTERS`.
"""

from __future__ import annotations

from typing import Dict

#: Every counter, in report order, with what one unit of it is.
GLOSSARY: Dict[str, str] = {
    # repro.sat
    "sat_calls": "Solver.solve invocations",
    # repro.sim.kernel
    "gate_evals_good": (
        "gate evaluations in good-circuit packed simulation: every "
        "non-INPUT, non-overridden gate costs one per call"
    ),
    "gate_evals_faulty": (
        "gate evaluations in event-driven faulty cones, injection "
        "re-evaluations included"
    ),
    "cone_cutoffs": (
        "cone frontier gates whose good/faulty difference word went to "
        "zero, injections that made no difference included"
    ),
    "faults_dropped": "faults removed from an active list after detection",
    "compile_rebuilds": (
        "compiled-schedule builds: one on first use, one more after each "
        "structural mutation the kernel sees"
    ),
    # repro.timing and the KMS loop
    "arrival_relaxations": (
        "forward per-gate STA recomputations; a full analyze() costs one "
        "per gate"
    ),
    "dist_relaxations": "backward per-gate STA recomputations",
    "paths_enumerated": (
        "longest paths the loop took from the enumerator: one per "
        "iteration; the per-path reference (incremental=False) counts "
        "every longest path it checks"
    ),
    "viability_checks_prefiltered": "loop tests the reach pass answered",
    "viability_checks_exact": (
        "loop tests answered by the SAT solve; the per-path reference "
        "counts every longest path it checks"
    ),
    "loop_gate_encodings": (
        "gate definitions the loop test's solver encoded: every gate at "
        "each (re)build, plus each gate re-encoded after a change"
    ),
    # repro.atpg.proofengine
    "faults_requalified": (
        "faults an epoch grades for lack of a verdict on the current "
        "circuit version"
    ),
    "witness_drops": "unresolved faults settled by replaying a SAT witness",
    "cnf_reuses": "epoch-solver reuses on an unchanged circuit version",
    "sat_proofs": "SAT qualifications of random-pool survivors",
    "tseitin_builds": "full good-circuit CNF constructions",
    "random_words": (
        "64-vector words the adaptive pool drew, including each epoch's "
        "word that detected nothing and stopped the growth"
    ),
    # repro.atpg.podem
    "podem_calls": "Podem.generate invocations",
    "podem_backtracks": "PODEM backtracks",
    "podem_aborts": "PODEM searches that hit their backtrack limit",
    # repro.net.arena
    "arena_full_builds": "from-scratch arena array builds",
    "arena_compactions": "free-list compactions of the arena",
    "array_ops_inplace": "in-place arena array edits made by mutation hooks",
    "compile_rebuilds_avoided": (
        "schedule rebuilds the arena's zero-copy view skipped where the "
        "object-graph kernel would have recompiled"
    ),
}

_totals: Dict[str, int] = dict.fromkeys(GLOSSARY, 0)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` units of work to the declared counter ``name``."""
    try:
        _totals[name] += n
    except KeyError:
        raise KeyError(f"undeclared work counter {name!r}") from None


class Window:
    """The work counted in this process since the window opened."""

    def __init__(self) -> None:
        self._start = dict(_totals)

    def delta(self) -> Dict[str, int]:
        """Every declared counter's growth since the window opened."""
        return {name: _totals[name] - start
                for name, start in self._start.items()}
