"""The KMS algorithm: redundancy removal with no increase in delay.

This is the paper's Fig. 3, verbatim in structure:

    /* Circuit eta has only simple gates. */
    While (all longest paths in eta are not statically sensitizable/viable) {
        Choose a longest path P.
        Find n, the gate in P closest to the output that has fanout > 1.
        If n exists {
            Duplicate the gates of P up to n (with their fanin
            connections); move P's fanout edge e of n onto the duplicate
            n' so n' has a single fanout; call the duplicated path P'.
        } Else P' is the same as P.
        If P' is not statically sensitizable {
            Set first edge of P' to constant 0 or 1.
            Propagate constant as far as possible, removing useless gates.
        }
    }
    Remove remaining redundancies in any order.

Why it terminates: duplication creates a length-preserving bijection
between old and new paths (Theorem 7.1), and the constant-setting step
destroys the chosen longest path P' (plus possibly others) while creating
none, so the number of longest paths strictly decreases each iteration
until some longest path is sensitizable/viable or no path remains.

Why it is safe: the first edge of a single-fanout, non-statically-
sensitizable path is untestable for both stuck values, so tying it to a
constant preserves function; Theorems 7.1/7.2 show neither step increases
the viability-computed delay.  ``checked=True`` re-verifies both claims
after every iteration with the SAT miter and the timing engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..counters import Window, count
from ..network import (
    Circuit,
    controlling_value,
    has_controlling_value,
)
from ..network.transform import (
    duplicate_chain,
    propagate_constants,
    set_connection_constant,
    sweep,
)
from ..sat import check_equivalence
from ..timing import (
    AsBuiltDelayModel,
    DelayModel,
    IncrementalTiming,
    Path,
    SensitizationChecker,
    ViabilityChecker,
    analyze,
    iter_paths_longest_first,
    topological_delay,
    viability_delay,
)
from ..timing.models import EPS

STATIC = "static"
VIABILITY = "viability"


@dataclass
class KmsEvent:
    """One iteration of the Fig. 3 while-loop, for tracing/reporting."""

    iteration: int
    path: str
    path_length: float
    duplicated_gates: int
    constant_value: Optional[int]
    gates_after: int
    #: deep copy of the circuit after the iteration (trace mode only).
    snapshot: Optional[Circuit] = None


@dataclass
class KmsResult:
    """Outcome of the KMS algorithm."""

    circuit: Circuit
    events: List[KmsEvent] = field(default_factory=list)
    #: redundancies removed by the final any-order cleanup phase.
    cleanup_steps: int = 0
    #: total gates duplicated across all iterations.
    duplicated_gates: int = 0
    #: the work counted during the call, loop and cleanup alike: every
    #: counter of :mod:`repro.counters`; the CI perf gates compare them
    #: against the committed baselines.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.events)


class KmsError(Exception):
    """Raised when a checked invariant fails (would indicate a bug)."""


def kms(
    circuit: Circuit,
    mode: str = STATIC,
    model: Optional[DelayModel] = None,
    checked: bool = False,
    trace: bool = False,
    max_iterations: int = 100000,
    incremental: bool = True,
) -> KmsResult:
    """Derive an equivalent irredundant circuit that is no slower.

    Args:
        circuit: a simple-gate network (run
            :func:`repro.network.decompose_complex_gates` first if needed).
            Not modified; the result holds a transformed copy.
        mode: ``"static"`` uses static sensitizability as the loop test
            (the paper's implementation choice -- cheaper, possibly extra
            duplication); ``"viability"`` uses viability (tightest).
        model: delay model (default: delays as built on the circuit).
        checked: verify functional equivalence and delay non-increase
            after every iteration (slow; for tests and paranoia).
        trace: keep a circuit snapshot in every event (for the Figs. 4-6
            walk-through).
        incremental: drive the loop with the dirty-cone incremental
            timing engine (:class:`repro.timing.IncrementalTiming`) --
            arrival times are re-relaxed only around the gates the
            working circuit recorded as edited, and each loop test is
            one question over all longest paths at once.  ``False``
            keeps the from-scratch recompute per iteration and checks
            every longest path on its own; both take identical steps, so
            the full mode is the per-path test reference for the
            incremental one (no CLI flag or engine stage selects it).

    Returns:
        :class:`KmsResult` whose circuit is fully single-stuck-at
        testable and, under the viability delay model, at least as fast
        as the input.
    """
    if mode not in (STATIC, VIABILITY):
        raise ValueError(f"unknown mode {mode!r}")
    if not circuit.is_simple_gate_network():
        raise ValueError(
            "KMS requires a simple-gate network; "
            "run decompose_complex_gates first"
        )
    model = model if model is not None else AsBuiltDelayModel()
    window = Window()
    work = circuit.copy(f"{circuit.name}#kms")
    from ..net import attach_arena, net_enabled

    # The loop edits the working copy a little per iteration and
    # simulates it once per iteration (the loop test's 64 patterns);
    # the arena keeps that simulation schedule fresh in place instead of
    # recompiling it.  The cleanup copies the circuit, and its copy has
    # no arena.  REPRO_NET_LEGACY=1 skips the attach, so the loop
    # recompiles the object-graph kernel instead -- the A/B oracle.
    if net_enabled():
        attach_arena(work)

    result = KmsResult(circuit=work)

    baseline_delay = None
    if checked:
        baseline_delay = viability_delay(circuit, model).delay

    timing = (
        IncrementalTiming(work, model, mode=mode) if incremental else None
    )

    iteration = 0
    while True:
        if timing is not None:
            timing.begin_iteration()
            ann = timing.annotation()
        else:
            ann = analyze(work, model)
            # a full pass relaxes every gate once per direction
            count("arrival_relaxations", len(work.gates))
            count("dist_relaxations", len(work.gates))
        if ann.delay <= 0:
            break
        target = _find_unsensitizable_longest_path(
            work, model, mode, ann, timing
        )
        if target is None:
            break  # some longest path is sensitizable/viable: loop exits
        if iteration >= max_iterations:
            raise KmsError(
                "KMS did not converge (max_iterations reached)"
            )
        event = _eliminate_path(work, target, model, checked)
        event.iteration = iteration
        if timing is not None:
            timing.refresh()
        if trace:
            event.snapshot = work.copy(f"{work.name}@{iteration}")
        result.events.append(event)
        result.duplicated_gates += event.duplicated_gates
        if checked:
            _check_invariants(circuit, work, model, baseline_delay)
        iteration += 1
    # The loop's timing context (and its run-long SAT solver) is done;
    # let it go before the cleanup builds its own solvers.
    del timing

    # Duplicated chains whose siblings were later tied off are often
    # structurally identical again; fold them before the cleanup phase.
    # Strash merges only (type, delay, fanin)-identical gates, so path
    # lengths -- and hence delay -- are untouched.
    from ..synth.optimize import area_optimize

    area_optimize(work)

    # Fig. 3's final line: remove remaining redundancies in any order.
    # The same incremental switch drives the cleanup's proof engine
    # (persistent vector pool, shared epoch solver) vs the test reference.
    from ..atpg.redundancy import remove_redundancies

    cleanup = remove_redundancies(work, incremental=incremental)
    result.circuit = cleanup.circuit
    result.circuit.name = f"{circuit.name}#kms"
    result.cleanup_steps = cleanup.removed
    if checked:
        _check_invariants(circuit, result.circuit, model, baseline_delay)
    result.counters = window.delta()
    return result


# ---------------------------------------------------------------------- #
# pieces
# ---------------------------------------------------------------------- #


def _find_unsensitizable_longest_path(
    work: Circuit,
    model: DelayModel,
    mode: str,
    annotation,
    timing: Optional[IncrementalTiming] = None,
) -> Optional[Path]:
    """Return a longest path to operate on, or None when some longest
    path is sensitizable/viable (loop exit condition).

    With ``timing`` (incremental mode) the exit condition is one
    question over every longest path at once
    (:meth:`IncrementalTiming.check_path`).  Without it, every longest
    path is enumerated and checked on a freshly built exact checker --
    the per-path reference.  Either way the loop operates on the first
    path the enumerator yields, so both modes take the same steps.
    """
    if timing is not None:
        if timing.check_path():
            return None
        count("paths_enumerated")
        return next(iter_paths_longest_first(work, model, annotation))
    checker = (
        ViabilityChecker(work, model, annotation=annotation)
        if mode == VIABILITY
        else SensitizationChecker(work)
    )
    exact = (
        checker.is_viable if mode == VIABILITY else checker.is_sensitizable
    )
    first: Optional[Path] = None
    for path in iter_paths_longest_first(work, model, annotation):
        if path.length < annotation.delay - EPS:
            break
        count("paths_enumerated")
        count("viability_checks_exact")
        if exact(path):
            return None
        if first is None:
            first = path
    return first


def _eliminate_path(
    work: Circuit, path: Path, model: DelayModel, checked: bool
) -> KmsEvent:
    """One loop body: duplicate to single-fanout, then kill the first edge."""
    description = path.describe(work)
    duplicated = 0
    target_path = path
    n = path.last_multifanout_gate(work)
    if n is not None:
        j = path.gates.index(n)
        chain = list(path.gates[: j + 1])
        chain_conns = list(path.conns[: j + 1])
        e = path.conns[j + 1]
        mapping, dup_conns = duplicate_chain(work, chain, chain_conns)
        work.move_connection_source(e, mapping[n])
        duplicated = len(mapping)
        target_path = Path(
            source=path.source,
            gates=tuple(mapping[g] for g in chain) + path.gates[j + 1 :],
            conns=tuple(dup_conns) + path.conns[j + 1 :],
            sink=path.sink,
            length=path.length,
        )
        if checked:
            # Theorem 7.1: duplication must not change the delay.  P is
            # a longest path, so its length is the delay before.
            after = topological_delay(work, model)
            if abs(after - path.length) > EPS:
                raise KmsError(
                    f"duplication changed the delay: "
                    f"{path.length:g} -> {after:g}"
                )
            # P' must be unsensitizable exactly like P (same side functions)
            if SensitizationChecker(work).is_sensitizable(target_path):
                raise KmsError(
                    "duplicated path became sensitizable -- "
                    "duplication bug"
                )
    # Set the first edge of P' to the controlling value of the gate it
    # feeds ("we prefer to set it to the controlling value ... since this
    # deletes this gate"); for NOT/BUF either value works.
    first_gate = work.gates[target_path.gates[0]] if target_path.gates else None
    if first_gate is not None and has_controlling_value(first_gate.gtype):
        value = controlling_value(first_gate.gtype)
    else:
        value = 0
    set_connection_constant(work, target_path.first_edge, value)
    propagate_constants(work)
    sweep(work, collapse_buffers=True)
    return KmsEvent(
        iteration=-1,
        path=description,
        path_length=path.length,
        duplicated_gates=duplicated,
        constant_value=value,
        gates_after=work.num_gates(),
    )


def _check_invariants(original, work, model, baseline) -> None:
    result = check_equivalence(original, work)
    if not result.equivalent:
        raise KmsError(
            f"function changed: output {result.differing_output!r} "
            f"differs under {result.counterexample!r}"
        )
    via = viability_delay(work, model).delay
    if via > baseline + EPS:
        raise KmsError(f"viability delay increased: {baseline} -> {via}")
