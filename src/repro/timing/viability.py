"""Viability analysis (Section V / 5.1, after McGeer-Brayton).

A path is *viable under input cube c* if at each gate along the path all
the **early** side-inputs carry noncontrolling values; **late**
side-inputs ("have not settled to their final value before tau_i") are
smoothed out -- no demand is placed on them.  The circuit's computed
delay is the length of the longest viable path: a sound upper bound on
true delay that is tighter than topological analysis and looser (safer)
than the longest statically sensitizable path.

Early/late classification: we call a side-input early at event time
``tau`` only when its *topological latest arrival* is strictly earlier
than ``tau`` -- i.e. when it has provably settled under every input cube.
A side-input that merely *might* have settled is treated as late and
smoothed.  This errs in the safe direction (more paths viable, larger
computed delay) relative to exact McGeer-Brayton viability, preserving
upper-bound soundness, and coincides with it on the paper's examples.
Tests cross-check against the event-driven true-delay oracle.

Every viability question is again a SAT query on the Tseitin encoding:
the early side-inputs' settled values are static circuit values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network import Circuit
from ..sat import CircuitEncoder, Solver
from .models import EPS, NEVER, AsBuiltDelayModel, DelayModel
from .paths import Path, iter_paths_longest_first
from .sensitize import edge_side_inputs
from .sta import TimingAnnotation, analyze


@dataclass
class DelayReport:
    """Result of a false-path-aware delay computation.

    Attributes:
        delay: length of the longest true (viable / sensitizable) path,
            0.0 if no path qualifies (e.g. all-constant circuits).
        path: a witness path of that length (None if none).
        cube: a PI assignment witnessing the condition (None if none).
        paths_examined: how many paths the longest-first scan visited.
        exhausted: True if the scan hit ``max_paths`` before finding a
            qualifying path -- the result is then only a lower bound
            of the topological delay and callers should fall back to it.
    """

    delay: float
    path: Optional[Path]
    cube: Optional[Dict[int, int]]
    paths_examined: int
    exhausted: bool = False


def settled_before(
    circuit: Circuit,
    model: DelayModel,
    annotation: TimingAnnotation,
    cid: int,
    tau: float,
) -> bool:
    """Is side input ``cid`` early at event time ``tau``: does its
    latest arrival, ``latest_arrival(src) + d(cid)``, come strictly
    before ``tau``?  Constants never transition, so they always are."""
    settle = annotation.arrival[circuit.conns[cid].src]
    if settle == NEVER:
        return True
    return settle + model.conn_delay(circuit, cid) < tau - EPS


def early_side_inputs(
    circuit: Circuit,
    model: DelayModel,
    annotation: TimingAnnotation,
    path: Path,
) -> List[Tuple[int, int, int]]:
    """(cid, gate, required value) for each provably-early side-input.

    A side-input connection ``s`` into path gate ``g_i`` is early when
    ``latest_arrival(src(s)) + d(s) < tau_i`` (:func:`settled_before`).
    Standalone so callers holding a maintained annotation need no
    from-scratch :func:`analyze`.
    """
    taus = path.event_times(circuit, model)
    return [
        (si.cid, si.gate, si.value)
        for cid, tau in zip(path.conns, taus)
        for si in edge_side_inputs(circuit, cid)
        if settled_before(circuit, model, annotation, si.cid, tau)
    ]


class ViabilityChecker:
    """Reusable SAT context for viability queries on one circuit.

    ``annotation`` may be supplied by a caller that already holds current
    arrival times (e.g. the incremental KMS loop); omitted, a fresh
    :func:`analyze` pass is run.
    """

    def __init__(
        self,
        circuit: Circuit,
        model: Optional[DelayModel] = None,
        annotation: Optional[TimingAnnotation] = None,
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else AsBuiltDelayModel()
        self.annotation = (
            annotation if annotation is not None
            else analyze(circuit, self.model)
        )
        encoder = CircuitEncoder()
        self.var = encoder.encode(circuit)
        self.solver = Solver(encoder.cnf)

    def early_side_inputs(self, path: Path) -> List[Tuple[int, int, int]]:
        """(cid, gate, required value) for each provably-early side-input
        of ``path`` (see the module-level :func:`early_side_inputs`)."""
        return early_side_inputs(
            self.circuit, self.model, self.annotation, path
        )

    def viable_cube(self, path: Path) -> Optional[Dict[int, int]]:
        """A PI assignment under which the path is viable, or None."""
        lits = []
        for cid, _gid, value in self.early_side_inputs(path):
            src = self.circuit.conns[cid].src
            v = self.var[src]
            lits.append(v if value else -v)
        if self.solver.solve(lits):
            model = self.solver.model()
            return {
                gid: int(model.get(self.var[gid], False))
                for gid in self.circuit.inputs
            }
        return None

    def is_viable(self, path: Path) -> bool:
        return self.viable_cube(path) is not None


def viability_delay(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    max_paths: int = 200000,
) -> DelayReport:
    """Computed delay = length of the longest viable path.

    Scans paths longest-first, returning at the first viable one.  If the
    scan exhausts ``max_paths`` the report is flagged ``exhausted`` and
    carries the topological delay as the safe answer.
    """
    checker = ViabilityChecker(circuit, model)
    return _scan(circuit, checker.model, checker.annotation,
                 checker.viable_cube, max_paths)


def sensitizable_delay(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    max_paths: int = 200000,
) -> DelayReport:
    """Length of the longest statically sensitizable path.

    The paper warns this can be *optimistic* as a delay estimate ("paths
    which are not statically sensitizable may still contribute to the
    delay"); it is reported for comparison and used by KMS only as the
    (sound) termination test, never as the delay claim.
    """
    from .sensitize import SensitizationChecker

    model = model if model is not None else AsBuiltDelayModel()
    checker = SensitizationChecker(circuit)
    ann = analyze(circuit, model)
    return _scan(circuit, model, ann, checker.sensitizing_cube, max_paths)


def _scan(circuit, model, annotation, cube_fn, max_paths) -> DelayReport:
    examined = 0
    for path in iter_paths_longest_first(
        circuit, model, annotation, max_paths=max_paths
    ):
        examined += 1
        cube = cube_fn(path)
        if cube is not None:
            return DelayReport(
                delay=path.length,
                path=path,
                cube=cube,
                paths_examined=examined,
            )
    exhausted = examined >= max_paths
    return DelayReport(
        delay=annotation.delay if exhausted else 0.0,
        path=None,
        cube=None,
        paths_examined=examined,
        exhausted=exhausted,
    )
