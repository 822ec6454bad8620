"""Per-layer spans recorded from outside the program.

The benchmark may not edit ``src/``, so it times each layer around the
public entry point the layer above calls.  :meth:`Tracer.installed`
rebinds every target for the duration of a ``with`` block and restores
the originals afterwards.  A module-level function is rebound in *every*
loaded module that holds it, so a ``from x import f`` copy cannot bypass
its span; methods are rebound on their class.  A span that never fires
on any workload is reported by :func:`unfired` and fails the traced run.

Spans are kept in memory.  Each records its name, start, end, id, the id
of the span open when it started, and the circuit id the benchmark set
for the current ``kms()`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: span name -> ``"module:function"`` or ``"module:Class.method"`` targets.
#: ``core.kms`` has no target: the benchmark opens it around its own call.
SPANS: Dict[str, Tuple[str, ...]] = {
    "net.attach_arena": ("repro.net.arena:attach_arena",),
    "timing.build": ("repro.timing.incremental:IncrementalTiming.__init__",),
    "timing.refresh": (
        "repro.timing.incremental:IncrementalTiming.begin_iteration",
        "repro.timing.incremental:IncrementalTiming.annotation",
        "repro.timing.incremental:IncrementalTiming.refresh",
    ),
    "timing.paths": ("repro.timing.paths:iter_paths_longest_first",),
    "timing.check_path": ("repro.timing.incremental:IncrementalTiming.check_path",),
    "sat.solve": ("repro.sat.solver:Solver.solve",),
    "network.transform": (
        "repro.network.transform:duplicate_chain",
        "repro.network.transform:set_connection_constant",
        "repro.network.transform:propagate_constants",
        "repro.network.transform:sweep",
    ),
    "synth.area_optimize": ("repro.synth.optimize:area_optimize",),
    "atpg.cleanup": ("repro.atpg.redundancy:remove_redundancies",),
    "atpg.engine_init": ("repro.atpg.proofengine:ProofEngine.__init__",),
    "atpg.next_redundant": ("repro.atpg.proofengine:ProofEngine.next_redundant",),
    "atpg.remove": ("repro.atpg.proofengine:ProofEngine.remove",),
    "atpg.podem": ("repro.atpg.podem:Podem.generate",),
    "sim.simulate5": ("repro.sim.dcalc:simulate5",),
    "sim.fault_coverage": ("repro.atpg.faultsim:fault_coverage",),
    "synth.speedup_prep": ("repro.bench.table1:optimized_mcnc",),
}

SPAN_NAMES: Tuple[str, ...] = ("core.kms",) + tuple(SPANS)

#: Spans that fire while the workload's inputs are built, not in kms().
SETUP_SPANS = frozenset({"synth.speedup_prep"})

#: Outcomes counted per span: ``atpg.podem.testable`` and so on.
OUTCOMES = {"atpg.podem": ("testable", "untestable", "aborted")}


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    circuit: str
    #: label of the call's result, for spans listed in :data:`OUTCOMES`.
    outcome: Optional[str] = None


class Tracer:
    """Collects spans; the benchmark sets :attr:`circuit` before each call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.circuit = ""
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(
            name,
            time.perf_counter(),
            0.0,
            len(self.spans),
            self._stack[-1] if self._stack else None,
            self.circuit,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per next(): the generator's work happens there
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item

            return wrapper

        counted = name in OUTCOMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counted:
                span.outcome = result.status.value
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target of :data:`SPANS` for the ``with`` block."""
        try:
            for name, targets in SPANS.items():
                for target in targets:
                    self._install(name, target)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _install(self, name: str, target: str) -> None:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            self._rebind(cls, method, self._wrap(name, vars(cls)[method]))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for holder in list(sys.modules.values()):
            for key, value in list(getattr(holder, "__dict__", {}).items()):
                if value is original:
                    self._rebind(holder, key, wrapper)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def summarize(spans: Iterable[Span]) -> Dict[str, float]:
    """``<span>.calls``, ``<span>.s``, ``<span>.self_s`` for every span name
    (zero when it never fired) plus ``<span>.<outcome>`` counts."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for outcome in OUTCOMES.get(name, ()):
            out[f"{name}.{outcome}"] = 0
    for span in spans:
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.s"] += span.end - span.start
        out[f"{span.name}.self_s"] += own[span.span_id]
        if span.outcome is not None:
            out[f"{span.name}.{span.outcome}"] += 1
    return out


def unfired(calls_by_workload: Dict[str, Dict[str, float]]) -> List[str]:
    """Span names with no call on any workload (``<span>.calls`` keys)."""
    return [
        name
        for name in SPAN_NAMES
        if not any(m.get(f"{name}.calls", 0) > 0 for m in calls_by_workload.values())
    ]
