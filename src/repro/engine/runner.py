"""Stage-graph runner: pipelines per circuit, fan-out across circuits.

A :class:`Job` names a circuit (via the picklable factory registry) and
a pipeline of :class:`StageCall`\\ s, e.g. ``generate -> speed_up ->
atpg -> sense_delay -> kms -> sense_delay``.  :func:`run_jobs` executes
jobs either in-process (``jobs=1``, the debuggable path) or across a
``ProcessPoolExecutor``; both paths share :func:`run_pipeline`, so
parallel results are bit-identical to serial ones by construction.

Around every stage call the runner handles, uniformly:

* content-addressed caching -- the call is keyed by the fingerprint of
  its *input* circuit plus ``(stage, params)``, so a stage re-keys
  automatically when an upstream transformation changed anything, and
  two pipeline positions that happen to see the same circuit share one
  entry;
* wall-clock timing and work-counter attribution into telemetry
  records: an executed record's counters are the stage's descriptive
  counters plus the delta of a :class:`repro.counters.Window` over the
  attempt; the cache stores only the descriptive ones, so a hit
  replays no work;
* a per-stage timeout (SIGALRM-based, so a pathological circuit cannot
  hang a sweep) and retry-once semantics before the job is failed.

Worker processes rebuild their circuits from the factory spec and open
their own handle on the shared cache directory; the cache's atomic
writes make concurrent warm-up safe.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..counters import Window
from ..network import Circuit
from .cache import ResultCache
from .hashing import circuit_fingerprint
from .serialize import circuit_from_dict, circuit_to_dict
from .stages import StageOutcome, cacheable_params, get_stage
from .telemetry import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_OFF,
    CACHE_UNCACHEABLE,
    StageRecord,
    Telemetry,
    now,
)


class StageTimeout(Exception):
    """A stage exceeded the configured per-stage timeout."""


@dataclass(frozen=True)
class StageCall:
    """One pipeline position: a stage name, its params, a report label."""

    stage: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def key(self) -> str:
        return self.label or self.stage

    def to_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "params": dict(self.params),
                "label": self.label}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageCall":
        return cls(data["stage"], dict(data.get("params", {})),
                   data.get("label"))


@dataclass
class Job:
    """One circuit's trip through a pipeline."""

    name: str
    factory: str
    params: Dict[str, Any] = field(default_factory=dict)
    pipeline: List[StageCall] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "factory": self.factory,
            "params": dict(self.params),
            "pipeline": [c.to_dict() for c in self.pipeline],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        return cls(
            data["name"],
            data["factory"],
            dict(data.get("params", {})),
            [StageCall.from_dict(c) for c in data.get("pipeline", [])],
        )


@dataclass
class EngineConfig:
    """Knobs shared by every job of a run."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    stage_timeout: Optional[float] = None
    retries: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "stage_timeout": self.stage_timeout,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineConfig":
        return cls(**data)


@dataclass
class JobResult:
    """Everything one job produced.

    ``final_circuit`` (the serialized circuit that fell out of the last
    stage) is only populated when the pipeline ran with
    ``keep_final=True`` -- consumers like the serve daemon need the
    transformed netlist itself, while the bench sweeps only read
    payloads and would pay pickling cost across the pool for nothing.
    """

    name: str
    ok: bool
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: List[StageRecord] = field(default_factory=list)
    fingerprint: Optional[str] = None
    error: Optional[str] = None
    final_circuit: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "results": self.results,
            "records": [r.to_dict() for r in self.records],
            "fingerprint": self.fingerprint,
            "error": self.error,
            "final_circuit": self.final_circuit,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(
            name=data["name"],
            ok=data["ok"],
            results=data["results"],
            records=[StageRecord.from_dict(r) for r in data["records"]],
            fingerprint=data.get("fingerprint"),
            error=data.get("error"),
            final_circuit=data.get("final_circuit"),
        )


@dataclass
class RunReport:
    """All job results plus merged telemetry, in job submission order."""

    results: List[JobResult]
    telemetry: Telemetry

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


# ---------------------------------------------------------------------- #
# timeouts
# ---------------------------------------------------------------------- #

def _call_with_timeout(fn, timeout: Optional[float]):
    """Run ``fn()`` under a wall-clock limit.

    SIGALRM is only available on POSIX main threads; elsewhere the call
    runs unguarded (the pool path always lands on a worker's main
    thread, which is where runaway stages actually occur).
    """
    usable = (
        timeout is not None
        and timeout > 0
        and os.name == "posix"
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return fn()

    def _alarm(signum, frame):
        raise StageTimeout(f"stage exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------- #
# pipeline execution
# ---------------------------------------------------------------------- #

def _execute_call(
    call: StageCall,
    circuit: Optional[Circuit],
    ctx: Dict[str, Any],
    cache: ResultCache,
    config: EngineConfig,
    job_name: str,
    telemetry: Telemetry,
) -> StageOutcome:
    """Run one stage call with caching, timing, timeout, and retry.

    Raises the stage's final exception after retries are exhausted (the
    caller fails the job)."""
    stage = get_stage(call.stage)
    can_cache = stage.cacheable and cacheable_params(call.params)
    cache_state = (
        CACHE_UNCACHEABLE if not can_cache
        else (CACHE_OFF if not cache.enabled else None)
    )

    start = now()
    fingerprint = None
    if can_cache and cache.enabled:
        fingerprint = circuit_fingerprint(circuit)
        entry = cache.get(fingerprint, stage.name, call.params)
        if entry is not None:
            restored = (
                circuit_from_dict(entry["circuit"])
                if entry.get("circuit") is not None
                else circuit
            )
            telemetry.add(StageRecord(
                job=job_name,
                stage=stage.name,
                label=call.key,
                seconds=now() - start,
                cache=CACHE_HIT,
                counters=dict(entry.get("counters", {})),
            ))
            return StageOutcome(
                restored, dict(entry["payload"]),
                changed=entry.get("circuit") is not None,
            )
        cache_state = CACHE_MISS

    attempts = max(1, config.retries + 1)
    last_exc: Optional[BaseException] = None
    for attempt in range(attempts):
        attempt_start = now()
        window = Window()
        try:
            outcome = _call_with_timeout(
                lambda: stage.fn(circuit, call.params, ctx),
                config.stage_timeout,
            )
        except Exception as exc:
            last_exc = exc
            telemetry.add(StageRecord(
                job=job_name,
                stage=stage.name,
                label=call.key,
                seconds=now() - attempt_start,
                cache=cache_state or CACHE_UNCACHEABLE,
                counters={**window.delta(), "attempt": attempt + 1},
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        counters = {**outcome.counters, **window.delta()}
        if attempt:
            counters["attempt"] = attempt + 1
        telemetry.add(StageRecord(
            job=job_name,
            stage=stage.name,
            label=call.key,
            seconds=now() - attempt_start,
            cache=cache_state or CACHE_UNCACHEABLE,
            counters=counters,
        ))
        if cache_state == CACHE_MISS:
            cache.put(fingerprint, stage.name, call.params, {
                "payload": outcome.payload,
                "counters": outcome.counters,
                "circuit": (
                    circuit_to_dict(outcome.circuit)
                    if outcome.changed else None
                ),
            })
        return outcome
    assert last_exc is not None
    raise last_exc


def run_pipeline(
    circuit: Circuit,
    pipeline: List[StageCall],
    job_name: str = "job",
    cache: Optional[ResultCache] = None,
    config: Optional[EngineConfig] = None,
    telemetry: Optional[Telemetry] = None,
    keep_final: bool = False,
) -> JobResult:
    """Run a pipeline over an already-built circuit, in-process.

    This is the shared core of the serial bench path, the ``jobs=1``
    engine path, and every pool worker."""
    cache = cache if cache is not None else ResultCache(None)
    config = config if config is not None else EngineConfig()
    telemetry = telemetry if telemetry is not None else Telemetry()
    result = JobResult(
        name=job_name, ok=True,
        fingerprint=circuit_fingerprint(circuit),
    )
    ctx: Dict[str, Any] = {"generated": circuit, "job": job_name}
    current = circuit
    for call in pipeline:
        try:
            outcome = _execute_call(
                call, current, ctx, cache, config, job_name, telemetry
            )
        except Exception as exc:
            result.ok = False
            result.error = f"{call.key}: {type(exc).__name__}: {exc}"
            break
        result.results[call.key] = outcome.payload
        current = outcome.circuit
    if keep_final and result.ok:
        result.final_circuit = circuit_to_dict(current)
    result.records = [r for r in telemetry.records if r.job == job_name]
    return result


def execute_job(
    job: Job,
    cache: Optional[ResultCache] = None,
    config: Optional[EngineConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> JobResult:
    """Build the job's circuit from its factory spec and run its pipeline."""
    cache = cache if cache is not None else ResultCache(None)
    config = config if config is not None else EngineConfig()
    telemetry = telemetry if telemetry is not None else Telemetry()
    generate = StageCall(
        "generate", {"factory": job.factory, "params": job.params}
    )
    try:
        outcome = _execute_call(
            generate, None, {}, cache, config, job.name, telemetry
        )
    except Exception as exc:
        return JobResult(
            name=job.name, ok=False,
            records=[r for r in telemetry.records if r.job == job.name],
            error=f"generate: {type(exc).__name__}: {exc}",
        )
    result = run_pipeline(
        outcome.circuit, job.pipeline,
        job_name=job.name, cache=cache, config=config, telemetry=telemetry,
    )
    result.results.setdefault("generate", outcome.payload)
    result.records = [r for r in telemetry.records if r.job == job.name]
    return result


def _job_worker(job_data: Dict[str, Any],
                config_data: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: primitives in, primitives out."""
    job = Job.from_dict(job_data)
    config = EngineConfig.from_dict(config_data)
    cache = ResultCache(config.cache_dir)
    try:
        return execute_job(job, cache=cache, config=config).to_dict()
    except Exception as exc:  # defensive: execute_job should not raise
        return JobResult(
            name=job.name, ok=False,
            error=f"worker: {type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc(limit=5)}",
        ).to_dict()


def run_jobs(
    jobs: List[Job],
    config: Optional[EngineConfig] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Run every job and return results in submission order.

    ``config.jobs > 1`` fans out across a process pool; ``jobs=1`` stays
    in-process (same code path per job, so identical results -- and a
    debugger or profiler sees everything)."""
    config = config if config is not None else EngineConfig()
    telemetry = Telemetry(meta={**(meta or {}), **config.to_dict()})
    results: List[JobResult] = []
    if config.jobs <= 1 or len(jobs) <= 1:
        cache = ResultCache(config.cache_dir)
        for job in jobs:
            results.append(
                execute_job(job, cache=cache, config=config,
                            telemetry=telemetry)
            )
    else:
        workers = min(config.jobs, len(jobs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_job_worker, job.to_dict(), config.to_dict())
                for job in jobs
            ]
            for job, future in zip(jobs, futures):
                try:
                    results.append(JobResult.from_dict(future.result()))
                except Exception as exc:
                    results.append(JobResult(
                        name=job.name, ok=False,
                        error=f"pool: {type(exc).__name__}: {exc}",
                    ))
        for result in results:
            telemetry.extend(result.records)
    return RunReport(results=results, telemetry=telemetry)
