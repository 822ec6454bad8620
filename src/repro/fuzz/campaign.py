"""Seeded fuzz campaign driver over the engine's ProcessPool.

A campaign is a list of :class:`repro.fuzz.grade.ScenarioSpec`\\ s fanned
out through :func:`repro.engine.runner.run_jobs` -- each scenario is one
``Job`` whose factory (``fuzz_planted``) rebuilds the planted circuit in
the worker and whose single ``fuzz_grade`` stage grades it, so campaign
scenarios get the engine's caching, per-stage timeouts, retry, and
telemetry for free, and ``jobs=N`` results are bit-identical to
``jobs=1`` by construction.

The driver aggregates per-scenario payloads into a JSON campaign report
(recall, false removals, delay regressions, mismatch census, merged
work counters) and, when ``minimize_dir`` is given, shrinks every
reproducible failure into a ready-to-commit pytest case via
:mod:`repro.fuzz.minimize`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..engine.runner import EngineConfig, Job, RunReport, StageCall, run_jobs
from .grade import ScenarioSpec
from .plant import DEGRADING, NEUTRAL, VARIANTS

#: ``variant="mix"`` alternates neutral / degrading across the corpus.
MIX = "mix"

#: plants-per-scenario default: fraction of base gate count.
DEFAULT_DENSITY = 0.15


def campaign_specs(
    count: int,
    seed: int = 0,
    variant: str = MIX,
    num_inputs: int = 5,
    num_gates: int = 18,
    num_outputs: int = 2,
    plants: Optional[int] = None,
    density: float = DEFAULT_DENSITY,
    recipes: Optional[Sequence[str]] = None,
) -> List[ScenarioSpec]:
    """A deterministic corpus of ``count`` scenarios starting at ``seed``.

    Scenario ``i`` plants into ``random_circuit(seed=(seed+i) ^ 0x5EED)``
    with plant seed ``seed+i`` -- the same XOR split
    :func:`repro.circuits.random_redundant_circuit` uses, so base
    structure and plant placement draw from unrelated streams.
    """
    if variant not in VARIANTS + (MIX,):
        raise ValueError(
            f"unknown variant {variant!r}; choose from {VARIANTS + (MIX,)}"
        )
    if plants is None:
        plants = max(1, round(num_gates * density))
    specs: List[ScenarioSpec] = []
    for i in range(count):
        s = seed + i
        v = variant
        if variant == MIX:
            v = NEUTRAL if i % 2 == 0 else DEGRADING
        specs.append(ScenarioSpec(
            name=f"fuzz-{s}-{v[:3]}",
            base={
                "factory": "random",
                "params": {
                    "num_inputs": num_inputs,
                    "num_gates": num_gates,
                    "num_outputs": num_outputs,
                    "seed": s ^ 0x5EED,
                },
            },
            seed=s,
            plants=plants,
            variant=v,
            recipes=list(recipes) if recipes else None,
        ))
    return specs


def job_for_spec(
    spec: ScenarioSpec,
    oracle: bool = True,
    check_irredundant: bool = True,
    mode: str = "static",
) -> Job:
    """The engine Job grading one scenario (result under key ``"fuzz"``)."""
    return Job(
        name=spec.name,
        factory="fuzz_planted",
        params=spec.to_dict(),
        pipeline=[StageCall(
            "fuzz_grade",
            {
                "spec": spec.to_dict(),
                "oracle": oracle,
                "check_irredundant": check_irredundant,
                "mode": mode,
            },
            label="fuzz",
        )],
    )


@dataclass
class CampaignReport:
    """Aggregated campaign outcome (JSON-able via :meth:`to_dict`)."""

    scenarios: List[Dict[str, Any]]
    summary: Dict[str, Any]
    minimized: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.summary["failures"] == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "summary": self.summary,
            "scenarios": self.scenarios,
            "minimized": self.minimized,
        }

    def save(self, path: str) -> str:
        os.makedirs(
            os.path.dirname(os.path.abspath(path)), exist_ok=True
        )
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def summarize(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-scenario grade payloads into campaign-level scores."""
    mismatch_census: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    planted = proved = 0
    recall_min = 1.0
    failures = 0
    seconds = 0.0
    for payload in payloads:
        if not payload.get("ok", False):
            failures += 1
        for item in payload.get("mismatches", []):
            kind = item["kind"]
            mismatch_census[kind] = mismatch_census.get(kind, 0) + 1
        if "error" in payload:
            mismatch_census["job_error"] = (
                mismatch_census.get("job_error", 0) + 1
            )
            continue
        planted += len(payload.get("planted", []))
        proved += payload.get("proved", 0)
        recall_min = min(recall_min, payload.get("recall", 1.0))
        seconds += payload.get("seconds", 0.0)
        for key, value in payload.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    return {
        "scenarios": len(payloads),
        "failures": failures,
        "planted": planted,
        "proved": proved,
        "recall": (proved / planted) if planted else 1.0,
        "recall_min": recall_min,
        "mismatches": mismatch_census,
        "seconds": seconds,
        "counters": counters,
    }


def run_campaign(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    stage_timeout: Optional[float] = None,
    oracle: bool = True,
    check_irredundant: bool = True,
    mode: str = "static",
    report_path: Optional[str] = None,
    minimize_dir: Optional[str] = None,
    max_checks: int = 4000,
) -> CampaignReport:
    """Grade every scenario, aggregate, optionally minimize failures.

    ``minimize_dir``: write one pytest reproducer per reproducible
    failing mismatch (deduplicated per scenario x kind) into that
    directory; the report's ``minimized`` list records what was written.
    """
    engine_jobs = [
        job_for_spec(
            spec, oracle=oracle, check_irredundant=check_irredundant,
            mode=mode,
        )
        for spec in specs
    ]
    config = EngineConfig(
        jobs=jobs, cache_dir=cache_dir, stage_timeout=stage_timeout
    )
    report: RunReport = run_jobs(
        engine_jobs, config,
        meta={"suite": "fuzz_campaign", "scenarios": len(specs)},
    )
    payloads: List[Dict[str, Any]] = []
    for spec, result in zip(specs, report.results):
        payload = result.results.get("fuzz")
        if payload is None:
            payload = {
                "spec": spec.to_dict(),
                "ok": False,
                "error": result.error or "job produced no fuzz payload",
                "mismatches": [],
            }
        payloads.append(payload)

    minimized: List[Dict[str, Any]] = []
    if minimize_dir is not None:
        from .minimize import SHRINKABLE_KINDS, minimize_failure

        for payload in payloads:
            if payload.get("ok", False) or "error" in payload:
                continue
            done = set()
            for item in payload.get("mismatches", []):
                kind = item["kind"]
                if kind not in SHRINKABLE_KINDS or kind in done:
                    continue
                done.add(kind)
                shrunk = minimize_failure(
                    payload["spec"], item, out_dir=minimize_dir,
                    max_checks=max_checks, mode=mode,
                )
                if shrunk is not None:
                    minimized.append(shrunk)

    campaign = CampaignReport(
        scenarios=payloads,
        summary=summarize(payloads),
        minimized=minimized,
    )
    if report_path is not None:
        campaign.save(report_path)
    return campaign
