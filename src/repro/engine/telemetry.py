"""Per-stage counters and timers for engine runs.

Every stage execution (or cache hit) produces one :class:`StageRecord`;
a :class:`Telemetry` object is an append-only list of records plus run
metadata, mergeable across worker processes.  It is the single timing
authority for the bench harness -- ``repro.bench`` reports wall time
from these records rather than wrapping workloads in ad-hoc ``time``
calls, so serial and parallel runs report comparable numbers.

JSON schema (``to_dict``):

```
{
  "schema": "repro.engine.telemetry/1",
  "meta":   {...run configuration, free-form...},
  "records": [
    {"job": "csa 2.2", "stage": "kms", "label": "kms",
     "seconds": 1.23, "cache": "miss",        # hit|miss|off|uncacheable
     "counters": {"gates_in": 23, "gates_out": 18, "sat_calls": 41,
                  ...every repro.counters name...},
     "error": null},
    ...
  ],
  "totals": {"jobs": 13, "records": 65, "seconds": 94.2,
             "cache_hits": 0, "cache_misses": 40,
             "stage_executions": {"kms": 13, "atpg": 13, ...}}
}
```

``cache`` states: ``hit`` (served from cache), ``miss`` (cacheable,
executed, result stored), ``off`` (cacheable but no cache configured),
``uncacheable`` (stage or params cannot be cached).  ``hit`` records
count as zero stage executions -- the warm-cache acceptance check is
``stage_executions["kms"] == 0``.

An executed record's counters are the stage's descriptive counters
(gate counts, redundancies) plus every work counter of
:mod:`repro.counters` -- the one glossary of them -- as the delta of a
window over the attempt.  The cache stores only the descriptive
counters, so a hit record carries no work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

SCHEMA = "repro.engine.telemetry/1"

CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_OFF = "off"
CACHE_UNCACHEABLE = "uncacheable"


def now() -> float:
    """Monotonic timestamp for stage timing (the engine's one clock)."""
    return time.perf_counter()


@dataclass
class StageRecord:
    """One stage execution (or cache hit) of one job."""

    job: str
    stage: str
    label: str
    seconds: float
    cache: str = CACHE_UNCACHEABLE
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def executed(self) -> bool:
        """True when the stage actually ran (not served from cache)."""
        return self.cache != CACHE_HIT and self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job,
            "stage": self.stage,
            "label": self.label,
            "seconds": self.seconds,
            "cache": self.cache,
            "counters": dict(self.counters),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageRecord":
        return cls(
            job=data["job"],
            stage=data["stage"],
            label=data["label"],
            seconds=data["seconds"],
            cache=data["cache"],
            counters=dict(data.get("counters", {})),
            error=data.get("error"),
        )


class Telemetry:
    """Append-only collection of stage records for one engine run.

    Live consumers can observe records as they land -- without waiting
    for end-of-run collection -- through :meth:`subscribe`, which
    registers a callback invoked (synchronously, on the appending
    thread) with every record added from then on.  Subscriptions change
    neither the stored records nor the ``to_dict`` JSON schema.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        self.records: List[StageRecord] = []
        self._subscribers: List[Callable[[StageRecord], None]] = []

    def subscribe(
        self, callback: Callable[[StageRecord], None]
    ) -> Callable[[StageRecord], None]:
        """Call ``callback(record)`` for every record appended after
        this point.  Returns the callback (for ``unsubscribe``)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[StageRecord], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify(self, record: StageRecord) -> None:
        for callback in list(self._subscribers):
            callback(record)

    def add(self, record: StageRecord) -> StageRecord:
        self.records.append(record)
        self._notify(record)
        return record

    def extend(self, records: Iterable[StageRecord]) -> None:
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache == CACHE_HIT)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if r.cache == CACHE_MISS)

    def executions(self, stage: Optional[str] = None) -> int:
        """Count of records where the stage body actually ran."""
        return sum(
            1
            for r in self.records
            if r.executed and (stage is None or r.stage == stage)
        )

    def job_seconds(self, job: str) -> float:
        return sum(r.seconds for r in self.records if r.job == job)

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def stage_executions(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out.setdefault(r.stage, 0)
            if r.executed:
                out[r.stage] += 1
        return out

    def counter_total(self, name: str) -> float:
        return sum(r.counters.get(name, 0) for r in self.records)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "records": [r.to_dict() for r in self.records],
            "totals": {
                "jobs": len({r.job for r in self.records}),
                "records": len(self.records),
                "seconds": self.total_seconds(),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "errors": sum(1 for r in self.records if r.error),
                "sat_calls": self.counter_total("sat_calls"),
                "stage_executions": self.stage_executions(),
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Telemetry":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"not a telemetry dump: {data.get('schema')!r}")
        out = cls(meta=data.get("meta"))
        out.extend(StageRecord.from_dict(r) for r in data.get("records", []))
        return out

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> str:
        """Human-readable per-stage roll-up."""
        by_stage: Dict[str, List[StageRecord]] = {}
        for r in self.records:
            by_stage.setdefault(r.stage, []).append(r)
        header = (
            f"{'Stage':<12} {'Runs':>5} {'Exec':>5} {'Hits':>5} "
            f"{'Errors':>6} {'Seconds':>9} {'SAT':>7}"
        )
        lines = ["Engine telemetry", "=" * len(header), header,
                 "-" * len(header)]
        for stage in sorted(by_stage):
            recs = by_stage[stage]
            lines.append(
                f"{stage:<12} {len(recs):>5d} "
                f"{sum(1 for r in recs if r.executed):>5d} "
                f"{sum(1 for r in recs if r.cache == CACHE_HIT):>5d} "
                f"{sum(1 for r in recs if r.error):>6d} "
                f"{sum(r.seconds for r in recs):>9.2f} "
                f"{int(sum(r.counters.get('sat_calls', 0) for r in recs)):>7d}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"total {self.total_seconds():.2f}s over "
            f"{len({r.job for r in self.records})} jobs; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses"
        )
        return "\n".join(lines)
