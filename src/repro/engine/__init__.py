"""Parallel experiment engine with content-addressed result caching.

The engine turns the repo's serial, uncached experiment loops into
declarative stage pipelines (*generate -> speed_up -> atpg -> kms ->
verify*) that fan out across circuits with a process pool and memoize
every cacheable stage on disk, keyed by a canonical fingerprint of the
stage's input circuit.  See ``docs/ENGINE.md`` for the stage graph, the
cache key scheme, and the telemetry schema.
"""

from .cache import ResultCache, cache_key
from .hashing import circuit_fingerprint, gate_fingerprints
from .runner import (
    EngineConfig,
    Job,
    JobResult,
    RunReport,
    StageCall,
    StageTimeout,
    execute_job,
    run_jobs,
    run_pipeline,
)
from .serialize import circuit_from_dict, circuit_to_dict
from .stages import (
    FACTORIES,
    STAGES,
    StageDef,
    StageOutcome,
    build_circuit,
    get_stage,
    model_from_params,
    model_params,
)
from .sweep import (
    CSA_MODEL,
    FUZZ_SMOKE_COUNT,
    FUZZ_SMOKE_SEED,
    MCNC_MODEL,
    fuzz_jobs,
    fuzz_nightly_jobs,
    fuzz_smoke_jobs,
    random_jobs,
    rows_from_report,
    run_table1,
    scaling_jobs,
    table1_jobs,
    table1_pipeline,
)
from .telemetry import StageRecord, Telemetry

__all__ = [
    "CSA_MODEL",
    "EngineConfig",
    "FACTORIES",
    "Job",
    "JobResult",
    "MCNC_MODEL",
    "ResultCache",
    "RunReport",
    "STAGES",
    "StageCall",
    "StageDef",
    "StageOutcome",
    "StageRecord",
    "StageTimeout",
    "Telemetry",
    "build_circuit",
    "cache_key",
    "circuit_fingerprint",
    "circuit_from_dict",
    "circuit_to_dict",
    "FUZZ_SMOKE_COUNT",
    "FUZZ_SMOKE_SEED",
    "execute_job",
    "fuzz_jobs",
    "fuzz_nightly_jobs",
    "fuzz_smoke_jobs",
    "gate_fingerprints",
    "get_stage",
    "model_from_params",
    "model_params",
    "random_jobs",
    "rows_from_report",
    "run_jobs",
    "run_pipeline",
    "run_table1",
    "scaling_jobs",
    "table1_jobs",
    "table1_pipeline",
]
