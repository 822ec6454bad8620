"""Serialized circuits written by older versions stay loadable.

Earlier encoders emitted an optional ``"hints"`` key (gid groups of
generator-marked sub-blocks) in every circuit dict of an adder.  The key
no longer means anything: :func:`circuit_from_dict` must ignore it, so
cached stage results and serve artifact stores that carry it keep
loading -- as hits, to the same circuits.
"""

import json

from repro.circuits import carry_skip_adder, ripple_carry_adder
from repro.engine import (
    EngineConfig,
    Job,
    ResultCache,
    StageCall,
    circuit_from_dict,
    circuit_to_dict,
    run_jobs,
)
from repro.engine.hashing import circuit_fingerprint
from repro.engine.serialize import SCHEMA
from repro.engine.sweep import CSA_MODEL
from repro.serve.worker import execute_payload

KMS = StageCall("kms", {"model": CSA_MODEL, "mode": "static"})


def _legacy(data):
    """``data`` as an older encoder wrote it: one hint per 5 gids."""
    gids = [gid for gid, *_rest in data["gates"]]
    hints = [gids[i:i + 5] for i in range(0, len(gids), 5)]
    return dict(data, hints=hints)


def _legacify_store(root):
    """Rewrite every cached circuit dict under ``root`` with a legacy
    ``"hints"`` key; returns how many dicts were rewritten."""

    def walk(node):
        if isinstance(node, dict):
            if node.get("schema") == SCHEMA:
                node.update(_legacy(node))
                return 1
            return sum(walk(value) for value in node.values())
        if isinstance(node, list):
            return sum(walk(value) for value in node)
        return 0

    rewritten = 0
    for path in root.glob("*/*.json"):
        entry = json.loads(path.read_text())
        rewritten += walk(entry)
        path.write_text(json.dumps(entry))
    return rewritten


def test_legacy_hints_key_is_ignored():
    circuit = ripple_carry_adder(4)
    data = circuit_to_dict(circuit)
    assert "hints" not in data
    legacy = json.loads(json.dumps(_legacy(data)))
    loaded = circuit_from_dict(legacy)
    assert circuit_fingerprint(loaded) == circuit_fingerprint(
        circuit_from_dict(data)
    )
    assert circuit_to_dict(loaded) == data


def test_legacy_result_cache_entries_stay_readable(tmp_path):
    jobs = [
        Job(
            name="csa 4.2",
            factory="carry_skip_adder",
            params={"nbits": 4, "block": 2},
            pipeline=[StageCall("atpg", {}), KMS],
        )
    ]
    config = EngineConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
    cold = run_jobs(jobs, config)
    assert _legacify_store(tmp_path / "cache") > 0
    warm = run_jobs(jobs, config)
    assert cold.ok and warm.ok
    assert warm.telemetry.cache_misses == 0
    assert warm.telemetry.stage_executions()["kms"] == 0
    assert [(r.fingerprint, r.results) for r in warm.results] == [
        (r.fingerprint, r.results) for r in cold.results
    ]


def test_legacy_serve_artifact_store_stays_readable(tmp_path):
    payload = {
        "name": "csa 4.2",
        "circuit": _legacy(circuit_to_dict(carry_skip_adder(4, 2))),
        "pipeline": [KMS.to_dict()],
    }
    cold = execute_payload(payload, 0, ResultCache(tmp_path / "store"))
    assert _legacify_store(tmp_path / "store") > 0
    store = ResultCache(tmp_path / "store")
    warm = execute_payload(payload, 0, store)
    assert cold["ok"] and warm["ok"]
    assert store.hits > 0 and store.misses == 0
    assert warm["final_fingerprint"] == cold["final_fingerprint"]
    assert warm["blif"] == cold["blif"]
