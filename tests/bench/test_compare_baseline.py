"""The perf-gate comparer (``benchmarks/compare_baseline.py``), run as a
script the way the CI perf gate runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "compare_baseline.py"


def _payload(sat_proofs, **keys):
    row = {
        "name": "csa 2.2",
        "identical": True,
        "incremental": {"counters": {"sat_proofs": sat_proofs},
                        "seconds": 0.1},
    }
    return dict(keys, rows=[row])


def _gate(tmp_path, current, baseline):
    paths = []
    for name, payload in (("current", current), ("baseline", baseline)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    env = dict(os.environ)
    env.pop("GITHUB_STEP_SUMMARY", None)  # keep the table on stderr
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths],
        capture_output=True, text=True, env=env,
    )


def test_self_describing_baseline_gates(tmp_path):
    declared = {"result_key": "incremental", "gated_counters": ["sat_proofs"]}
    baseline = _payload(10, **declared)
    assert _gate(tmp_path, _payload(12), baseline).returncode == 0
    # 20 > 10 * 1.10 + 2: a regression
    assert _gate(tmp_path, _payload(20), baseline).returncode == 1


def test_baseline_without_declared_keys_fails_clearly(tmp_path):
    baseline = _payload(10, result_key="incremental")
    result = _gate(tmp_path, _payload(10), baseline)
    assert result.returncode == 1
    assert "declares no gated_counters" in result.stderr
    assert "regenerate it" in result.stderr
