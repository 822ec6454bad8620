"""The fast examples run to completion against the current API.

Each example runs in a fresh interpreter, as a user would run it.  The
slow ones (``quickstart``, ``synthesis_flow``) and the ones that need a
server or a process pool (``serve_client``, ``parallel_table1``) are
left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_EXAMPLES = [
    "atpg_and_testing",
    "carry_skip_study",
    "false_path_analysis",
    "speedtest_hazard",
    "sequential_accumulator",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
