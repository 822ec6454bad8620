"""The command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import parse_blif
from repro.sat import check_equivalence


@pytest.fixture
def csa_blif(tmp_path):
    path = tmp_path / "csa.blif"
    assert main(["generate", "csa2.2", "-o", str(path)]) == 0
    return path


def test_generate_and_roundtrip(csa_blif):
    circuit = parse_blif(csa_blif.read_text())
    assert len(circuit.inputs) == 5
    assert len(circuit.outputs) == 3


def test_generate_figures(tmp_path):
    for name in ("fig1", "fig2", "fig4", "rca2", "cla2", "rd73"):
        out = tmp_path / f"{name}.blif"
        assert main(["generate", name, "-o", str(out)]) == 0
        assert out.read_text().startswith(".model")


def test_generate_unknown():
    assert main(["generate", "c17"]) == 2


def test_kms_command(csa_blif, tmp_path, capsys):
    out = tmp_path / "irr.blif"
    code = main(
        ["kms", str(csa_blif), "-o", str(out), "--zero-arrivals"]
    )
    assert code == 0
    before = parse_blif(csa_blif.read_text())
    after = parse_blif(out.read_text())
    assert check_equivalence(before, after).equivalent


def test_kms_rejects_an_empty_blif(tmp_path):
    """An empty file -- what a failed ``repro generate ... > f.blif``
    leaves behind -- declares no outputs, so ``kms`` must fail instead
    of reporting an equivalent, irredundant empty circuit."""
    empty = tmp_path / "empty.blif"
    empty.write_text("")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "kms", str(empty)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "declares no .outputs" in proc.stderr
    assert "equivalent=True" not in proc.stderr
    # a one-line error with the code ``repro generate`` uses for a bad
    # circuit name, not an escaped exception
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {empty}: the model declares no .outputs\n"


@pytest.mark.parametrize("command", ["kms", "timing", "atpg", "aig"])
def test_commands_reject_a_bad_table_row(tmp_path, capsys, command):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1 1\n.end\n")
    argv = [command, "stats", str(bad)] if command == "aig" else [command, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: bad table row")
    assert err.count("\n") == 1


def test_kms_rejects_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.blif"
    assert main(["kms", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_timing_command(csa_blif, capsys):
    assert main(["timing", str(csa_blif), "--paths", "3"]) == 0
    captured = capsys.readouterr().out
    assert "topological delay" in captured
    assert "sensitizable" in captured or "false" in captured


def _report(text):
    """``repro atpg`` stdout as {label: value}."""
    return {
        label.strip(): value.strip()
        for label, _, value in (
            line.partition(":") for line in text.splitlines()
            if not line.startswith(" ")
        )
    }


def test_atpg_command(csa_blif, capsys):
    assert main(["atpg", str(csa_blif), "--tests"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["redundant faults"] == "2"
    # the tests detect every testable fault: coverage is the testable
    # share of the collapsed list
    faults = int(report["collapsed faults"])
    assert report["fault coverage"] == f"{(faults - 2) / faults:.1%}"
    match = re.fullmatch(
        r"(\d+) vectors \(compacted from (\d+)\)", report["test set"]
    )
    assert match is not None
    assert 0 < int(match.group(1)) <= int(match.group(2))


def test_atpg_prints_every_sim_work_counter(csa_blif, capsys):
    from repro.sim.kernel import WORK_COUNTERS

    assert main(["atpg", str(csa_blif), "--tests"]) == 0
    (line,) = [
        ln for ln in capsys.readouterr().err.splitlines()
        if ln.startswith("sim kernel work")
    ]
    pairs = line.split(":", 1)[1].split(",")
    names = tuple(pair.split("=")[0].strip() for pair in pairs)
    assert names == WORK_COUNTERS


def test_atpg_prints_every_proof_counter(csa_blif, capsys):
    from repro.atpg import PROOF_COUNTERS

    assert main(["atpg", str(csa_blif)]) == 0
    (line,) = [
        ln for ln in capsys.readouterr().err.splitlines()
        if ln.startswith("proof work")
    ]
    pairs = line.split(":", 1)[1].split(",")
    names = tuple(pair.split("=")[0].strip() for pair in pairs)
    assert names == PROOF_COUNTERS


def test_table1_quick(capsys):
    assert main(["table1", "--which", "csa", "--quick"]) == 0
    captured = capsys.readouterr().out
    assert "csa 2.2" in captured


def test_generate_verilog(tmp_path):
    out = tmp_path / "fig4.v"
    assert main(
        ["generate", "fig4", "-o", str(out), "--format", "verilog"]
    ) == 0
    text = out.read_text()
    assert text.startswith("module fig4_c2_cone(")
    assert "endmodule" in text


def test_kms_verilog_output(tmp_path):
    blif = tmp_path / "in.blif"
    assert main(["generate", "csa2.2", "-o", str(blif)]) == 0
    out = tmp_path / "out.v"
    assert main(
        [
            "kms",
            str(blif),
            "-o",
            str(out),
            "--zero-arrivals",
            "--format",
            "verilog",
        ]
    ) == 0
    assert "module" in out.read_text()


def test_aig_stats_command(csa_blif, capsys):
    assert main(["aig", "stats", str(csa_blif)]) == 0
    out = capsys.readouterr().out
    assert "and nodes" in out and "live ands" in out


def test_aig_fraig_command(csa_blif, tmp_path, capsys):
    out = tmp_path / "swept.blif"
    assert main(["aig", "fraig", str(csa_blif), "-o", str(out)]) == 0
    original = parse_blif(csa_blif.read_text())
    swept = parse_blif(out.read_text())
    assert check_equivalence(original, swept).equivalent


def test_aig_fraig_command_on_mcnc(tmp_path, capsys):
    blif = tmp_path / "f51m.blif"
    assert main(["generate", "f51m", "-o", str(blif)]) == 0
    out = tmp_path / "swept.blif"
    assert main(["aig", "fraig", str(blif), "-o", str(out)]) == 0
    original = parse_blif(blif.read_text())
    swept = parse_blif(out.read_text())
    assert check_equivalence(original, swept).equivalent


def test_aig_redundant_command(csa_blif, tmp_path, capsys):
    # pre-KMS carry-skip: redundant edges exist -> exit 1
    assert main(["aig", "redundant", str(csa_blif)]) == 1
    assert "stuck-at" in capsys.readouterr().out
    # after KMS: clean -> exit 0
    irr = tmp_path / "irr.blif"
    assert main(["kms", str(csa_blif), "-o", str(irr)]) == 0
    capsys.readouterr()
    assert main(["aig", "redundant", str(irr)]) == 0
    assert "redundant AIG edges: 0" in capsys.readouterr().out


def test_generate_randred_prints_planted_faults(tmp_path, capsys):
    out = tmp_path / "randred.blif"
    assert main(["generate", "randred", "--seed", "3", "-o", str(out)]) == 0
    assert out.read_text().startswith(".model")
    err = capsys.readouterr().err
    assert "# planted:" in err and "s-a-0" in err


def test_fuzz_gen_command(tmp_path, capsys):
    out = tmp_path / "planted.blif"
    assert main([
        "fuzz", "gen", "--seed", "3", "--plants", "2", "-o", str(out),
    ]) == 0
    assert out.read_text().startswith(".model")
    err = capsys.readouterr().err
    assert err.count("# planted:") == 2


def test_fuzz_grade_command(capsys):
    import json

    assert main(["fuzz", "grade", "--seed", "3", "--plants", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["recall"] == 1.0


def test_fuzz_campaign_command(tmp_path, capsys):
    import json

    report = tmp_path / "campaign.json"
    assert main([
        "fuzz", "campaign", "--count", "3", "--seed", "60",
        "--report", str(report),
    ]) == 0
    assert "0 failures" in capsys.readouterr().out
    assert json.loads(report.read_text())["ok"] is True


def test_fuzz_minimize_command(tmp_path, capsys):
    import json

    # a hand-written failing report whose mismatch does NOT reproduce
    # under the real engine: minimize runs, writes nothing, exits 0
    report = tmp_path / "campaign.json"
    spec = {
        "name": "x", "seed": 5, "plants": 3, "variant": "neutral",
        "base": {"factory": "random",
                 "params": {"num_inputs": 5, "num_gates": 18,
                            "num_outputs": 2, "seed": 42}},
    }
    report.write_text(json.dumps({"scenarios": [{
        "spec": spec, "ok": False,
        "mismatches": [{"kind": "recall_miss", "detail": "stale",
                        "fault": ["conn", 1, 0]}],
    }]}))
    out_dir = tmp_path / "repros"
    assert main([
        "fuzz", "minimize", str(report), "--out", str(out_dir),
    ]) == 0
    assert "minimized 0" in capsys.readouterr().out


def test_bench_fuzz_smoke_suite(capsys):
    assert main([
        "bench", "--suite", "fuzz_smoke", "--jobs", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "30 scenarios, 0 failures" in out
    assert "recall 90/90" in out


def test_bench_verify_flag(capsys, tmp_path):
    telemetry = tmp_path / "t.json"
    assert main([
        "bench", "--suite", "table1", "--which", "csa", "--quick",
        "--verify", "fraig", "--telemetry", str(telemetry),
    ]) == 0
    import json

    records = json.loads(telemetry.read_text())["records"]
    verifies = [r for r in records if r["stage"] == "verify"]
    assert verifies
    assert all(r["counters"]["sat_calls"] == 0 for r in verifies)
    assert all(r["counters"]["equivalent"] == 1 for r in verifies)
