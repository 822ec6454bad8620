"""Tests of the end-to-end benchmark harness itself."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import compare
import run
from check import check_output, untested_faults
from repro.atpg import faultsim
from repro.circuits import carry_skip_adder, ripple_carry_adder
from repro.circuits.random_logic import random_redundant_circuit_with_faults
from repro.core import kms
from repro.network import GateType
from repro.timing import AsBuiltDelayModel, UnitDelayModel
from trace import Span, Tracer, self_times, summarize, unfired

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------- checker


def test_checker_accepts_a_kms_output():
    circuit = carry_skip_adder(2, 2)
    model = UnitDelayModel(use_arrival_times=False)
    verdict = check_output(circuit, kms(circuit, model=model).circuit, model, seed=0)
    assert verdict.problems == []
    assert verdict.delay_out <= verdict.delay_in


def test_checker_rejects_a_non_equivalent_output():
    circuit = ripple_carry_adder(4)
    wrong = circuit.copy()
    gate = next(g for g in wrong.gates.values() if g.gtype is GateType.AND)
    gate.gtype = GateType.OR
    problems = check_output(circuit, wrong, AsBuiltDelayModel(), seed=0).problems
    assert any(p.startswith("not equivalent") for p in problems)


def test_checker_rejects_a_planted_redundancy():
    circuit, _planted = random_redundant_circuit_with_faults(seed=3)
    assert untested_faults(circuit, seed=0)
    problems = check_output(circuit, circuit, AsBuiltDelayModel(), seed=0).problems
    assert any(p.startswith("no test for fault") for p in problems)


def test_checker_rejects_a_slower_output():
    circuit = ripple_carry_adder(4)
    slower = circuit.copy()
    cout = slower.find_output("cout")
    driver = slower.conns[slower.gates[cout].fanin[0]].src
    slower.gates[driver].delay += 5
    verdict = check_output(circuit, slower, AsBuiltDelayModel(), seed=0)
    assert verdict.delay_out > verdict.delay_in
    assert [p for p in verdict.problems if p.startswith("slower")]
    assert len(verdict.problems) == 1


# ----------------------------------------------------------------- tracer


def _span(name, start, end, span_id, parent, outcome=None):
    return Span(name, start, end, span_id, parent, "c", outcome)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("core.kms", 0.0, 10.0, 0, None),
        _span("atpg.cleanup", 1.0, 4.0, 1, 0),
        _span("sat.solve", 3.0, 6.0, 2, 0),
        _span("atpg.podem", 2.0, 3.0, 3, 1, outcome="untestable"),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})
    stats = summarize(spans)
    assert stats["core.kms.s"] == pytest.approx(10.0)
    assert stats["core.kms.self_s"] == pytest.approx(5.0)
    assert stats["atpg.podem.untestable"] == 1
    assert stats["atpg.podem.testable"] == 0
    assert stats["timing.build.calls"] == 0


def test_tracer_rebinds_from_imports_and_restores_them():
    original = faultsim.fault_coverage
    probe = types.ModuleType("e2e_probe")
    probe.grade = original  # what `from repro.atpg.faultsim import ...` leaves
    sys.modules[probe.__name__] = probe
    try:
        tracer = Tracer()
        circuit = ripple_carry_adder(2)
        with tracer.installed():
            assert probe.grade is not original
            probe.grade(circuit, [], [])
        assert probe.grade is original
        assert faultsim.fault_coverage is original
        assert [s.name for s in tracer.spans] == ["sim.fault_coverage"]
    finally:
        del sys.modules[probe.__name__]


def test_unfired_names_spans_silent_on_every_workload():
    calls = {"a": {"core.kms.calls": 3}, "b": {"atpg.podem.calls": 1}}
    missing = unfired(calls)
    assert "core.kms" not in missing and "atpg.podem" not in missing
    assert "timing.build" in missing


# ---------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, list(reversed(base)), "lower", 0.1) == "unchanged"
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"


def test_compare_agreement(tmp_path, capsys):
    def write(name, kms_s):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in run.load_spec()["end_to_end"]}
        metrics["kms_s"]["value"] = kms_s
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {"w": {"metrics": metrics}}}))
        return str(path)

    same = [write(f"a{i}", 5.0 + 0.01 * i) for i in range(4)]
    again = [write(f"b{i}", 5.0 + 0.01 * i) for i in range(4)]
    slower = [write(f"c{i}", 6.0 + 0.01 * i) for i in range(4)]
    assert compare.main(same + ["--"] + again) == 0
    assert compare.main(same + ["--"] + slower) == 1
    assert "worse" in capsys.readouterr().out


# ------------------------------------------------------------------ run.py


def _small():
    return [
        ("rca 8", ripple_carry_adder(8), UnitDelayModel()),
        ("csa 2.2", carry_skip_adder(2, 2), UnitDelayModel(use_arrival_times=False)),
    ]


def test_one_round_smoke_run_is_correct_and_quick():
    start = time.perf_counter()
    record = run.run_workload(_small, seed=0, seconds=0, trace=False)
    assert time.perf_counter() - start < 15
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == 2 and record["rounds"] == 1
    names = {m["name"] for m in run.load_spec()["end_to_end"]}
    assert set(record["metrics"]) == names
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_traced_smoke_run_reports_every_declared_layer_metric():
    record = run.run_workload(_small, seed=1, seconds=0, trace=True)
    values = {k: m["value"] for k, m in record["metrics"].items()}
    assert set(values) == {m["name"] for m in run.load_spec()["per_layer"]}
    assert values["core.kms.calls"] == 2
    assert values["timing.build.calls"] == 2
    assert values["atpg.cleanup.calls"] == 2
    assert record["correct"]


def test_run_refuses_repro_switches(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_LEGACY", "1")
    assert run.main(["--workload", "planted"]) == 2


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "planted",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert child.stdout == ""
