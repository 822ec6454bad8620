"""Work counters in stage records: an executed record carries the
work its attempt counted, and a cache hit carries none."""

from repro.circuits import carry_skip_adder
from repro.core import kms
from repro.counters import GLOSSARY
from repro.engine import ResultCache, StageCall, Telemetry, run_pipeline
from repro.engine.sweep import CSA_MODEL
from repro.engine.telemetry import CACHE_HIT
from repro.timing import UnitDelayModel


def _work(record):
    return {
        name: value for name, value in record.counters.items()
        if name in GLOSSARY
    }


def test_cache_hits_replay_no_work(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    pipeline = [StageCall("atpg", {}), StageCall("kms", {})]
    runs = []
    for _ in range(2):
        telemetry = Telemetry()
        result = run_pipeline(
            carry_skip_adder(4, 2), pipeline, cache=cache,
            telemetry=telemetry,
        )
        assert result.ok, result.error
        runs.append(telemetry.records)
    cold, warm = runs
    assert [r.cache for r in warm] == [CACHE_HIT, CACHE_HIT]
    # the cold run did the work the warm run must not replay
    assert all(_work(r)["sat_proofs"] > 0 for r in cold)
    for record in warm:
        busy = {k: v for k, v in _work(record).items() if v}
        assert not busy, (record.stage, busy)
        # descriptive counters still replay
        assert record.counters["gates_in"] == cold[0].counters["gates_in"]


def test_kms_record_work_equals_a_direct_kms_call():
    telemetry = Telemetry()
    result = run_pipeline(
        carry_skip_adder(4, 2),
        [StageCall("kms", {"model": CSA_MODEL, "mode": "static"})],
        telemetry=telemetry,
    )
    assert result.ok, result.error
    (record,) = telemetry.records
    direct = kms(
        carry_skip_adder(4, 2),
        mode="static",
        model=UnitDelayModel(use_arrival_times=False),
    )
    assert _work(record) == direct.counters
    assert direct.counters["sat_calls"] > 0
    # csa 4.2's loop asks two exact questions on one run-long solver
    assert direct.counters["viability_checks_exact"] == 2
    assert 0 < direct.counters["loop_gate_encodings"] < 2 * len(
        carry_skip_adder(4, 2).gates
    )
