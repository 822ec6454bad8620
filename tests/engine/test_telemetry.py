"""Telemetry subscriptions (and JSON-schema stability)."""

from repro.engine import StageRecord, Telemetry


def _record(i, stage="kms"):
    return StageRecord(
        job=f"job{i}", stage=stage, label=stage, seconds=0.1,
        counters={"sat_calls": i},
    )


def test_subscribe_sees_adds_and_extends():
    telemetry = Telemetry()
    seen = []
    callback = telemetry.subscribe(seen.append)
    telemetry.add(_record(0))
    telemetry.extend([_record(1), _record(2)])
    assert [r.job for r in seen] == ["job0", "job1", "job2"]
    telemetry.unsubscribe(callback)
    telemetry.add(_record(3))
    assert len(seen) == 3
    # the stored records are unaffected by subscriptions
    assert [r.job for r in telemetry.records] == [
        "job0", "job1", "job2", "job3",
    ]


def test_unsubscribe_unknown_callback_is_noop():
    Telemetry().unsubscribe(lambda r: None)


def test_json_schema_unchanged_by_streaming_api():
    telemetry = Telemetry(meta={"suite": "x"})
    telemetry.subscribe(lambda r: None)
    telemetry.add(_record(0))
    data = telemetry.to_dict()
    assert set(data) == {"schema", "meta", "records", "totals"}
    assert data["schema"] == "repro.engine.telemetry/1"
    assert set(data["records"][0]) == {
        "job", "stage", "label", "seconds", "cache", "counters", "error",
    }
    # round-trip still works and drops no records
    clone = Telemetry.from_dict(data)
    assert [r.job for r in clone.records] == ["job0"]
