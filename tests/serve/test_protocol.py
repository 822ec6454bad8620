"""Wire-protocol unit tests: pipelines, circuit sources, job keys,
spec validation.  No daemon, no processes -- these are pure."""

import pytest

from repro.engine import circuit_to_dict
from repro.engine.hashing import circuit_fingerprint
from repro.io import write_blif
from repro.serve import (
    BadRequest,
    build_pipeline,
    job_key,
    parse_spec,
    resolve_circuit,
)


# -- build_pipeline ----------------------------------------------------- #

def test_named_pipelines_expand():
    kms = build_pipeline("kms", {"mode": "viability"})
    assert [c.stage for c in kms] == ["kms"]
    assert kms[0].params["mode"] == "viability"

    verify = build_pipeline("verify", {"method": "cnf"})
    assert [c.stage for c in verify] == ["kms", "verify"]
    assert verify[1].params["method"] == "cnf"

    sweep = build_pipeline("sweep")
    assert [c.stage for c in sweep] == [
        "atpg", "sense_delay", "kms", "sense_delay"
    ]  # the Table I pipeline

    assert [c.stage for c in build_pipeline("atpg")] == ["atpg"]
    assert [c.stage for c in build_pipeline("fraig")] == ["fraig"]


def test_unknown_pipeline_is_bad_request():
    with pytest.raises(BadRequest, match="unknown pipeline"):
        build_pipeline("mystery")
    with pytest.raises(BadRequest, match="non-empty list"):
        build_pipeline([])
    with pytest.raises(BadRequest, match="bad pipeline entry"):
        build_pipeline([{"params": {}}])
    with pytest.raises(BadRequest):
        build_pipeline([{"stage": "nonsense"}])


def test_explicit_stage_list_round_trips():
    calls = build_pipeline([
        {"stage": "kms", "params": {"mode": "static"}},
        {"stage": "verify", "params": {"method": "fraig"},
         "label": "check"},
    ])
    assert [c.stage for c in calls] == ["kms", "verify"]
    assert calls[1].label == "check"


def test_live_model_objects_rejected_on_the_wire():
    with pytest.raises(BadRequest, match="cross the wire"):
        build_pipeline([{"stage": "kms", "params": {"_model": object()}}])


# -- resolve_circuit ---------------------------------------------------- #

def test_json_spelling_preserves_fingerprint():
    builtin = resolve_circuit({"kind": "builtin", "name": "csa4.2"})
    as_json = resolve_circuit({
        "kind": "json", "circuit": circuit_to_dict(builtin)
    })
    assert circuit_fingerprint(as_json) == circuit_fingerprint(builtin)


def test_blif_spelling_is_self_consistent():
    # BLIF is lossy (arrival times; NAND decomposition on re-parse),
    # so builtin-vs-BLIF need not coalesce -- but the same BLIF text
    # always resolves to the same fingerprint.
    builtin = resolve_circuit({"kind": "builtin", "name": "csa4.2"})
    text = write_blif(builtin)
    one = resolve_circuit({"kind": "blif", "text": text})
    two = resolve_circuit({"kind": "blif", "text": text})
    assert circuit_fingerprint(one) == circuit_fingerprint(two)


def test_factory_source():
    circuit = resolve_circuit({
        "kind": "factory",
        "factory": "carry_skip_adder",
        "params": {"nbits": 4, "block": 2},
    })
    assert circuit.num_gates() > 0


@pytest.mark.parametrize("source", [
    None,
    {"no": "kind"},
    {"kind": "alien"},
    {"kind": "builtin", "name": "no-such-circuit"},
    {"kind": "builtin"},  # missing field
    {"kind": "blif", "text": "this is not blif"},
    {"kind": "json", "circuit": {"bogus": True}},
    {"kind": "blif", "text": ""},  # no outputs
])
def test_bad_circuit_sources_are_bad_requests(source):
    with pytest.raises(BadRequest):
        resolve_circuit(source)


# -- job_key ------------------------------------------------------------ #

def test_job_key_is_spelling_independent():
    builtin = resolve_circuit({"kind": "builtin", "name": "fig1"})
    as_json = resolve_circuit({
        "kind": "json", "circuit": circuit_to_dict(builtin)
    })
    pipeline = build_pipeline("kms")
    assert job_key(circuit_fingerprint(builtin), pipeline) == \
        job_key(circuit_fingerprint(as_json), pipeline)


def test_job_key_discriminates_pipeline_and_params():
    fp = circuit_fingerprint(
        resolve_circuit({"kind": "builtin", "name": "fig1"})
    )
    static = job_key(fp, build_pipeline("kms", {"mode": "static"}))
    viab = job_key(fp, build_pipeline("kms", {"mode": "viability"}))
    atpg = job_key(fp, build_pipeline("atpg"))
    assert len({static, viab, atpg}) == 3


# -- parse_spec --------------------------------------------------------- #

def test_parse_spec_defaults_and_knobs():
    spec = parse_spec({
        "circuit": {"kind": "builtin", "name": "fig1"},
        "pipeline": "kms",
        "priority": -5,
        "timeout": 2.5,
        "name": "mine",
    })
    assert spec.name == "mine"
    assert spec.priority == -5
    assert spec.timeout == 2.5
    assert [c.stage for c in spec.pipeline] == ["kms"]

    bare = parse_spec({"circuit": {"kind": "builtin", "name": "fig1"}})
    assert bare.priority == 0 and bare.timeout is None
    assert [c.stage for c in bare.pipeline] == ["kms"]  # default


@pytest.mark.parametrize("body,match", [
    ("not a dict", "JSON object"),
    ({}, "circuit"),
    ({"circuit": {"kind": "builtin", "name": "fig1"},
      "timeout": "soon"}, "bad timeout"),
    ({"circuit": {"kind": "builtin", "name": "fig1"},
      "timeout": -1}, "positive"),
    ({"circuit": {"kind": "builtin", "name": "fig1"},
      "priority": "high"}, "bad priority"),
])
def test_parse_spec_rejects_malformed_bodies(body, match):
    with pytest.raises(BadRequest, match=match):
        parse_spec(body)


def test_debug_hooks_require_debug_daemon():
    body = {
        "circuit": {"kind": "builtin", "name": "fig1"},
        "debug": {"spin": 1},
    }
    with pytest.raises(BadRequest, match="debug"):
        parse_spec(body, debug_enabled=False)
    spec = parse_spec(body, debug_enabled=True)
    assert spec.debug == {"spin": 1}


def test_worker_payload_is_plain_data():
    import json

    spec = parse_spec({"circuit": {"kind": "builtin", "name": "fig1"}})
    payload = spec.worker_payload()
    json.dumps(payload)  # picklable AND json-able: plain dicts only
    assert payload["pipeline"][0]["stage"] == "kms"
