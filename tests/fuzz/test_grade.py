"""The differential grading harness."""

import pytest

from repro.fuzz import MISMATCH_KINDS, ScenarioSpec, build_scenario, grade_scenario


def _spec(seed=5, variant="neutral", plants=3):
    return ScenarioSpec(
        name=f"t-{seed}-{variant}",
        base={
            "factory": "random",
            "params": {"num_inputs": 5, "num_gates": 14,
                       "num_outputs": 2, "seed": 42},
        },
        seed=seed,
        plants=plants,
        variant=variant,
    )


def test_spec_roundtrip():
    spec = _spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    spec = _spec(variant="degrading")
    spec = ScenarioSpec(
        name=spec.name, base=spec.base, seed=spec.seed,
        plants=spec.plants, variant=spec.variant,
        recipes=["absorb_and", "dup_literal"],
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_build_scenario_deterministic():
    a = build_scenario(_spec())
    b = build_scenario(_spec())
    assert a.planted_payload() == b.planted_payload()


@pytest.mark.parametrize("variant", ["neutral", "degrading"])
def test_clean_grade_passes(variant):
    payload = grade_scenario(_spec(variant=variant))
    assert payload["ok"], payload["mismatches"]
    assert payload["recall"] == 1.0
    assert payload["proved"] == len(payload["planted"]) == 3
    assert payload["oracle_redundant"] == 3
    assert payload["mismatches"] == []
    delay = payload["delay"]
    assert delay["final_sense"] <= delay["planted_sense"]
    assert delay["final_topo"] <= delay["planted_topo"]
    if variant == "neutral":
        assert delay["planted_topo"] == delay["base_topo"]
        assert delay["final_topo"] <= delay["base_topo"]
    assert payload["counters"]
    assert payload["seconds"] > 0


def test_broken_classifier_yields_recall_miss_and_divergence():
    refuser = lambda circuit, faults: []  # noqa: E731 - test double
    payload = grade_scenario(_spec(), classifier=refuser)
    assert not payload["ok"]
    assert payload["recall"] == 0.0
    kinds = {m["kind"] for m in payload["mismatches"]}
    assert kinds == {"recall_miss", "divergence"}
    assert kinds <= set(MISMATCH_KINDS)
    # every fault-shaped mismatch carries its fault triple for minimize
    for item in payload["mismatches"]:
        fkind, site, value = item["fault"]
        assert fkind == "conn" and value in (0, 1)


def test_expect_fingerprint_cross_check():
    good = grade_scenario(_spec(), oracle=False, check_irredundant=False)
    ok = grade_scenario(
        _spec(), oracle=False, check_irredundant=False,
        expect=good["fingerprint"],
    )
    assert ok["ok"]
    bad = grade_scenario(
        _spec(), oracle=False, check_irredundant=False, expect="bogus"
    )
    assert not bad["ok"]
    assert bad["mismatches"][0]["kind"] == "generator_nondeterminism"


def test_payload_is_json_able():
    import json

    payload = grade_scenario(_spec(plants=2))
    assert json.loads(json.dumps(payload)) == payload
