"""Differential grading harness for planted-redundancy scenarios.

One *scenario* = a base circuit spec (an :data:`repro.engine.stages.FACTORIES`
entry) + a planting seed/variant.  :func:`grade_scenario` rebuilds it,
runs the engines under test, and scores them against the ground truth
the generator recorded:

* **recall** -- fraction of planted untestable faults the classifier
  under test (:class:`repro.atpg.ProofEngine` by default) proves
  redundant.  The planted list is classified *directly* (no fault
  collapsing in between), so recall is exact.
* **oracle differential** -- the same list through the from-scratch
  SAT-ATPG oracle; any disagreement between the incremental engine and
  the oracle is a ``divergence`` mismatch, and an oracle verdict of
  *testable* on a planted fault is a ``plant_unsound`` mismatch (a
  generator bug, graded separately so it is never silently folded into
  engine recall).
* **false removals** -- KMS output fraig-checked against the
  *pre-insertion* base; non-equivalence means redundancy removal
  destroyed function.
* **delay preservation** -- KMS's contract is final delay <= the delay
  of the circuit it was handed; for delay-neutral plants the planted
  circuit's topological delay equals the base's, so the final circuit
  must additionally be no slower than the original base.
* **residual redundancy** -- the KMS output should be irredundant.

Every check that fails appends a ``(kind, detail)`` mismatch; the
payload is JSON-able and flows through the engine cache / campaign
report unchanged.  Mismatch kinds are the vocabulary
:mod:`repro.fuzz.minimize` shrinks by.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..counters import Window
from ..network import Circuit
from .plant import NEUTRAL, PlantResult, plant_redundancies

#: Mismatch kinds grade_scenario can emit.
MISMATCH_KINDS = (
    "recall_miss",
    "false_removal",
    "delay_regression",
    "divergence",
    "plant_unsound",
    "residual_redundancy",
    "plant_not_neutral",
    "generator_nondeterminism",
)

#: classifier(circuit, faults) -> collection of faults proved redundant.
Classifier = Callable[[Circuit, Sequence[Any]], Any]


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible scenario: base-circuit factory spec + plant knobs."""

    name: str
    base: Dict[str, Any]  # {"factory": ..., "params": {...}}
    seed: int = 0
    plants: int = 3
    variant: str = NEUTRAL
    recipes: Optional[List[str]] = None

    def to_dict(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "name": self.name,
            "base": {
                "factory": self.base["factory"],
                "params": dict(self.base.get("params", {})),
            },
            "seed": self.seed,
            "plants": self.plants,
            "variant": self.variant,
        }
        if self.recipes is not None:
            spec["recipes"] = list(self.recipes)
        return spec

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "ScenarioSpec":
        return cls(
            name=spec["name"],
            base=spec["base"],
            seed=int(spec.get("seed", 0)),
            plants=int(spec.get("plants", 3)),
            variant=spec.get("variant", NEUTRAL),
            recipes=list(spec["recipes"]) if spec.get("recipes") else None,
        )


def build_scenario(spec: ScenarioSpec) -> PlantResult:
    """Deterministically rebuild a scenario's planted circuit + truth."""
    from ..engine.stages import build_circuit

    base = build_circuit(spec.base["factory"], spec.base.get("params", {}))
    return plant_redundancies(
        base,
        plants=spec.plants,
        seed=spec.seed,
        variant=spec.variant,
        recipes=spec.recipes,
    )


@dataclass
class _Mismatches:
    items: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, kind: str, detail: str, fault: Any = None) -> None:
        assert kind in MISMATCH_KINDS
        item: Dict[str, Any] = {"kind": kind, "detail": detail}
        if fault is not None:
            item["fault"] = [fault.kind, fault.site, fault.value]
        self.items.append(item)


def grade_scenario(
    spec: ScenarioSpec,
    oracle: bool = True,
    check_irredundant: bool = True,
    mode: str = "static",
    classifier: Optional[Classifier] = None,
    expect: Optional[str] = None,
) -> Dict[str, Any]:
    """Grade one scenario end to end; returns a JSON-able payload.

    ``classifier`` overrides the engine under test (used by the fuzz
    tests and the minimizer to inject known-broken engines);
    ``expect`` is a circuit fingerprint the rebuilt planted circuit
    must match (catches cross-process generator nondeterminism).
    """
    from ..atpg import ProofEngine, is_irredundant, redundant_faults
    from ..core import kms
    from ..engine.hashing import circuit_fingerprint
    from ..sat import check_equivalence
    from ..timing import (
        AsBuiltDelayModel,
        analyze,
        sensitizable_delay,
        topological_delay,
    )

    started = time.perf_counter()
    mismatches = _Mismatches()
    counters: Dict[str, float] = {}
    model = AsBuiltDelayModel()

    planted = build_scenario(spec)
    circuit, base, faults = planted.circuit, planted.base, planted.faults
    fingerprint = circuit_fingerprint(circuit)
    if expect is not None and fingerprint != expect:
        mismatches.add(
            "generator_nondeterminism",
            f"rebuilt fingerprint {fingerprint} != expected {expect}",
        )

    # --- classification recall on the exact planted list ------------- #
    window = Window()
    if classifier is not None:
        proved = set(classifier(circuit, faults))
    else:
        proved = set(ProofEngine(circuit).redundant_faults(faults))
    counters.update(
        (f"proof_{name}", value) for name, value in window.delta().items()
    )
    missed = [f for f in faults if f not in proved]
    for fault in missed:
        mismatches.add(
            "recall_miss",
            f"planted {fault.describe(circuit)} not proved",
            fault=fault,
        )
    recall = (
        (len(faults) - len(missed)) / len(faults) if faults else 1.0
    )

    # --- from-scratch oracle differential ----------------------------- #
    oracle_redundant: Optional[int] = None
    if oracle:
        oracle_set = set(redundant_faults(circuit, faults, incremental=False))
        oracle_redundant = len(oracle_set)
        for fault in faults:
            if fault not in oracle_set:
                mismatches.add(
                    "plant_unsound",
                    f"oracle found a test for planted "
                    f"{fault.describe(circuit)}",
                    fault=fault,
                )
            elif fault not in proved:
                mismatches.add(
                    "divergence",
                    f"oracle proves {fault.describe(circuit)} redundant; "
                    f"engine under test does not",
                    fault=fault,
                )

    # --- neutrality: planted arrivals must equal base arrivals -------- #
    base_topo = topological_delay(base, model)
    planted_topo = topological_delay(circuit, model)
    if spec.variant == NEUTRAL:
        base_arrival = analyze(base, model).arrival
        planted_arrival = analyze(circuit, model).arrival
        for gid, when in base_arrival.items():
            if planted_arrival.get(gid) != when:
                mismatches.add(
                    "plant_not_neutral",
                    f"gate {gid} arrival {when} -> "
                    f"{planted_arrival.get(gid)} after planting",
                )
                break

    # --- KMS under test ------------------------------------------------ #
    planted_sense = sensitizable_delay(circuit, model).delay
    result = kms(circuit, mode=mode, model=model)
    final = result.circuit
    counters.update(
        (f"kms_{name}", value) for name, value in result.counters.items()
    )
    counters["kms_iterations"] = result.iterations

    if not check_equivalence(base, final, method="fraig").equivalent:
        mismatches.add(
            "false_removal",
            "KMS output is not equivalent to the pre-insertion base",
        )

    final_sense = sensitizable_delay(final, model).delay
    final_topo = topological_delay(final, model)
    if final_sense > planted_sense:
        mismatches.add(
            "delay_regression",
            f"sensitizable delay {planted_sense} -> {final_sense}",
        )
    if final_topo > planted_topo:
        mismatches.add(
            "delay_regression",
            f"topological delay {planted_topo} -> {final_topo}",
        )
    if spec.variant == NEUTRAL and final_topo > base_topo:
        mismatches.add(
            "delay_regression",
            f"neutral plant: final topological delay {final_topo} "
            f"exceeds base {base_topo}",
        )

    if check_irredundant and not is_irredundant(final):
        mismatches.add(
            "residual_redundancy", "KMS output is not irredundant"
        )

    return {
        "spec": spec.to_dict(),
        "fingerprint": fingerprint,
        "planted": planted.planted_payload(),
        "recall": recall,
        "proved": len(proved & set(faults)),
        "oracle_redundant": oracle_redundant,
        "gates_base": base.num_gates(),
        "gates_planted": circuit.num_gates(),
        "gates_final": final.num_gates(),
        "delay": {
            "base_topo": base_topo,
            "planted_topo": planted_topo,
            "planted_sense": planted_sense,
            "final_topo": final_topo,
            "final_sense": final_sense,
        },
        "mismatches": mismatches.items,
        "ok": not mismatches.items,
        "seconds": time.perf_counter() - started,
        "counters": counters,
    }
