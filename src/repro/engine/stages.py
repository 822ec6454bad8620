"""The engine's stage and circuit-factory registries.

A *stage* is a pure function ``(circuit, params, ctx) -> StageOutcome``
over a circuit flowing through a pipeline.  Stages declare whether their
result may be cached; the runner handles fingerprinting, cache lookup,
timing, and work-counter attribution around them, so stage bodies stay
algorithm-only.

``params`` must be JSON-able (they are part of the cache key) with one
escape hatch: a live :class:`DelayModel` may be passed under the key
``"_model"``, which makes that stage call uncacheable.  Cacheable calls
name their model declaratively, e.g. ``{"model": {"kind": "unit",
"use_arrival_times": False}}``.

The *factory* registry maps a picklable spec -- ``(factory name, params
dict)`` -- to a built circuit, so worker processes can construct their
own inputs instead of shipping circuit objects across the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..circuits import (
    carry_lookahead_adder,
    carry_skip_adder,
    mcnc_circuit,
    random_circuit,
    random_redundant_circuit,
    ripple_carry_adder,
)
from ..core import kms
from ..network import Circuit
from ..sat import check_equivalence
from ..synth import speed_up
from ..timing import (
    AsBuiltDelayModel,
    DelayModel,
    UnitDelayModel,
    sensitizable_delay,
    topological_delay,
)


@dataclass
class StageOutcome:
    """What one stage call produced.

    ``circuit`` flows into the next stage; ``payload`` is the JSON-able
    result recorded (and cached); ``counters`` describe the result
    (gate counts, redundancies), never the work -- the runner adds that
    from a :class:`repro.counters.Window`; ``changed`` marks a
    transforming stage whose output circuit must be serialized into the
    cache entry.
    """

    circuit: Circuit
    payload: Dict[str, Any]
    counters: Dict[str, float] = field(default_factory=dict)
    changed: bool = False


@dataclass(frozen=True)
class StageDef:
    """A registered stage."""

    name: str
    fn: Callable[[Circuit, Dict[str, Any], Dict[str, Any]], StageOutcome]
    cacheable: bool = True


# ---------------------------------------------------------------------- #
# delay-model encoding
# ---------------------------------------------------------------------- #

def model_from_params(params: Dict[str, Any]) -> DelayModel:
    """The delay model a stage call should use.

    ``params["_model"]`` (a live model object) wins; otherwise
    ``params["model"]`` is a declarative ``{"kind": ...}`` dict; absent
    both, delays as built on the circuit.
    """
    live = params.get("_model")
    if live is not None:
        return live
    spec = params.get("model")
    if spec is None:
        return AsBuiltDelayModel()
    kind = spec["kind"]
    if kind == "unit":
        return UnitDelayModel(
            use_arrival_times=bool(spec.get("use_arrival_times", True))
        )
    if kind == "as_built":
        return AsBuiltDelayModel()
    raise ValueError(f"unknown delay model kind {kind!r}")


def model_params(model: Optional[DelayModel]) -> Optional[Dict[str, Any]]:
    """Declarative encoding of a model, or ``None`` if it has none
    (caller must then pass the object via ``"_model"`` and forfeit
    caching)."""
    if model is None or type(model) is AsBuiltDelayModel:
        return {"kind": "as_built"}
    if type(model) is UnitDelayModel:
        return {
            "kind": "unit",
            "use_arrival_times": bool(model.use_arrival_times),
        }
    return None


def cacheable_params(params: Dict[str, Any]) -> bool:
    """A call is cacheable only when its params are fully declarative."""
    return "_model" not in params


# ---------------------------------------------------------------------- #
# circuit factories
# ---------------------------------------------------------------------- #

def _factory_mcnc(params: Dict[str, Any]) -> Circuit:
    circuit = mcnc_circuit(params["name"])
    late = params.get("late_arrival", 0.0)
    if late and circuit.inputs:
        circuit.set_input_arrival(circuit.inputs[0], late)
    return circuit


def _factory_fuzz_planted(params: Dict[str, Any]) -> Circuit:
    """Planted-redundancy scenario circuit (params = ScenarioSpec dict).

    Lazy import: repro.fuzz imports this module for its base-circuit
    factories."""
    from ..fuzz.grade import ScenarioSpec, build_scenario

    return build_scenario(ScenarioSpec.from_dict(params)).circuit


FACTORIES: Dict[str, Callable[[Dict[str, Any]], Circuit]] = {
    "carry_skip_adder": lambda p: carry_skip_adder(
        p["nbits"], p["block"], p.get("cin_arrival", 0.0)
    ),
    "ripple_carry_adder": lambda p: ripple_carry_adder(p["nbits"]),
    "carry_lookahead_adder": lambda p: carry_lookahead_adder(p["nbits"]),
    "mcnc": _factory_mcnc,
    "random": lambda p: random_circuit(
        num_inputs=p.get("num_inputs", 5),
        num_gates=p.get("num_gates", 20),
        num_outputs=p.get("num_outputs", 2),
        seed=p["seed"],
        max_arrival=p.get("max_arrival", 0.0),
    ),
    "random_redundant": lambda p: random_redundant_circuit(
        num_inputs=p.get("num_inputs", 5),
        num_gates=p.get("num_gates", 15),
        seed=p["seed"],
    ),
    "fuzz_planted": _factory_fuzz_planted,
}


def build_circuit(factory: str, params: Dict[str, Any]) -> Circuit:
    try:
        make = FACTORIES[factory]
    except KeyError:
        raise ValueError(
            f"unknown circuit factory {factory!r}; "
            f"choose from {sorted(FACTORIES)}"
        ) from None
    return make(params)


# ---------------------------------------------------------------------- #
# stage bodies
# ---------------------------------------------------------------------- #

def _stage_generate(
    circuit: Optional[Circuit], params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    """Build the pipeline's input circuit from its factory spec."""
    built = build_circuit(params["factory"], params.get("params", {}))
    return StageOutcome(
        built,
        {"gates": built.num_gates(), "inputs": len(built.inputs),
         "outputs": len(built.outputs)},
        changed=True,
    )


def _stage_speed_up(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    model = model_from_params(params)
    fast, stats = speed_up(circuit, model)
    return StageOutcome(
        fast,
        {
            "iterations": stats.iterations,
            "collapsed_outputs": list(stats.collapsed_outputs),
            "bypassed_inputs": list(stats.bypassed_inputs),
            "delay_before": stats.delay_before,
            "delay_after": stats.delay_after,
            "gates": fast.num_gates(),
        },
        counters={"gates_in": circuit.num_gates(),
                  "gates_out": fast.num_gates()},
        changed=True,
    )


def _stage_atpg(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    from ..atpg import redundant_faults

    red = len(redundant_faults(circuit))
    return StageOutcome(
        circuit,
        {"redundancies": red},
        counters={"redundancies": red, "gates_in": circuit.num_gates()},
    )


def _stage_sense_delay(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    model = model_from_params(params)
    report = sensitizable_delay(circuit, model)
    return StageOutcome(
        circuit,
        {"delay": report.delay,
         "topological": topological_delay(circuit, model)},
    )


def _stage_kms(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    model = model_from_params(params)
    result = kms(
        circuit,
        mode=params.get("mode", "static"),
        model=model,
    )
    return StageOutcome(
        result.circuit,
        {
            "iterations": result.iterations,
            "duplicated_gates": result.duplicated_gates,
            "cleanup_steps": result.cleanup_steps,
            "gates_initial": circuit.num_gates(),
            "gates_final": result.circuit.num_gates(),
        },
        counters={"gates_in": circuit.num_gates(),
                  "gates_out": result.circuit.num_gates()},
        changed=True,
    )


def _stage_fraig(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    """SAT-sweep the circuit through the AIG substrate.

    Structural hashing plus fraiging collapses functionally-equivalent
    internal nodes; the result converts back to a ``Circuit`` so any
    downstream stage (atpg, sense_delay, verify) is oblivious to the
    detour.  Cacheable: sweeping is deterministic in ``seed``."""
    from ..aig import aig_to_circuit, circuit_to_aig, fraig

    aig, _ = circuit_to_aig(circuit)
    ands_in = aig.num_ands(live_only=True)
    result = fraig(
        aig,
        seed=int(params.get("seed", 0)),
        words=int(params.get("words", 2)),
        conflict_limit=params.get("conflict_limit", 1000),
    )
    swept = aig_to_circuit(result.aig, name=circuit.name)
    return StageOutcome(
        swept,
        {
            "ands_in": ands_in,
            "ands_out": result.aig.num_ands(live_only=True),
            "gates_out": swept.num_gates(),
            **result.stats.to_dict(),
        },
        counters={
            "gates_in": circuit.num_gates(),
            "gates_out": swept.num_gates(),
            "ands_in": ands_in,
            "ands_out": result.aig.num_ands(live_only=True),
        },
        changed=True,
    )


def _stage_verify(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    """Equivalence check of the current circuit against the pipeline's
    generated input (uncacheable: it is the trust anchor).

    ``params["method"]`` picks the engine: ``"fraig"`` (default, see
    :mod:`repro.sat.equivalence`) or ``"cnf"`` (the miter baseline)."""
    baseline = ctx.get("generated")
    if baseline is None:
        raise ValueError("verify stage needs a generated baseline in ctx")
    method = params.get("method", "fraig")
    equivalent = check_equivalence(baseline, circuit, method=method).equivalent
    return StageOutcome(
        circuit,
        {"equivalent": equivalent, "method": method},
        counters={"equivalent": int(equivalent)},
    )


def _stage_fuzz_plant(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    """Insert planted redundancies into the flowing circuit.

    Unlike the ``fuzz_planted`` factory (which builds a whole scenario
    from a spec), this stage plants into *whatever circuit the pipeline
    carries* -- named benches, adders, post-speed_up netlists."""
    from ..fuzz.plant import plant_redundancies

    result = plant_redundancies(
        circuit,
        plants=int(params.get("plants", 3)),
        seed=int(params.get("seed", 0)),
        variant=params.get("variant", "neutral"),
        recipes=params.get("recipes"),
    )
    return StageOutcome(
        result.circuit,
        {
            "planted": result.planted_payload(),
            "plants": [p.to_dict() for p in result.plants],
            "gates_in": circuit.num_gates(),
            "gates_out": result.circuit.num_gates(),
        },
        counters={"planted": len(result.plants),
                  "gates_in": circuit.num_gates(),
                  "gates_out": result.circuit.num_gates()},
        changed=True,
    )


def _stage_fuzz_grade(
    circuit: Circuit, params: Dict[str, Any], ctx: Dict[str, Any]
) -> StageOutcome:
    """Differential grading of a planted scenario (see repro.fuzz.grade).

    The scenario is rebuilt from ``params["spec"]``; the flowing circuit
    (built by the ``fuzz_planted`` factory from the same spec) pins the
    expected fingerprint, so cross-process generator nondeterminism
    surfaces as a graded mismatch instead of silently skewing recall."""
    from ..fuzz.grade import ScenarioSpec, grade_scenario
    from .hashing import circuit_fingerprint

    payload = grade_scenario(
        ScenarioSpec.from_dict(params["spec"]),
        oracle=bool(params.get("oracle", True)),
        check_irredundant=bool(params.get("check_irredundant", True)),
        mode=params.get("mode", "static"),
        expect=circuit_fingerprint(circuit),
    )
    counters = {
        "planted": len(payload["planted"]),
        "proved": payload["proved"],
        "mismatches": len(payload["mismatches"]),
        "gates_final": payload["gates_final"],
    }
    return StageOutcome(circuit, payload, counters=counters)


STAGES: Dict[str, StageDef] = {
    "generate": StageDef("generate", _stage_generate, cacheable=False),
    "speed_up": StageDef("speed_up", _stage_speed_up),
    "atpg": StageDef("atpg", _stage_atpg),
    "sense_delay": StageDef("sense_delay", _stage_sense_delay),
    "kms": StageDef("kms", _stage_kms),
    "fraig": StageDef("fraig", _stage_fraig),
    "verify": StageDef("verify", _stage_verify, cacheable=False),
    "fuzz_plant": StageDef("fuzz_plant", _stage_fuzz_plant),
    "fuzz_grade": StageDef("fuzz_grade", _stage_fuzz_grade),
}


def get_stage(name: str) -> StageDef:
    try:
        return STAGES[name]
    except KeyError:
        raise ValueError(
            f"unknown stage {name!r}; choose from {sorted(STAGES)}"
        ) from None
