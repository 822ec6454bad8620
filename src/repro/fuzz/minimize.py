"""ddmin-style failure-case minimization for fuzz mismatches.

When :func:`repro.fuzz.grade.grade_scenario` reports a mismatch, the
scenario circuit may have dozens of gates, most of them irrelevant to
the failure.  :func:`shrink` reduces the circuit while a *predicate*
(failure-still-reproduces test) keeps returning True, using three
reduction moves iterated to a fixpoint:

1. **gate deletion** (ddmin halving chunks): delete a chunk of logic
   gates, bypassing each deleted gate's fanouts to its first fanin so
   the rest of the netlist stays connected;
2. **connection drops**: remove single fanin pins (legal for the AND/OR
   family, whose minimum fanin is 1);
3. **output drops**: remove primary outputs, narrowing the circuit to
   the cone that matters.

Every candidate is swept and validated (:func:`repro.network.check`)
before the predicate runs; function preservation is *not* required --
only the predicate defines what is interesting, exactly as in classic
delta debugging.

:func:`predicate_for` builds self-contained predicates for the mismatch
kinds grading emits (recall miss, oracle divergence, false removal,
delay regression, residual redundancy), and :func:`reproducer_source`
emits the minimized circuit as a ready-to-commit pytest case asserting
the *correct* behavior -- the generated test fails on the broken engine
and passes once it is fixed.  Circuits embed as
:func:`repro.engine.serialize.circuit_to_dict` JSON because BLIF
round-trips renumber gids/cids and would orphan the fault site.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..network import Circuit, GateType
from ..network.transform import sweep
from ..network.validate import check

Predicate = Callable[[Circuit], bool]

#: Mismatch kinds that have a circuit-level predicate (the remaining
#: grading kinds -- plant_not_neutral, generator_nondeterminism -- are
#: generator properties of the full scenario, not of a circuit).
SHRINKABLE_KINDS = (
    "recall_miss",
    "divergence",
    "plant_unsound",
    "false_removal",
    "delay_regression",
    "residual_redundancy",
)


# ---------------------------------------------------------------------- #
# reduction moves
# ---------------------------------------------------------------------- #

def _delete_gates(circuit: Circuit, gids: Sequence[int]) -> Optional[Circuit]:
    """Copy of ``circuit`` with ``gids`` deleted (fanouts bypassed to the
    first fanin), swept and validated; ``None`` if the result is not a
    well-formed circuit."""
    trial = circuit.copy()
    try:
        for gid in gids:
            if gid not in trial.gates:
                continue
            gate = trial.gates[gid]
            if gate.gtype in (GateType.INPUT, GateType.OUTPUT):
                continue
            if gate.fanin:
                keep = trial.conns[gate.fanin[0]].src
                for cid in list(gate.fanout):
                    trial.move_connection_source(cid, keep)
            trial.remove_gate(gid)
        sweep(trial)
        check(trial)
    except Exception:
        return None
    return trial


def _drop_connection(circuit: Circuit, cid: int) -> Optional[Circuit]:
    trial = circuit.copy()
    try:
        trial.remove_connection(cid)
        sweep(trial)
        check(trial)
    except Exception:
        return None
    return trial


def _drop_output(circuit: Circuit, gid: int) -> Optional[Circuit]:
    if len(circuit.outputs) <= 1:
        return None
    trial = circuit.copy()
    try:
        trial.remove_gate(gid)
        sweep(trial)
        check(trial)
    except Exception:
        return None
    return trial


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _logic_gids(circuit: Circuit) -> List[int]:
    return sorted(
        gid
        for gid, gate in circuit.gates.items()
        if gate.gtype not in (GateType.INPUT, GateType.OUTPUT)
    )


def _ddmin_gates(
    circuit: Circuit, predicate: Predicate, budget: _Budget
) -> Circuit:
    """Classic ddmin over the logic-gate list."""
    best = circuit
    gids = _logic_gids(best)
    n = 2
    while len(gids) >= 2:
        size = max(1, len(gids) // n)
        chunks = [gids[i : i + size] for i in range(0, len(gids), size)]
        reduced = False
        for chunk in chunks:
            if not budget.spend():
                return best
            trial = _delete_gates(best, chunk)
            if trial is not None and predicate(trial):
                best = trial
                gids = _logic_gids(best)
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(gids):
                break
            n = min(len(gids), n * 2)
    return best


def _drop_pass(
    circuit: Circuit,
    predicate: Predicate,
    budget: _Budget,
    candidates: Callable[[Circuit], List[int]],
    drop: Callable[[Circuit, int], Optional[Circuit]],
) -> Circuit:
    """One-at-a-time removal pass to a local fixpoint."""
    best = circuit
    progress = True
    while progress:
        progress = False
        for ident in candidates(best):
            if not budget.spend():
                return best
            trial = drop(best, ident)
            if trial is not None and predicate(trial):
                best = trial
                progress = True
                break
    return best


def shrink(
    circuit: Circuit, predicate: Predicate, max_checks: int = 4000
) -> Circuit:
    """Minimize ``circuit`` while ``predicate`` keeps holding.

    Raises ``ValueError`` if the predicate does not hold on the input
    (nothing to shrink: the failure does not reproduce).
    """
    if not predicate(circuit):
        raise ValueError("predicate does not hold on the input circuit")
    budget = _Budget(max_checks)
    best = circuit.copy()
    before = -1
    while before != best.num_gates(logic_only=False) and budget.used < budget.limit:
        before = best.num_gates(logic_only=False)
        best = _ddmin_gates(best, predicate, budget)
        best = _drop_pass(
            best, predicate, budget,
            lambda c: sorted(c.conns), _drop_connection,
        )
        best = _drop_pass(
            best, predicate, budget,
            lambda c: sorted(c.outputs), _drop_output,
        )
    return best


# ---------------------------------------------------------------------- #
# failure predicates
# ---------------------------------------------------------------------- #

def _fault_alive(circuit: Circuit, fault: Any) -> bool:
    from ..atpg.faults import CONN

    if fault.kind == CONN:
        return fault.site in circuit.conns
    return fault.site in circuit.gates


def _engine_proves(
    circuit: Circuit,
    fault: Any,
    classifier: Optional[Callable[[Circuit, Sequence[Any]], Any]],
) -> bool:
    if classifier is not None:
        return fault in set(classifier(circuit, [fault]))
    from ..atpg import ProofEngine

    return fault in set(ProofEngine(circuit).redundant_faults([fault]))


def predicate_for(
    kind: str,
    fault: Any = None,
    classifier: Optional[Callable[[Circuit, Sequence[Any]], Any]] = None,
    mode: str = "static",
) -> Predicate:
    """A self-contained failure predicate for a grading mismatch kind.

    Fault-shaped kinds (``recall_miss``, ``divergence``,
    ``plant_unsound``) need the planted ``fault``; KMS-shaped kinds
    compare each candidate circuit against *itself* (pre- vs post-KMS),
    so they stay meaningful as the circuit shrinks away from the
    original scenario.  Predicates swallow engine exceptions as False so
    degenerate candidates are simply rejected.
    """
    if kind in ("recall_miss", "divergence", "plant_unsound"):
        if fault is None:
            raise ValueError(f"mismatch kind {kind!r} needs the fault")

        def fault_predicate(circuit: Circuit) -> bool:
            from ..atpg import SatAtpg

            try:
                if not _fault_alive(circuit, fault):
                    return False
                oracle = SatAtpg(circuit).is_redundant(fault)
                if kind == "plant_unsound":
                    # generator bug: a planted fault the oracle can test
                    return not oracle
                engine = _engine_proves(circuit, fault, classifier)
                if kind == "recall_miss":
                    return oracle and not engine
                return engine != oracle
            except Exception:
                return False

        return fault_predicate

    if kind not in SHRINKABLE_KINDS:
        raise ValueError(
            f"mismatch kind {kind!r} has no circuit-level predicate; "
            f"choose from {SHRINKABLE_KINDS}"
        )

    def kms_predicate(circuit: Circuit) -> bool:
        from ..atpg import is_irredundant
        from ..core import kms
        from ..sat import check_equivalence
        from ..timing import (
            AsBuiltDelayModel,
            sensitizable_delay,
            topological_delay,
        )

        try:
            model = AsBuiltDelayModel()
            before = circuit.copy()
            result = kms(circuit.copy(), mode=mode, model=model)
            after = result.circuit
            if kind == "false_removal":
                return not check_equivalence(
                    before, after, method="fraig"
                ).equivalent
            if kind == "delay_regression":
                return (
                    sensitizable_delay(after, model).delay
                    > sensitizable_delay(before, model).delay
                    or topological_delay(after, model)
                    > topological_delay(before, model)
                )
            return not is_irredundant(after)
        except Exception:
            return False

    return kms_predicate


# ---------------------------------------------------------------------- #
# pytest reproducer emission
# ---------------------------------------------------------------------- #

_REPRO_HEADER = '''\
"""Minimized fuzz reproducer -- auto-generated by repro.fuzz.minimize.

{note}
The test asserts the CORRECT behavior: it fails while the defect is
present and passes once the engine is fixed.  The circuit embeds as
lossless JSON (gids/cids preserved) so the fault site stays valid.
"""

import json

from repro.engine.serialize import circuit_from_dict

CIRCUIT = json.loads(r\'\'\'
{circuit_json}
\'\'\')
'''

_REPRO_BODIES = {
    "recall_miss": '''\

def test_fuzz_reproducer_recall_miss():
    from repro.atpg import Fault, ProofEngine, SatAtpg

    circuit = circuit_from_dict(CIRCUIT)
    fault = Fault({fault_args})
    assert SatAtpg(circuit).is_redundant(fault), "oracle baseline moved"
    proved = ProofEngine(circuit).redundant_faults([fault])
    assert fault in set(proved), (
        "ProofEngine must prove this planted redundancy: "
        + fault.describe(circuit)
    )
''',
    "divergence": '''\

def test_fuzz_reproducer_divergence():
    from repro.atpg import Fault, ProofEngine, SatAtpg

    circuit = circuit_from_dict(CIRCUIT)
    fault = Fault({fault_args})
    oracle = SatAtpg(circuit).is_redundant(fault)
    engine = fault in set(ProofEngine(circuit).redundant_faults([fault]))
    assert engine == oracle, (
        f"incremental engine ({{engine}}) diverges from the from-scratch "
        f"oracle ({{oracle}}) on " + fault.describe(circuit)
    )
''',
    "plant_unsound": '''\

def test_fuzz_reproducer_plant_unsound():
    from repro.atpg import Fault, SatAtpg

    circuit = circuit_from_dict(CIRCUIT)
    fault = Fault({fault_args})
    assert SatAtpg(circuit).is_redundant(fault), (
        "generator planted a testable fault: " + fault.describe(circuit)
    )
''',
    "false_removal": '''\

def test_fuzz_reproducer_false_removal():
    from repro.core import kms
    from repro.sat import check_equivalence
    from repro.timing import AsBuiltDelayModel

    circuit = circuit_from_dict(CIRCUIT)
    result = kms(circuit.copy(), model=AsBuiltDelayModel())
    assert check_equivalence(circuit, result.circuit).equivalent, (
        "KMS changed circuit function"
    )
''',
    "delay_regression": '''\

def test_fuzz_reproducer_delay_regression():
    from repro.core import kms
    from repro.timing import (
        AsBuiltDelayModel,
        sensitizable_delay,
        topological_delay,
    )

    circuit = circuit_from_dict(CIRCUIT)
    model = AsBuiltDelayModel()
    result = kms(circuit.copy(), model=model)
    assert (
        sensitizable_delay(result.circuit, model).delay
        <= sensitizable_delay(circuit, model).delay
    ), "KMS increased sensitizable delay"
    assert (
        topological_delay(result.circuit, model)
        <= topological_delay(circuit, model)
    ), "KMS increased topological delay"
''',
    "residual_redundancy": '''\

def test_fuzz_reproducer_residual_redundancy():
    from repro.atpg import is_irredundant
    from repro.core import kms
    from repro.timing import AsBuiltDelayModel

    circuit = circuit_from_dict(CIRCUIT)
    result = kms(circuit.copy(), model=AsBuiltDelayModel())
    assert is_irredundant(result.circuit), (
        "KMS output still contains redundancy"
    )
''',
}


def reproducer_source(
    circuit: Circuit, kind: str, fault: Any = None, note: str = ""
) -> str:
    """Pytest source for a minimized failure."""
    from ..engine.serialize import circuit_to_dict

    if kind not in _REPRO_BODIES:
        raise ValueError(
            f"no reproducer template for mismatch kind {kind!r}"
        )
    body = _REPRO_BODIES[kind]
    if "{fault_args}" in body:
        if fault is None:
            raise ValueError(f"mismatch kind {kind!r} needs the fault")
        body = body.replace(
            "{fault_args}",
            f"{fault.kind!r}, {fault.site!r}, {fault.value!r}",
        )
    header = _REPRO_HEADER.format(
        note=note or f"Mismatch kind: {kind}",
        circuit_json=json.dumps(circuit_to_dict(circuit), sort_keys=True),
    )
    return header + body


def write_reproducer(
    path: str, circuit: Circuit, kind: str, fault: Any = None,
    note: str = "",
) -> str:
    source = reproducer_source(circuit, kind, fault=fault, note=note)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(source)
    return path


# ---------------------------------------------------------------------- #
# campaign integration
# ---------------------------------------------------------------------- #

def minimize_failure(
    spec: Any,
    mismatch: Dict[str, Any],
    out_dir: Optional[str] = None,
    max_checks: int = 4000,
    classifier: Optional[Callable[[Circuit, Sequence[Any]], Any]] = None,
    mode: str = "static",
) -> Optional[Dict[str, Any]]:
    """Shrink one grading mismatch to a minimal pytest reproducer.

    Rebuilds the scenario from ``spec`` (a :class:`ScenarioSpec` or its
    dict form), confirms the failure reproduces, shrinks, and (when
    ``out_dir`` is given) writes ``test_fuzz_repro_<scenario>_<kind>.py``.
    Returns a summary dict, or ``None`` when the kind has no
    circuit-level predicate or the failure does not reproduce in
    process.
    """
    from ..atpg.faults import Fault
    from .grade import ScenarioSpec, build_scenario

    if isinstance(spec, dict):
        spec = ScenarioSpec.from_dict(spec)
    kind = mismatch["kind"]
    if kind not in SHRINKABLE_KINDS:
        return None
    fault = None
    if mismatch.get("fault") is not None:
        fkind, site, value = mismatch["fault"]
        fault = Fault(fkind, site, value)
    predicate = predicate_for(
        kind, fault=fault, classifier=classifier, mode=mode
    )
    circuit = build_scenario(spec).circuit
    if not predicate(circuit):
        return None
    small = shrink(circuit, predicate, max_checks=max_checks)
    note = (
        f"Scenario {spec.name!r} (seed={spec.seed}, variant={spec.variant}): "
        f"{mismatch['detail']}"
    )
    summary: Dict[str, Any] = {
        "scenario": spec.name,
        "kind": kind,
        "gates_before": circuit.num_gates(),
        "gates_after": small.num_gates(),
        "fault": mismatch.get("fault"),
    }
    if out_dir is not None:
        path = os.path.join(
            out_dir, f"test_fuzz_repro_{spec.name}_{kind}.py"
        )
        summary["path"] = write_reproducer(
            path, small, kind, fault=fault, note=note
        )
    else:
        summary["source"] = reproducer_source(
            small, kind, fault=fault, note=note
        )
    return summary
