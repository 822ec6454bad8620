"""Theorems 7.1 and 7.2 as executable, checkable transformations.

The paper proves two lemmas about the KMS loop body:

* **Theorem 7.1** -- duplicating a gate ``n`` (same type, delay and
  fanin) and moving one fanout edge ``e`` onto the duplicate gives a
  circuit where every path corresponds to a unique equal-length path of
  the original, computing the same logic; hence
  ``delay(eta, c) = delay(eta', c)`` for every cube ``c``.

* **Theorem 7.2** -- if ``P`` is a longest path whose gates all have
  fanout 1 and ``P`` is not statically sensitizable, then tying ``P``'s
  first edge to a constant and propagating yields ``eta'`` with (1) the
  constant stops at a multi-input gate at a noncontrolling value, (2)
  every IO-path of ``eta'`` is an IO-path of ``eta``, and (3) every path
  viable in ``eta'`` under ``c`` is viable in ``eta`` under ``c`` --
  so ``delay(eta, c) >= delay(eta', c)``.

The functions below apply each transformation and return the structured
evidence the property-based tests check against the theorem statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..network import Circuit, CircuitError
from ..network.transform import (
    propagate_constants,
    set_connection_constant,
    sweep,
)
from ..timing import (
    AsBuiltDelayModel,
    DelayModel,
    Path,
    statically_sensitizable,
)
from ..timing.models import EPS


@dataclass
class DuplicationEvidence:
    """What Theorem 7.1 promises about a single-gate duplication."""

    circuit: Circuit
    original_gate: int
    duplicate_gate: int
    moved_edge: int


def duplicate_gate_for_edge(
    circuit: Circuit, gid: int, cid: int
) -> DuplicationEvidence:
    """Apply the Theorem 7.1 transformation to a copy of ``circuit``.

    ``gid`` must have fanout > 1 and ``cid`` must be one of its fanout
    connections.  The duplicate gets identical fanin connections (same
    sources, same delays) and takes over ``cid`` as its only fanout.
    """
    gate = circuit.gates[gid]
    if len(gate.fanout) <= 1:
        raise CircuitError("Theorem 7.1 requires fanout > 1")
    if cid not in gate.fanout:
        raise CircuitError(f"conn {cid} is not a fanout of gate {gid}")
    work = circuit.copy(f"{circuit.name}#dup")
    dup = work.add_gate(gate.gtype, gate.delay, None)
    for fanin_cid in work.gates[gid].fanin:
        conn = work.conns[fanin_cid]
        work.connect(conn.src, dup, conn.delay)
    work.move_connection_source(cid, dup)
    return DuplicationEvidence(
        circuit=work, original_gate=gid, duplicate_gate=dup, moved_edge=cid
    )


@dataclass
class ConstantSettingEvidence:
    """What Theorem 7.2 promises about killing an unsensitizable path."""

    circuit: Circuit
    path: Path
    constant_value: int
    #: why the precondition held (diagnostics for failed property tests).
    precondition_notes: List[str]


def set_path_constant(
    circuit: Circuit,
    path: Path,
    value: int,
    model: Optional[DelayModel] = None,
    require_preconditions: bool = True,
) -> ConstantSettingEvidence:
    """Apply the Theorem 7.2 transformation to a copy of ``circuit``.

    Preconditions (checked unless ``require_preconditions=False``):

    * every gate along ``path`` has fanout exactly 1;
    * ``path`` is a longest path (its length equals the circuit delay);
    * ``path`` is not statically sensitizable.
    """
    notes: List[str] = []
    if require_preconditions:
        for gid in path.gates:
            if circuit.fanout_size(gid) != 1:
                raise CircuitError(
                    f"Theorem 7.2 requires single fanout along P; "
                    f"gate {gid} has {circuit.fanout_size(gid)}"
                )
        notes.append("all path gates single-fanout")
        from ..timing import topological_delay

        model_ = model if model is not None else AsBuiltDelayModel()
        delay = topological_delay(circuit, model_)
        if path.length < delay - EPS:
            raise CircuitError(
                f"Theorem 7.2 requires a longest path "
                f"({path.length} < {delay})"
            )
        notes.append(f"path is longest (length {path.length:g})")
        if statically_sensitizable(circuit, path) is not None:
            raise CircuitError(
                "Theorem 7.2 requires P not statically sensitizable"
            )
        notes.append("path not statically sensitizable")
    work = circuit.copy(f"{circuit.name}#const")
    set_connection_constant(work, path.first_edge, value)
    propagate_constants(work)
    sweep(work, collapse_buffers=True)
    return ConstantSettingEvidence(
        circuit=work,
        path=path,
        constant_value=value,
        precondition_notes=notes,
    )
