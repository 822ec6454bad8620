"""Exact viability analysis (McGeer-Brayton, refs [15]/[16] of the paper).

The production checker in :mod:`repro.timing.viability` uses the sound
approximation the paper describes (side inputs that have *provably*
settled must be noncontrolling; others are smoothed).  This module
implements the exact recursive definition for cross-checking:

    A path P is viable under minterm c if at every gate g_i along P,
    each side input s either carries the noncontrolling value under c,
    or is *late*: some viable path ends at s with arrival >= tau_i,
    the event time at g_i's input along P.

Because the late/early split depends on the prefix length, the dynamic
program tracks, per gate and minterm, the **set of viable path
lengths** terminating at the gate (topological order makes one pass
suffice; the side-input recursion only refers to other signals'
completed length sets -- note the definition is well-founded on the
DAG because a side input's viable paths never pass through g_i's
output).

Cost: one DP per input minterm, so exponential in PI count -- an oracle
for small circuits, exactly how the tests use it (the sandwich
``sensitizable <= exact viable <= approximate viable <= topological``
and ``true delay <= exact viable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ..network import Circuit, GateType, noncontrolling_value
from .models import EPS, AsBuiltDelayModel, DelayModel


def viable_lengths_under(
    circuit: Circuit,
    minterm: Dict[int, int],
    model: Optional[DelayModel] = None,
) -> Dict[int, FrozenSet[float]]:
    """Viable path lengths per gate under one input minterm.

    Returns gid -> frozen set of lengths of viable paths ending at the
    gate's *output* (for OUTPUT markers: at the PO).  Constant sources
    carry no events and get the empty set.
    """
    model = model if model is not None else AsBuiltDelayModel()
    values = circuit.evaluate(minterm)
    lengths: Dict[int, Set[float]] = {}
    # arrival of each signal as seen at a connection's sink
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gate.gtype is GateType.INPUT:
            lengths[gid] = {model.input_arrival(circuit, gid)}
            continue
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            lengths[gid] = set()
            continue
        if gate.gtype in (GateType.XOR, GateType.XNOR):
            raise ValueError(
                "exact viability is defined for simple-gate networks"
            )
        out: Set[float] = set()
        gate_delay = model.gate_delay(circuit, gid)
        for cid in gate.fanin:
            conn = circuit.conns[cid]
            conn_delay = model.conn_delay(circuit, cid)
            for prefix in lengths[conn.src]:
                tau = prefix + conn_delay
                if _side_inputs_ok(
                    circuit, model, values, lengths, gate, cid, tau
                ):
                    out.add(tau + gate_delay)
        lengths[gid] = out
    return {gid: frozenset(ls) for gid, ls in lengths.items()}


def _side_inputs_ok(
    circuit: Circuit,
    model: DelayModel,
    values: Dict[int, int],
    lengths: Dict[int, Set[float]],
    gate,
    on_path_cid: int,
    tau: float,
) -> bool:
    """Each side input noncontrolling under c, or late (has a viable
    path arriving at or after tau)."""
    if gate.gtype in (GateType.NOT, GateType.BUF, GateType.OUTPUT):
        return True
    ncv = noncontrolling_value(gate.gtype)
    for cid in gate.fanin:
        if cid == on_path_cid:
            continue
        conn = circuit.conns[cid]
        if values[conn.src] == ncv:
            continue
        conn_delay = model.conn_delay(circuit, cid)
        arrivals = lengths[conn.src]
        if arrivals and max(arrivals) + conn_delay >= tau - EPS:
            continue  # late side input: smoothed
        return False
    return True


@dataclass
class ExactViabilityReport:
    """Exact computed delay and its witness."""

    delay: float
    #: PI gid -> value of a minterm achieving the delay (None if delay 0).
    witness: Optional[Dict[int, int]]


def exact_viability_delay(
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    max_inputs: int = 12,
) -> ExactViabilityReport:
    """The exact McGeer-Brayton computed delay: the longest viable path
    over all input minterms.  Exponential in PI count (guarded)."""
    n = len(circuit.inputs)
    if n > max_inputs:
        raise ValueError(
            f"exact_viability_delay is exhaustive; {n} inputs > "
            f"{max_inputs}"
        )
    model = model if model is not None else AsBuiltDelayModel()
    best = 0.0
    witness: Optional[Dict[int, int]] = None
    for bits in range(1 << n):
        minterm = {
            gid: (bits >> i) & 1
            for i, gid in enumerate(circuit.inputs)
        }
        lengths = viable_lengths_under(circuit, minterm, model)
        for po in circuit.outputs:
            if lengths[po]:
                longest = max(lengths[po])
                if longest > best:
                    best = longest
                    witness = minterm
    return ExactViabilityReport(delay=best, witness=witness)


def path_viable_exact(
    circuit: Circuit,
    path,
    minterm: Dict[int, int],
    model: Optional[DelayModel] = None,
) -> bool:
    """Is one specific path viable under one minterm, per the exact
    recursive definition?"""
    model = model if model is not None else AsBuiltDelayModel()
    values = circuit.evaluate(minterm)
    lengths_sets = viable_lengths_under(circuit, minterm, model)
    lengths = {gid: set(ls) for gid, ls in lengths_sets.items()}
    taus = path.event_times(circuit, model)
    for i, gid in enumerate(path.gates):
        gate = circuit.gates[gid]
        if not _side_inputs_ok(
            circuit, model, values, lengths, gate, path.conns[i], taus[i]
        ):
            return False
    return True
