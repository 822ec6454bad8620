"""Content-addressed circuit fingerprints.

The cache key for every pipeline stage starts with a canonical hash of
the input :class:`~repro.network.circuit.Circuit`.  The fingerprint
covers exactly what the algorithms see:

* topology -- which gate drives which pin of which gate, with fanout
  sharing distinguished from duplication;
* gate types and gate delays, connection delays;
* primary-input arrival times and the PI/PO interface *order* (the
  function of the network is defined relative to that order).

It deliberately ignores gate *names* and the internal gid/cid numbering:
a circuit rebuilt by a transformation that only renames or renumbers
hashes identically, while any rewiring, delay change, or arrival change
produces a different digest.

The per-gate fingerprint is a bottom-up Merkle hash over the DAG,
computed iteratively in topological order (no recursion, so depth is
unbounded).  The circuit fingerprint combines the PO fingerprints in
output order with the full multiset of gate fingerprints -- the multiset
is what separates a shared stem from duplicated copies of the same cone,
which have equal subtree hashes but different structure.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..network import Circuit
from ..network.gates import GateType

#: Version tag mixed into every digest; bump when the scheme changes so
#: stale caches miss instead of returning results from an old encoding.
SCHEME = "repro.engine.fingerprint/1"


def _num(x: float) -> str:
    """Canonical text for a delay/arrival (17 significant digits round-trips
    every IEEE double, and normalizes 1 vs 1.0)."""
    return format(float(x), ".17g")


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def gate_fingerprint(
    circuit: Circuit,
    gid: int,
    fps: Dict[int, str],
    pi_index: Dict[int, int],
    po_index: Dict[int, int],
) -> str:
    """Fingerprint of one gate given its fanins' fingerprints in ``fps``.

    The single-gate step of :func:`gate_fingerprints`: a digest of the
    gate's own attributes and its fanins' digests, so it depends solely
    on the gate's fanin cone.
    """
    gate = circuit.gates[gid]
    if gate.gtype is GateType.INPUT:
        seed = (
            "input",
            pi_index[gid],
            _num(circuit.input_arrival.get(gid, 0.0)),
        )
    elif gate.gtype in (GateType.CONST0, GateType.CONST1):
        seed = (gate.gtype.value,)
    else:
        fanin = tuple(
            (fps[circuit.conns[cid].src], _num(circuit.conns[cid].delay))
            for cid in gate.fanin
        )
        if gate.gtype is GateType.OUTPUT:
            seed = ("output", po_index[gid], fanin)
        else:
            seed = (gate.gtype.value, _num(gate.delay), fanin)
    return _digest(seed)


def gate_fingerprints(circuit: Circuit) -> Dict[int, str]:
    """Canonical per-gate fingerprint, gid -> hex digest.

    Two gates get equal fingerprints iff their transitive-fanin cones are
    structurally identical (types, delays, pin order, arrivals) up to
    renaming/renumbering.
    """
    pi_index = {gid: i for i, gid in enumerate(circuit.inputs)}
    po_index = {gid: i for i, gid in enumerate(circuit.outputs)}
    fps: Dict[int, str] = {}
    for gid in circuit.topological_order():
        fps[gid] = gate_fingerprint(circuit, gid, fps, pi_index, po_index)
    return fps


def circuit_fingerprint(circuit: Circuit) -> str:
    """Canonical content hash of a whole circuit (hex sha256)."""
    fps = gate_fingerprints(circuit)
    body = (
        SCHEME,
        len(circuit.gates),
        len(circuit.conns),
        tuple(fps[gid] for gid in circuit.outputs),
        tuple(sorted(fps.values())),
    )
    return _digest(body)
