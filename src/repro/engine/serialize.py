"""Lossless JSON serialization of circuits for the result cache.

BLIF is the repo's interchange format but it drops exactly what the
engine must preserve -- gate/connection delays, PI arrival times, pin
order of duplicated connections -- so cached stage outputs (e.g. the
KMS-transformed circuit) use this private JSON encoding instead.  It
round-trips a :class:`Circuit` exactly, including gid/cid numbering, so
a circuit restored from cache behaves bit-identically to the one the
stage originally produced (same iteration order everywhere downstream).
"""

from __future__ import annotations

from typing import Any, Dict

from ..network import Circuit
from ..network.circuit import Connection, Gate
from ..network.gates import GateType

SCHEMA = "repro.engine.circuit/1"


def circuit_to_dict(circuit: Circuit) -> Dict[str, Any]:
    """Encode a circuit as a JSON-able dict (exact, including ids)."""
    return {
        "schema": SCHEMA,
        "name": circuit.name,
        "next_gid": circuit._next_gid,
        "next_cid": circuit._next_cid,
        "gates": [
            [g.gid, g.gtype.value, g.delay, g.name, list(g.fanin),
             list(g.fanout)]
            for g in circuit.gates.values()
        ],
        "conns": [
            [c.cid, c.src, c.dst, c.delay]
            for c in circuit.conns.values()
        ],
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "arrival": sorted(circuit.input_arrival.items()),
    }


def circuit_from_dict(data: Dict[str, Any]) -> Circuit:
    """Rebuild a circuit encoded by :func:`circuit_to_dict`.

    Keys the encoder no longer writes are ignored, so payloads cached by
    older versions (e.g. with a ``"hints"`` list of gid groups) still
    load to the same circuit."""
    if data.get("schema") != SCHEMA:
        raise ValueError(f"not a serialized circuit: {data.get('schema')!r}")
    circuit = Circuit(data["name"])
    circuit._next_gid = data["next_gid"]
    circuit._next_cid = data["next_cid"]
    for gid, gtype, delay, name, fanin, fanout in data["gates"]:
        circuit.gates[gid] = Gate(
            gid, GateType(gtype), delay, name, list(fanin), list(fanout)
        )
    for cid, src, dst, delay in data["conns"]:
        circuit.conns[cid] = Connection(cid, src, dst, delay)
    circuit._inputs = list(data["inputs"])
    circuit._outputs = list(data["outputs"])
    circuit.input_arrival = {gid: t for gid, t in data["arrival"]}
    return circuit
