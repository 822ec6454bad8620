"""Area cleanup: structural hashing, sweeping, constant propagation.

`strash` merges structurally identical gates (same type, same fanin
multiset, same delay), the workhorse dedupe pass run after factoring
lowers each output separately.  `area_optimize` bundles the standard
cleanup pipeline.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..network import Circuit, GateType
from ..network.transform import propagate_constants, sweep


def strash(circuit: Circuit) -> int:
    """Merge structurally identical gates, in place.

    Two logic gates merge when they have the same type, the same delay,
    and the same multiset of (source gid, connection delay) fanins
    (order-insensitive for symmetric gates; all our simple gates are
    symmetric).  Returns the number of gates merged away.
    """
    merged = 0
    changed = True
    while changed:
        changed = False
        table: Dict[Tuple, int] = {}
        for gid in circuit.topological_order():
            gate = circuit.gates.get(gid)
            if gate is None:
                continue
            if gate.gtype in (
                GateType.INPUT,
                GateType.OUTPUT,
            ):
                continue
            fanin_key = tuple(
                sorted(
                    (circuit.conns[c].src, circuit.conns[c].delay)
                    for c in gate.fanin
                )
            )
            key = (gate.gtype, gate.delay, fanin_key)
            canonical = table.get(key)
            if canonical is None:
                table[key] = gid
                continue
            # merge gid into canonical
            for cid in list(gate.fanout):
                circuit.move_connection_source(cid, canonical)
            circuit.remove_gate(gid)
            merged += 1
            changed = True
    return merged


def area_optimize(circuit: Circuit) -> Dict[str, int]:
    """Constant propagation + strash + sweep; returns per-pass stats."""
    stats = {
        "constants": propagate_constants(circuit),
        "strash": strash(circuit),
        "sweep": sweep(circuit, collapse_buffers=True),
    }
    return stats
