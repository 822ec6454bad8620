"""An independent reference simulator over unpacked numpy lanes.

The interpreted simulators and the compiled kernel all evaluate packed
integer words through ``repro.sim.opcodes``.  This module shares none
of that: it unpacks every word into one bool per pattern and evaluates
each gate with numpy's logical reductions, so a truth-table or masking
bug in the shared opcode table cannot hide behind agreement between
two of its own consumers.

The functions mirror the signatures of ``simulate_packed``,
``simulate_fault_packed`` and ``detecting_patterns``.  numpy is
optional for the test suite: ``np`` is None when it is not installed,
and the tests that use this module are then skipped or not collected.
"""

from repro.atpg.faults import CONN
from repro.network import GateType

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-free environments
    np = None


def unpack(word, width):
    """Packed word -> bool array, lane i = bit i."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        (word & ((1 << width) - 1)).to_bytes(nbytes, "little"), dtype=np.uint8
    )
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def pack(lanes):
    """Bool array -> packed word, bit i = lane i."""
    return int.from_bytes(np.packbits(lanes, bitorder="little").tobytes(), "little")


def _gate(gtype, ins, width):
    if gtype is GateType.CONST0:
        return np.zeros(width, dtype=bool)
    if gtype is GateType.CONST1:
        return np.ones(width, dtype=bool)
    if gtype in (GateType.BUF, GateType.OUTPUT):
        return ins[0]
    if gtype is GateType.NOT:
        return ~ins[0]
    if gtype in (GateType.AND, GateType.NAND):
        out = np.logical_and.reduce(ins)
        return out if gtype is GateType.AND else ~out
    if gtype in (GateType.OR, GateType.NOR):
        out = np.logical_or.reduce(ins)
        return out if gtype is GateType.OR else ~out
    if gtype in (GateType.XOR, GateType.XNOR):
        out = np.logical_xor.reduce(ins)
        return out if gtype is GateType.XOR else ~out
    raise ValueError(f"cannot evaluate {gtype}")


def _simulate(circuit, packed_inputs, width, overrides=None, fault=None):
    overrides = overrides or {}
    stuck = None
    if fault is not None:
        stuck = np.full(width, bool(fault.value))
    lanes = {}
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gid in overrides:
            lanes[gid] = unpack(overrides[gid], width)
            continue
        if gate.gtype is GateType.INPUT:
            lanes[gid] = unpack(packed_inputs.get(gid, 0), width)
        else:
            ins = [
                stuck
                if fault is not None and fault.kind == CONN and cid == fault.site
                else lanes[circuit.conns[cid].src]
                for cid in gate.fanin
            ]
            lanes[gid] = _gate(gate.gtype, ins, width)
        if fault is not None and fault.kind != CONN and gid == fault.site:
            lanes[gid] = stuck
    return {gid: pack(v) for gid, v in lanes.items()}


def simulate_packed(circuit, packed_inputs, width, overrides=None):
    """Packed words for every gate, ``overrides`` forcing gate outputs."""
    return _simulate(circuit, packed_inputs, width, overrides=overrides)


def simulate_fault_packed(circuit, fault, packed_inputs, width):
    """Packed words for every gate of the faulty circuit."""
    return _simulate(circuit, packed_inputs, width, fault=fault)


def detecting_patterns(circuit, fault, packed_inputs, width, good_values=None):
    """Bitmask of patterns under which ``fault`` reaches an output."""
    if good_values is None:
        good_values = simulate_packed(circuit, packed_inputs, width)
    faulty = simulate_fault_packed(circuit, fault, packed_inputs, width)
    mask = 0
    for po in circuit.outputs:
        mask |= good_values[po] ^ faulty[po]
    return mask
