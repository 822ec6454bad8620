"""Bit-parallel pattern simulation.

Packs W test patterns into the bits of Python integers so a whole pattern
block is simulated with one bitwise operation per gate.  Python's
arbitrary-precision ints make the word width a free parameter.
:func:`simulate_packed` is the interpreted reference that the compiled
kernel (:mod:`repro.sim.kernel`), which every production consumer runs,
is tested against.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..network import Circuit, GateType
from .opcodes import OP_INPUT, OPCODE, eval_op_word


def eval_gate_bits(gtype: GateType, inputs: Sequence[int], mask: int) -> int:
    """Evaluate one gate over a packed word of patterns.

    Delegates to the shared opcode table (:mod:`repro.sim.opcodes`) so
    the interpreted reference and the compiled kernels evaluate through
    the same truth tables.
    """
    op = OPCODE.get(gtype)
    if op is None or op == OP_INPUT:
        raise ValueError(f"cannot evaluate {gtype}")
    return eval_op_word(op, inputs, mask)


def simulate_packed(
    circuit: Circuit,
    packed_inputs: Mapping[int, int],
    width: int,
    overrides: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Simulate ``width`` patterns at once.

    ``packed_inputs`` maps PI gid -> packed word (bit i = pattern i's
    value).  ``overrides`` optionally forces gate outputs to fixed packed
    words -- the hook the fault simulator uses to inject a stuck-at value
    at a stem.  Returns packed words for every gate.
    """
    mask = (1 << width) - 1
    values: Dict[int, int] = {}
    overrides = overrides or {}
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gid in overrides:
            values[gid] = overrides[gid] & mask
            continue
        if gate.gtype is GateType.INPUT:
            values[gid] = packed_inputs.get(gid, 0) & mask
        else:
            ins = [values[circuit.conns[c].src] for c in gate.fanin]
            values[gid] = eval_gate_bits(gate.gtype, ins, mask)
    return values


def pack_vectors(
    circuit: Circuit, vectors: Sequence[Mapping[int, int]]
) -> Tuple[Dict[int, int], int]:
    """Pack per-pattern PI assignments into words.

    Returns (packed map PI gid -> word, width).  Masks consistently
    against the PI set: keys outside ``circuit.inputs`` are ignored,
    missing PIs pack as 0, and values are reduced to their low bit so
    a sloppy ``{gid: 2}`` entry cannot silently set the wrong pattern.
    """
    packed: Dict[int, int] = {gid: 0 for gid in circuit.inputs}
    for i, vec in enumerate(vectors):
        bit = 1 << i
        for gid in circuit.inputs:
            if vec.get(gid, 0) & 1:
                packed[gid] |= bit
    return packed, len(vectors)


def random_packed_inputs(
    circuit: Circuit, width: int, rng: random.Random
) -> Dict[int, int]:
    """Uniform random packed input words for ``width`` patterns."""
    return {
        gid: rng.getrandbits(width) for gid in circuit.inputs
    }


def random_equivalence_check(
    a: Circuit,
    b: Circuit,
    patterns: int = 4096,
    seed: int = 0,
    width: int = 256,
) -> Optional[Dict[str, int]]:
    """Random-vector equivalence filter.

    Returns None if no difference found over ``patterns`` random vectors,
    else a counterexample as a name -> value map.  A None result is *not*
    a proof -- use :mod:`repro.sat.equivalence` for that -- but this is a
    fast pre-filter and a cross-check that runs on any size of circuit.

    Both circuits are compiled once (:mod:`repro.sim.kernel`) and every
    pattern chunk reuses the schedules.
    """
    from .kernel import get_compiled

    a_pis = {a.gates[g].name: g for g in a.inputs}
    b_pis = {b.gates[g].name: g for g in b.inputs}
    if set(a_pis) != set(b_pis):
        raise ValueError("PI name sets differ")
    a_pos = {a.gates[g].name: g for g in a.outputs}
    b_pos = {b.gates[g].name: g for g in b.outputs}
    if set(a_pos) != set(b_pos):
        raise ValueError("PO name sets differ")
    kern_a = get_compiled(a)
    kern_b = get_compiled(b)
    rng = random.Random(seed)
    names = sorted(a_pis)
    remaining = patterns
    while remaining > 0:
        w = min(width, remaining)
        remaining -= w
        words = {n: rng.getrandbits(w) for n in names}
        pa = {a_pis[n]: words[n] for n in names}
        pb = {b_pis[n]: words[n] for n in names}
        va = kern_a.evaluate(pa, w)
        vb = kern_b.evaluate(pb, w)
        for name in a_pos:
            diff = va[a_pos[name]] ^ vb[b_pos[name]]
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return {
                    n: (words[n] >> bit) & 1 for n in names
                }
    return None
