"""The one opcode table every packed-simulation path consumes.

The evaluators used to carry their own copy of the gate semantics:
:func:`repro.sim.parallel.eval_gate_bits` (the interpreted reference)
and the compiled kernels of :mod:`repro.sim.kernel`.  A truth-table
divergence between them would silently break every reference check in
the tests and benchmarks, so the integer
opcodes, the :class:`~repro.network.GateType` mapping, and the
word-level evaluation function live here exactly once and everything
else imports them.

Opcode values are part of the compiled kernels' on-the-wire shape (the
arena stores them in its ``evalop`` array), so they are append-only.
"""

from __future__ import annotations

from typing import Sequence

from ..network import GateType

# integer opcodes; OUTPUT markers evaluate as BUF, exactly as
# sim.parallel.eval_gate_bits treats them
OP_INPUT = 0
OP_CONST0 = 1
OP_CONST1 = 2
OP_BUF = 3
OP_NOT = 4
OP_AND = 5
OP_NAND = 6
OP_OR = 7
OP_NOR = 8
OP_XOR = 9
OP_XNOR = 10

#: GateType -> integer opcode (OUTPUT evaluates as BUF).
OPCODE = {
    GateType.INPUT: OP_INPUT,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
    GateType.BUF: OP_BUF,
    GateType.OUTPUT: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
}


def eval_op_word(op: int, inputs: Sequence[int], mask: int) -> int:
    """Evaluate one gate opcode over packed pattern words.

    ``mask`` is the ``(1 << width) - 1`` pattern mask; every negating
    opcode reduces back into it so Python's infinite-precision ``~``
    cannot leak sign bits.  Raises on :data:`OP_INPUT` (primary inputs
    have no evaluation rule; callers read them from the stimulus).
    """
    if op == OP_AND or op == OP_NAND:
        acc = mask
        for v in inputs:
            acc &= v
        return acc if op == OP_AND else ~acc & mask
    if op == OP_OR or op == OP_NOR:
        acc = 0
        for v in inputs:
            acc |= v
        return acc if op == OP_OR else ~acc & mask
    if op == OP_BUF:
        return inputs[0]
    if op == OP_NOT:
        return ~inputs[0] & mask
    if op == OP_XOR or op == OP_XNOR:
        acc = 0
        for v in inputs:
            acc ^= v
        return acc if op == OP_XOR else ~acc & mask
    if op == OP_CONST0:
        return 0
    if op == OP_CONST1:
        return mask
    raise ValueError(f"cannot evaluate opcode {op}")
