"""Adder generators: ripple-carry, carry-skip (csa n.b), carry-lookahead.

The carry-skip adder (Lehman-Burla 1961, [13] in the paper) is the
paper's star witness: the skip AND + MUX added to each block beats
ripple-carry delay but introduces exactly the stuck-at redundancies whose
naive removal destroys the speedup.

Gate realization matches the paper's counting conventions:

* XOR is built from OR + NAND + AND (3 simple gates), the final AND
  carrying the 2-unit complex-gate delay;
* the MUX is NOT + 2 AND + OR (4 simple gates), the final OR carrying
  the 2-unit delay;
* plain AND/OR gates have delay 1.

All generators return pure simple-gate networks, ready for KMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..network import Builder, Circuit

#: Paper Section III delays.
XOR_DELAY = 2.0
MUX_DELAY = 2.0
GATE_DELAY = 1.0


def ripple_carry_adder(
    nbits: int,
    cin_arrival: float = 0.0,
    name: Optional[str] = None,
) -> Circuit:
    """An ``nbits``-bit ripple-carry adder: a + b + cin -> sum, cout.

    Inputs ``a0..``, ``b0..`` (LSB first) and ``cin``; outputs ``s0..``
    and ``cout``.
    """
    b = Builder(name or f"rca_{nbits}")
    a_bus = b.input_bus("a", nbits)
    b_bus = b.input_bus("b", nbits)
    carry = b.input("cin", arrival=cin_arrival)
    sums: List[int] = []
    for i in range(nbits):
        p = b.xor_simple(a_bus[i], b_bus[i], delay=XOR_DELAY)
        g = b.and_(a_bus[i], b_bus[i], delay=GATE_DELAY)
        sums.append(b.xor_simple(p, carry, delay=XOR_DELAY))
        t = b.and_(p, carry, delay=GATE_DELAY)
        carry = b.or_(g, t, delay=GATE_DELAY)
    b.output_bus("s", sums)
    b.output("cout", carry)
    return b.done()


@dataclass
class _BlockPins:
    """Wiring record for one carry-skip block."""

    carry_out: int
    propagates: List[int]


def carry_skip_adder(
    nbits: int,
    block_size: int,
    cin_arrival: float = 0.0,
    name: Optional[str] = None,
) -> Circuit:
    """A carry-skip adder: ``nbits`` total, ripple blocks of
    ``block_size`` bits, each with a skip AND + MUX bypass.

    This is the paper's ``csa <nbits>.<block_size>`` family (Table I).
    The final block's carry feeds the ``cout`` output through its MUX;
    intermediate block carries chain into the next block.

    Each block contributes the two classic redundancies: the skip AND's
    output s-a-0 (the circuit degenerates to ripple-carry, functionally
    identical) and one inside the MUX.
    """
    if nbits % block_size != 0:
        raise ValueError(
            f"nbits={nbits} must be a multiple of block_size={block_size}"
        )
    b = Builder(name or f"csa_{nbits}.{block_size}")
    a_bus = b.input_bus("a", nbits)
    b_bus = b.input_bus("b", nbits)
    cin = b.input("cin", arrival=cin_arrival)
    sums: List[int] = []
    carry = cin
    for base in range(0, nbits, block_size):
        block_in = carry
        propagates: List[int] = []
        for i in range(base, base + block_size):
            p = b.xor_simple(a_bus[i], b_bus[i], delay=XOR_DELAY)
            propagates.append(p)
            g = b.and_(a_bus[i], b_bus[i], delay=GATE_DELAY)
            sums.append(b.xor_simple(p, carry, delay=XOR_DELAY))
            t = b.and_(p, carry, delay=GATE_DELAY)
            carry = b.or_(g, t, delay=GATE_DELAY)
        skip = b.and_(*propagates, delay=GATE_DELAY)
        # MUX: skip ? block_in : ripple carry
        carry = b.mux(skip, carry, block_in, delay=MUX_DELAY)
    b.output_bus("s", sums)
    b.output("cout", carry)
    return b.done()


def carry_lookahead_adder(
    nbits: int,
    cin_arrival: float = 0.0,
    name: Optional[str] = None,
) -> Circuit:
    """A single-level carry-lookahead adder (flat P/G expansion).

    c_{i+1} = g_i + p_i g_{i-1} + ... + p_i .. p_0 c_0, built as a
    two-level AND-OR per carry.  Included as a second "fast adder"
    workload for the examples and the ablation benches; unlike the
    carry-skip adder it is irredundant as generated.
    """
    b = Builder(name or f"cla_{nbits}")
    a_bus = b.input_bus("a", nbits)
    b_bus = b.input_bus("b", nbits)
    cin = b.input("cin", arrival=cin_arrival)
    ps: List[int] = []
    gs: List[int] = []
    for i in range(nbits):
        ps.append(b.xor_simple(a_bus[i], b_bus[i], delay=XOR_DELAY))
        gs.append(b.and_(a_bus[i], b_bus[i], delay=GATE_DELAY))
    carries = [cin]
    for i in range(nbits):
        terms: List[int] = []
        # g_j * p_{j+1} * ... * p_i  for j <= i, plus c0 * p_0 .. p_i
        for j in range(i, -1, -1):
            factors = [gs[j]] + ps[j + 1 : i + 1]
            terms.append(
                factors[0]
                if len(factors) == 1
                else b.and_(*factors, delay=GATE_DELAY)
            )
        factors = [cin] + ps[0 : i + 1]
        terms.append(b.and_(*factors, delay=GATE_DELAY))
        carries.append(
            terms[0] if len(terms) == 1 else b.or_(*terms, delay=GATE_DELAY)
        )
    sums = [
        b.xor_simple(ps[i], carries[i], delay=XOR_DELAY)
        for i in range(nbits)
    ]
    b.output_bus("s", sums)
    b.output("cout", carries[nbits])
    return b.done()


def adder_reference(
    nbits: int, a: int, bval: int, cin: int
) -> Tuple[List[int], int]:
    """Golden model: sum bits (LSB first) and carry-out."""
    total = a + bval + cin
    return (
        [(total >> i) & 1 for i in range(nbits)],
        (total >> nbits) & 1,
    )


def check_adder(circuit: Circuit, nbits: int, a: int, bval: int, cin: int) -> bool:
    """Evaluate the circuit on one operand pair against the golden model."""
    assignment = {}
    for i in range(nbits):
        assignment[circuit.find_input(f"a{i}")] = (a >> i) & 1
        assignment[circuit.find_input(f"b{i}")] = (bval >> i) & 1
    assignment[circuit.find_input("cin")] = cin
    values = circuit.evaluate(assignment)
    sums, cout = adder_reference(nbits, a, bval, cin)
    for i in range(nbits):
        if values[circuit.find_output(f"s{i}")] != sums[i]:
            return False
    return values[circuit.find_output("cout")] == cout
