"""The worklist ``propagate_constants`` and ``sweep`` equal the re-scans.

The reference implementations below are the repeated full passes the
worklists replaced: ``propagate_constants`` re-ran a
topological pass until nothing changed, and ``sweep`` re-scanned every
gate until no fanout-free gate was left.  On random circuits with
random tie-offs, the nine MCNC stand-ins and the Table I carry-skip
adders, both must leave the same circuit (gids, cids, every gate and
connection, the content fingerprint), remove the same gates in the same
order, and return the same counts.
"""

import random
from typing import List, Tuple

import pytest

from repro.circuits import MCNC_NAMES, carry_skip_adder, mcnc_circuit
from repro.circuits import random_circuit, random_redundant_circuit
from repro.engine.hashing import circuit_fingerprint
from repro.engine.sweep import CSA_SIZES
from repro.network import GateType
from repro.network.gates import (
    SOURCE_TYPES,
    controlled_output,
    controlling_value,
    degenerate_single_input_type,
)
from repro.network.transform import (
    _CONST_TYPE,
    constant_value,
    propagate_constants,
    set_connection_constant,
    sweep,
)


# ---------------------------------------------------------------------- #
# the references: the repeated full passes
# ---------------------------------------------------------------------- #


def _reference_make_constant(circuit, gid, value):
    gate = circuit.gates[gid]
    const = circuit.add_gate(_CONST_TYPE[value], 0.0)
    for cid in list(gate.fanout):
        circuit.move_connection_source(cid, const)
    circuit.remove_gate(gid)


def reference_propagate_constants(circuit) -> int:
    before = circuit.num_gates()
    changed = True
    while changed:
        changed = False
        for gid in circuit.topological_order():
            if gid not in circuit.gates:
                continue
            gate = circuit.gates[gid]
            if gate.gtype in SOURCE_TYPES or gate.gtype is GateType.OUTPUT:
                continue
            const_pins: List[Tuple[int, int]] = []
            for cid in list(gate.fanin):
                val = constant_value(circuit, circuit.conns[cid].src)
                if val is not None:
                    const_pins.append((cid, val))
            if not const_pins:
                continue
            changed = True
            gtype = gate.gtype
            if gtype in (GateType.BUF, GateType.OUTPUT):
                _reference_make_constant(circuit, gid, const_pins[0][1])
                continue
            if gtype is GateType.NOT:
                _reference_make_constant(circuit, gid, 1 - const_pins[0][1])
                continue
            if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
                cv = controlling_value(gtype)
                if any(val == cv for _, val in const_pins):
                    _reference_make_constant(
                        circuit, gid, controlled_output(gtype)
                    )
                    continue
                for cid, _ in const_pins:
                    circuit.remove_connection(cid)
            elif gtype in (GateType.XOR, GateType.XNOR):
                flips = 0
                for cid, val in const_pins:
                    flips ^= val
                    circuit.remove_connection(cid)
                if flips:
                    circuit.set_gate_type(
                        gid,
                        GateType.XNOR
                        if gtype is GateType.XOR
                        else GateType.XOR,
                    )
            gate = circuit.gates[gid]
            if not gate.fanin:
                empty = {
                    GateType.AND: 1,
                    GateType.NAND: 0,
                    GateType.OR: 0,
                    GateType.NOR: 1,
                    GateType.XOR: 0,
                    GateType.XNOR: 1,
                }[gate.gtype]
                _reference_make_constant(circuit, gid, empty)
            elif len(gate.fanin) == 1 and gate.gtype not in (
                GateType.BUF,
                GateType.NOT,
            ):
                circuit.set_gate_type(
                    gid, degenerate_single_input_type(gate.gtype)
                )
                circuit.set_gate_delay(gid, 0.0)
                circuit.set_connection_delay(gate.fanin[0], 0.0)
    reference_sweep(circuit)
    return before - circuit.num_gates()


def reference_sweep(circuit, collapse_buffers=False) -> int:
    removed = 0
    changed = True
    while changed:
        changed = False
        for gid in list(circuit.gates):
            gate = circuit.gates.get(gid)
            if gate is None:
                continue
            if gate.gtype in (GateType.INPUT, GateType.OUTPUT):
                continue
            if not gate.fanout:
                circuit.remove_gate(gid)
                removed += 1
                changed = True
    if collapse_buffers:
        for gid in list(circuit.gates):
            gate = circuit.gates.get(gid)
            if gate is None or gate.gtype is not GateType.BUF:
                continue
            if gate.delay != 0.0 or len(gate.fanin) != 1:
                continue
            in_cid = gate.fanin[0]
            in_conn = circuit.conns[in_cid]
            for out_cid in list(gate.fanout):
                out_conn = circuit.conns[out_cid]
                circuit.set_connection_delay(
                    out_cid, out_conn.delay + in_conn.delay + gate.delay
                )
                circuit.move_connection_source(out_cid, in_conn.src)
            circuit.remove_gate(gid)
            removed += 1
    return removed


# ---------------------------------------------------------------------- #
# the comparison
# ---------------------------------------------------------------------- #


def _state(circuit):
    """Everything a transform can change, ids and list orders included."""
    return (
        circuit._next_gid,
        circuit._next_cid,
        [
            (g.gid, g.gtype, g.delay, g.name, list(g.fanin), list(g.fanout))
            for g in circuit.gates.values()
        ],
        [(c.cid, c.src, c.dst, c.delay) for c in circuit.conns.values()],
        circuit.inputs,
        circuit.outputs,
        circuit_fingerprint(circuit),
    )


def _recording(circuit):
    """Record the order in which ``circuit`` loses gates."""
    removed = []
    remove_gate = circuit.remove_gate

    def record(gid):
        removed.append(gid)
        remove_gate(gid)

    circuit.remove_gate = record
    return removed


def _assert_same(circuit, mine, reference):
    a, b = circuit.copy(), circuit.copy()
    removed_a, removed_b = _recording(a), _recording(b)
    result_a, result_b = mine(a), reference(b)
    assert result_a == result_b
    assert removed_a == removed_b
    assert _state(a) == _state(b)


def _tie_off(circuit, rng, ties):
    candidates = [
        cid
        for cid, conn in circuit.conns.items()
        if circuit.gates[conn.dst].gtype is not GateType.OUTPUT
        and constant_value(circuit, conn.src) is None
    ]
    for cid in rng.sample(candidates, min(ties, len(candidates))):
        set_connection_constant(circuit, cid, rng.randint(0, 1))


def _check_all(circuit, rng, trials):
    _assert_same(circuit, propagate_constants, reference_propagate_constants)
    for _ in range(trials):
        tied = circuit.copy()
        _tie_off(tied, rng, rng.randint(1, 4))
        _assert_same(tied, propagate_constants, reference_propagate_constants)
        _assert_same(tied, sweep, reference_sweep)
        _assert_same(
            tied,
            lambda c: sweep(c, collapse_buffers=True),
            lambda c: reference_sweep(c, collapse_buffers=True),
        )
        # the KMS order: propagate, then sweep with buffer collapsing
        propagate_constants(tied)
        _assert_same(
            tied,
            lambda c: sweep(c, collapse_buffers=True),
            lambda c: reference_sweep(c, collapse_buffers=True),
        )


@pytest.mark.parametrize("batch", range(4))
def test_worklists_match_the_rescans_on_random_circuits(batch):
    rng = random.Random(3100 + batch)
    for index in range(25):
        if index % 2:
            circuit = random_redundant_circuit(
                num_inputs=rng.randint(3, 7),
                num_gates=rng.randint(8, 30),
                seed=rng.randint(0, 10**6),
            )
        else:
            circuit = random_circuit(
                num_inputs=rng.randint(3, 7),
                num_gates=rng.randint(10, 40),
                num_outputs=rng.randint(1, 4),
                seed=rng.randint(0, 10**6),
            )
        _check_all(circuit, rng, trials=3)


@pytest.mark.parametrize("name", MCNC_NAMES)
def test_worklists_match_the_rescans_on_mcnc(name):
    _check_all(mcnc_circuit(name), random.Random(name), trials=3)


@pytest.mark.parametrize(
    "nbits,block", CSA_SIZES, ids=[f"csa{n}.{b}" for n, b in CSA_SIZES]
)
def test_worklists_match_the_rescans_on_carry_skip_adders(nbits, block):
    _check_all(
        carry_skip_adder(nbits, block), random.Random(nbits * 10 + block), 4
    )
