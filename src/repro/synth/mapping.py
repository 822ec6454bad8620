"""Technology mapping lite: NAND-only / NOR-only networks.

Section 6.2 discusses custom, standard-cell and *gate-array* design
styles; gate arrays are classically seas of 2-input NANDs (or NORs).
`map_to_nand` / `map_to_nor` rewrite a simple-gate network into
{2-input NAND, NOT} (resp. NOR) form -- still a simple-gate network, so
the KMS algorithm runs on mapped circuits unchanged (covered by tests).

Delays: each mapped cell takes the library delay passed in; the
original complex-gate delays are intentionally discarded because after
mapping the cell library *is* the delay model (the situation Section II
assumes).
"""

from __future__ import annotations

from typing import Dict, List

from ..network import Builder, Circuit, GateType
from .optimize import area_optimize


class _Mapper:
    def __init__(
        self,
        circuit: Circuit,
        cell: GateType,
        cell_delay: float,
        inv_delay: float,
        name_suffix: str,
    ) -> None:
        self.src = circuit
        self.cell = cell  # NAND or NOR
        self.cell_delay = cell_delay
        self.inv_delay = inv_delay
        self.b = Builder(f"{circuit.name}{name_suffix}")
        self.mapped: Dict[int, int] = {}
        self.inverters: Dict[int, int] = {}

    def inv(self, gid: int) -> int:
        if gid not in self.inverters:
            self.inverters[gid] = self.b.circuit.add_simple(
                GateType.NOT, [gid], self.inv_delay
            )
        return self.inverters[gid]

    def cell2(self, a: int, b_: int) -> int:
        return self.b.circuit.add_simple(
            self.cell, [a, b_], self.cell_delay
        )

    def cell_tree_positive(self, srcs: List[int]) -> int:
        """AND of srcs (for NAND cell) / OR of srcs (for NOR cell),
        built as alternating cell+inverter levels."""
        if len(srcs) == 1:
            return srcs[0]
        level = list(srcs)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(
                    self.inv(self.cell2(level[i], level[i + 1]))
                )
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def map_gate(self, gid: int) -> int:
        gate = self.src.gates[gid]
        ins = [self.mapped[s] for s in self.src.fanin_gates(gid)]
        t = gate.gtype
        nand = self.cell is GateType.NAND
        if t is GateType.BUF:
            return ins[0]
        if t is GateType.NOT:
            return self.inv(ins[0])
        if t in (GateType.CONST0, GateType.CONST1):
            raise AssertionError("constants handled by caller")
        if nand:
            if t is GateType.AND:
                return self.cell_tree_positive(ins)
            if t is GateType.NAND:
                if len(ins) == 1:
                    return self.inv(ins[0])
                if len(ins) == 2:
                    return self.cell2(*ins)
                return self.inv(self.cell_tree_positive(ins))
            if t is GateType.OR:
                # a + b = NAND(a', b')
                if len(ins) == 1:
                    return ins[0]
                inverted = [self.inv(i) for i in ins]
                return self.inv(self.cell_tree_positive(inverted))
            if t is GateType.NOR:
                if len(ins) == 1:
                    return self.inv(ins[0])
                inverted = [self.inv(i) for i in ins]
                return self.cell_tree_positive(inverted)
        else:
            if t is GateType.OR:
                return self.cell_tree_positive(ins)
            if t is GateType.NOR:
                if len(ins) == 1:
                    return self.inv(ins[0])
                if len(ins) == 2:
                    return self.cell2(*ins)
                return self.inv(self.cell_tree_positive(ins))
            if t is GateType.AND:
                if len(ins) == 1:
                    return ins[0]
                inverted = [self.inv(i) for i in ins]
                return self.inv(self.cell_tree_positive(inverted))
            if t is GateType.NAND:
                if len(ins) == 1:
                    return self.inv(ins[0])
                inverted = [self.inv(i) for i in ins]
                return self.cell_tree_positive(inverted)
        raise ValueError(
            f"cannot map {t}; decompose complex gates first"
        )


def _map(
    circuit: Circuit,
    cell: GateType,
    cell_delay: float,
    inv_delay: float,
    suffix: str,
) -> Circuit:
    if not circuit.is_simple_gate_network():
        raise ValueError(
            "mapping requires a simple-gate network; run "
            "decompose_complex_gates first"
        )
    mapper = _Mapper(circuit, cell, cell_delay, inv_delay, suffix)
    b = mapper.b
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gate.gtype is GateType.INPUT:
            mapper.mapped[gid] = b.input(
                gate.name, arrival=circuit.input_arrival.get(gid, 0.0)
            )
        elif gate.gtype is GateType.CONST0:
            mapper.mapped[gid] = b.const(0)
        elif gate.gtype is GateType.CONST1:
            mapper.mapped[gid] = b.const(1)
        elif gate.gtype is GateType.OUTPUT:
            src = mapper.mapped[circuit.fanin_gates(gid)[0]]
            b.output(gate.name, src)
        else:
            mapper.mapped[gid] = mapper.map_gate(gid)
    result = b.done()
    area_optimize(result)
    return result


def map_to_nand(
    circuit: Circuit, nand_delay: float = 1.0, inv_delay: float = 0.5
) -> Circuit:
    """Rewrite into {2-input NAND, NOT} (gate-array style)."""
    return _map(circuit, GateType.NAND, nand_delay, inv_delay, "_nand")


def map_to_nor(
    circuit: Circuit, nor_delay: float = 1.0, inv_delay: float = 0.5
) -> Circuit:
    """Rewrite into {2-input NOR, NOT}."""
    return _map(circuit, GateType.NOR, nor_delay, inv_delay, "_nor")
