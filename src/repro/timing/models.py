"""Delay models.

Definition 4.1 attaches a delay to every gate and every connection; the
paper notes its results "do not depend on this particular model" and hold
for richer models too.  We capture that with a small strategy interface:

* :class:`AsBuiltDelayModel` -- use the delays stored on the circuit
  (what the paper's Section III example uses: XOR/MUX = 2, AND/OR = 1,
  c0 arriving at t = 5);
* :class:`UnitDelayModel` -- every logic gate costs 1, wires are free
  (the model behind Table I);
* :class:`LibraryDelayModel` -- a per-gate-type delay table, standing in
  for a cell library;
* :class:`FanoutDelayModel` -- wraps another model and adds a per-fanout
  load term, used by the Section 6.2 fanout-growth study.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..network import Circuit, GateType

#: Arrival time of signals that never transition (constants).
NEVER = float("-inf")

#: Tolerance for float time comparisons: path lengths that are sums of
#: non-integer delays (0.1, 0.7, ...) differ in the last bits depending
#: on the order they were summed in.
EPS = 1e-9


class DelayModel:
    """Strategy interface for circuit timing."""

    def gate_delay(self, circuit: Circuit, gid: int) -> float:
        raise NotImplementedError

    def conn_delay(self, circuit: Circuit, cid: int) -> float:
        raise NotImplementedError

    def input_arrival(self, circuit: Circuit, gid: int) -> float:
        """Arrival time of a primary input; default honors the circuit's
        stored arrival times."""
        return circuit.input_arrival.get(gid, 0.0)


class AsBuiltDelayModel(DelayModel):
    """Delays exactly as stored on gates and connections."""

    def gate_delay(self, circuit: Circuit, gid: int) -> float:
        return circuit.gates[gid].delay

    def conn_delay(self, circuit: Circuit, cid: int) -> float:
        return circuit.conns[cid].delay


class UnitDelayModel(DelayModel):
    """Unit delay per logic gate; BUFs and wires are free.

    ``use_arrival_times=False`` additionally zeroes PI arrival times, which
    is the configuration behind the paper's Table I delay numbers.
    """

    def __init__(self, use_arrival_times: bool = True) -> None:
        self.use_arrival_times = use_arrival_times

    _FREE = frozenset(
        {
            GateType.INPUT,
            GateType.OUTPUT,
            GateType.CONST0,
            GateType.CONST1,
            GateType.BUF,
        }
    )

    def gate_delay(self, circuit: Circuit, gid: int) -> float:
        gate = circuit.gates[gid]
        return 0.0 if gate.gtype in self._FREE else 1.0

    def conn_delay(self, circuit: Circuit, cid: int) -> float:
        return 0.0

    def input_arrival(self, circuit: Circuit, gid: int) -> float:
        if not self.use_arrival_times:
            return 0.0
        return circuit.input_arrival.get(gid, 0.0)


class LibraryDelayModel(DelayModel):
    """Per-gate-type delays, e.g. ``{GateType.NAND: 0.9, ...}``.

    Types missing from the table fall back to the gate's stored delay.
    """

    def __init__(
        self,
        table: Mapping[GateType, float],
        conn_default: float = 0.0,
    ) -> None:
        self.table = dict(table)
        self.conn_default = conn_default

    def gate_delay(self, circuit: Circuit, gid: int) -> float:
        gate = circuit.gates[gid]
        if gate.gtype in (
            GateType.INPUT,
            GateType.OUTPUT,
            GateType.CONST0,
            GateType.CONST1,
        ):
            return 0.0
        return self.table.get(gate.gtype, gate.delay)

    def conn_delay(self, circuit: Circuit, cid: int) -> float:
        return self.conn_default


class FanoutDelayModel(DelayModel):
    """Adds ``load_per_fanout * (fanout - 1)`` to a base model's gate delay.

    Models the Section 6.2 concern that duplication increases the fanout
    of gates feeding the duplicated region.  The paper's answer is cell
    resizing; the bench using this model quantifies how much resizing
    would have to buy back.
    """

    def __init__(
        self, base: Optional[DelayModel] = None, load_per_fanout: float = 0.1
    ) -> None:
        self.base = base if base is not None else AsBuiltDelayModel()
        self.load_per_fanout = load_per_fanout

    def gate_delay(self, circuit: Circuit, gid: int) -> float:
        gate = circuit.gates[gid]
        extra_fanout = max(0, len(gate.fanout) - 1)
        if gate.gtype in (
            GateType.INPUT,
            GateType.OUTPUT,
            GateType.CONST0,
            GateType.CONST1,
        ):
            return 0.0
        return (
            self.base.gate_delay(circuit, gid)
            + self.load_per_fanout * extra_fanout
        )

    def conn_delay(self, circuit: Circuit, cid: int) -> float:
        return self.base.conn_delay(circuit, cid)

    def input_arrival(self, circuit: Circuit, gid: int) -> float:
        return self.base.input_arrival(circuit, gid)


#: The delay table used throughout Section III of the paper:
#: "a gate delay of 1 for the AND and OR gates and gate delays of 2 for
#: the XOR and MUX gates".  (XOR/MUX enter our networks pre-decomposed
#: with the complex delay on the final simple gate, so this table is for
#: circuits that keep complex gates.)
PAPER_SECTION3_TABLE: Dict[GateType, float] = {
    GateType.AND: 1.0,
    GateType.OR: 1.0,
    GateType.NAND: 1.0,
    GateType.NOR: 1.0,
    GateType.NOT: 1.0,
    GateType.BUF: 0.0,
    GateType.XOR: 2.0,
    GateType.XNOR: 2.0,
}
