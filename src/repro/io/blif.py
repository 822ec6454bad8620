"""BLIF (Berkeley Logic Interchange Format) subset: read and write.

Supported constructs: ``.model``, ``.inputs``, ``.outputs``, ``.names``
(SOP tables, including constants), ``.end``, comments and line
continuations.  :func:`parse_blif` is combinational and rejects
latches; :func:`parse_blif_sequential` accepts ``.latch`` lines and
returns a :class:`repro.seq.SequentialCircuit`, applying the paper's
Section I reduction at the file-format level (latch boundaries become
the extracted core's PIs/POs).

Writing flattens each gate to a ``.names`` table, so any tool in the
Berkeley lineage (SIS, ABC, mvsis) can consume our circuits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..network import Builder, Circuit, GateType
from ..twolevel import Cover, Cube
from ..synth.factor import cover_to_gates


class BlifError(Exception):
    """Malformed BLIF input."""


def _logical_lines(text: str) -> Iterable[List[str]]:
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = pending + line
        pending = ""
        yield line.split()
    if pending:
        yield pending.split()


def parse_blif(text: str, gate_delay: float = 1.0) -> Circuit:
    """Parse combinational BLIF text into a circuit.

    Each ``.names`` table becomes a factored simple-gate tree (single
    output tables with '1' output phase; '0' phase tables are inverted).
    ``.latch`` is rejected; use :func:`parse_blif_sequential`.  So is a
    model with no ``.outputs`` (an empty file is one): it has no
    function to optimize or check.
    """
    parsed = _parse(text)
    if parsed["latches"]:
        raise BlifError(
            ".latch found: use parse_blif_sequential for sequential "
            "models"
        )
    if not parsed["outputs"]:
        raise BlifError("the model declares no .outputs")
    return _build_combinational(parsed, gate_delay)


def _parse(text: str) -> dict:
    model_name = "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    latches: List[Tuple[str, str, int]] = []  # (data, output, init)
    tables: List[Tuple[List[str], str, List[Tuple[str, str]]]] = []
    current: Optional[Tuple[List[str], str, List[Tuple[str, str]]]] = None

    for tokens in _logical_lines(text):
        head = tokens[0]
        if head == ".model":
            model_name = tokens[1] if len(tokens) > 1 else model_name
        elif head == ".inputs":
            inputs.extend(tokens[1:])
        elif head == ".outputs":
            outputs.extend(tokens[1:])
        elif head == ".names":
            if len(tokens) < 2:
                raise BlifError(".names needs at least an output")
            current = (tokens[1:-1], tokens[-1], [])
            tables.append(current)
        elif head == ".latch":
            # .latch <data> <output> [<type> <control>] [<init>]
            body = tokens[1:]
            if len(body) < 2:
                raise BlifError(".latch needs data and output signals")
            data, output = body[0], body[1]
            init = 0
            rest = body[2:]
            if rest and rest[-1] in ("0", "1", "2", "3"):
                init = int(rest[-1]) & 1  # 2/3 (don't-care) -> 0/1
            latches.append((data, output, init))
        elif head in (".gate", ".mlatch"):
            raise BlifError(f"{head} is not supported")
        elif head == ".end":
            current = None
        elif head.startswith("."):
            raise BlifError(f"unsupported construct {head}")
        else:
            if current is None:
                raise BlifError(f"table row outside .names: {tokens}")
            if len(current[0]) == 0:
                # constant table: single output column
                current[2].append(("", tokens[0]))
            else:
                if len(tokens) != 2:
                    raise BlifError(f"bad table row: {tokens}")
                current[2].append((tokens[0], tokens[1]))
    return {
        "name": model_name,
        "inputs": inputs,
        "outputs": outputs,
        "latches": latches,
        "tables": tables,
    }


def _build_combinational(parsed: dict, gate_delay: float) -> Circuit:
    model_name = parsed["name"]
    inputs = parsed["inputs"]
    outputs = parsed["outputs"]
    tables = parsed["tables"]
    b = Builder(model_name)
    signal: Dict[str, int] = {}
    for name in inputs:
        signal[name] = b.input(name)

    # tables may be listed in any order: resolve iteratively
    remaining = list(tables)
    guard = len(remaining) + 1
    while remaining and guard:
        guard -= 1
        progressed = []
        for table in remaining:
            ins, out, rows = table
            if all(n in signal for n in ins):
                signal[out] = _lower_table(b, ins, rows, signal, gate_delay)
                progressed.append(table)
        for t in progressed:
            remaining.remove(t)
        if not progressed:
            missing = {n for t in remaining for n in t[0] if n not in signal}
            raise BlifError(f"undriven signals: {sorted(missing)}")
    for name in outputs:
        if name not in signal:
            raise BlifError(f"output {name} is undriven")
        b.output(name, signal[name])
    return b.done()


def parse_blif_sequential(text: str, gate_delay: float = 1.0):
    """Parse BLIF with ``.latch`` lines into a
    :class:`repro.seq.SequentialCircuit`.

    Latch outputs become pseudo primary inputs of the combinational
    core; latch data signals become pseudo primary outputs -- the
    Section I extraction, performed while reading the file.
    """
    from ..seq import Latch, SequentialCircuit

    parsed = _parse(text)
    latches = parsed["latches"]
    q_names = [q for _d, q, _i in latches]
    d_names = [d for d, _q, _i in latches]
    if len(set(q_names)) != len(q_names):
        raise BlifError("two latches drive the same output signal")
    overlap = set(q_names) & set(parsed["inputs"])
    if overlap:
        raise BlifError(
            f"latch outputs collide with inputs: {sorted(overlap)}"
        )
    core_spec = dict(parsed)
    core_spec["inputs"] = parsed["inputs"] + q_names
    core_spec["outputs"] = parsed["outputs"] + [
        d for d in d_names if d not in parsed["outputs"]
    ]
    core = _build_combinational(core_spec, gate_delay)
    machine_latches = [
        Latch(name=f"{q}_latch", data_output=d, state_input=q, init=init)
        for d, q, init in latches
    ]
    return SequentialCircuit(core, machine_latches, parsed["name"])


def write_blif_sequential(machine) -> str:
    """Serialize a :class:`repro.seq.SequentialCircuit` to BLIF."""
    core_text = write_blif(machine.core)
    lines = core_text.splitlines()
    data_names = {l.data_output for l in machine.latches}
    state_names = {l.state_input for l in machine.latches}
    out: List[str] = []
    for line in lines:
        if line.startswith(".inputs"):
            names = [
                n for n in line.split()[1:] if n not in state_names
            ]
            out.append(".inputs " + " ".join(names))
        elif line.startswith(".outputs"):
            names = [
                n for n in line.split()[1:] if n not in data_names
            ]
            out.append(".outputs " + " ".join(names))
            for latch in machine.latches:
                out.append(
                    f".latch {latch.data_output} {latch.state_input} "
                    f"{latch.init}"
                )
        else:
            out.append(line)
    return "\n".join(out) + ("\n" if not out[-1].endswith("\n") else "")


def _lower_table(
    b: Builder,
    ins: List[str],
    rows: List[Tuple[str, str]],
    signal: Dict[str, int],
    gate_delay: float,
) -> int:
    if not ins:
        value = rows and rows[0][1] == "1"
        return b.const(1 if value else 0)
    on_phase = all(r[1] == "1" for r in rows) if rows else True
    if rows and not (on_phase or all(r[1] == "0" for r in rows)):
        raise BlifError("mixed output phases in one table")
    cover = Cover(len(ins))
    for pattern, _out in rows:
        if len(pattern) != len(ins):
            raise BlifError(f"row width mismatch: {pattern}")
        cover.add(Cube.from_string(pattern))
    leaf = {i: signal[n] for i, n in enumerate(ins)}
    root = cover_to_gates(b.circuit, cover, leaf, gate_delay)
    if not on_phase:
        root = b.not_(root, delay=gate_delay)
    return root


def write_blif(circuit: Circuit) -> str:
    """Serialize a circuit to BLIF (one .names table per gate)."""
    names: Dict[int, str] = {}
    for gid, gate in circuit.gates.items():
        if gate.gtype is GateType.INPUT:
            names[gid] = gate.name or f"pi{gid}"
        elif gate.gtype is GateType.OUTPUT:
            names[gid] = gate.name or f"po{gid}"
        else:
            names[gid] = f"n{gid}"
    lines = [f".model {circuit.name}"]
    lines.append(".inputs " + " ".join(names[g] for g in circuit.inputs))
    lines.append(".outputs " + " ".join(names[g] for g in circuit.outputs))
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        ins = [names[s] for s in circuit.fanin_gates(gid)]
        out = names[gid]
        t = gate.gtype
        if t is GateType.INPUT:
            continue
        if t is GateType.CONST0:
            lines.append(f".names {out}")
        elif t is GateType.CONST1:
            lines.append(f".names {out}")
            lines.append("1")
        elif t in (GateType.BUF, GateType.OUTPUT):
            lines.append(f".names {ins[0]} {out}")
            lines.append("1 1")
        elif t is GateType.NOT:
            lines.append(f".names {ins[0]} {out}")
            lines.append("0 1")
        elif t is GateType.AND:
            lines.append(f".names {' '.join(ins)} {out}")
            lines.append("1" * len(ins) + " 1")
        elif t is GateType.NAND:
            lines.append(f".names {' '.join(ins)} {out}")
            for i in range(len(ins)):
                row = ["-"] * len(ins)
                row[i] = "0"
                lines.append("".join(row) + " 1")
        elif t is GateType.OR:
            lines.append(f".names {' '.join(ins)} {out}")
            for i in range(len(ins)):
                row = ["-"] * len(ins)
                row[i] = "1"
                lines.append("".join(row) + " 1")
        elif t is GateType.NOR:
            lines.append(f".names {' '.join(ins)} {out}")
            lines.append("0" * len(ins) + " 1")
        elif t in (GateType.XOR, GateType.XNOR):
            lines.append(f".names {' '.join(ins)} {out}")
            want = 1 if t is GateType.XOR else 0
            for m in range(1 << len(ins)):
                bits = [(m >> i) & 1 for i in range(len(ins))]
                if sum(bits) % 2 == want:
                    lines.append(
                        "".join(str(v) for v in bits) + " 1"
                    )
        else:  # pragma: no cover - exhaustive over GateType
            raise BlifError(f"cannot serialize {t}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
