"""Table I regeneration: the paper's headline experiment.

Two workload families:

* carry-skip adders ``csa n.b`` (the paper runs 2.2, 4.4, 8.2, 8.4);
* the MCNC-like suite, area-synthesized then delay-optimized, exactly
  the flow of Section VIII ("optimized for delay using the timing
  optimization commands in MIS-II on circuits that had been initially
  optimized for area").

Each row records the redundancy count of the initial circuit, gate
counts before/after KMS, and -- beyond the paper's columns -- the
false-path-aware delay before/after, since "no delay increase" is the
algorithm's contract.  `classify_longest_paths` reports the paper's
class-1 / class-2 split for the optimized MCNC circuits.

Since the engine landed this module is a thin wrapper: every row is one
``repro.engine`` pipeline (*atpg -> sense_delay -> kms -> sense_delay*),
run in-process here.  Wall time comes from engine telemetry records, so
these serial numbers are directly comparable to the parallel/cached
numbers of ``python -m repro bench``, which runs the same pipelines
through :func:`repro.engine.run_table1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits import carry_skip_adder
from ..circuits.mcnc import MCNC_NAMES, mcnc_circuit
from ..core import TableRow, format_table
from ..engine import ResultCache, model_params, run_pipeline, table1_pipeline
from ..network import Circuit
from ..synth import speed_up
from ..timing import (
    DelayModel,
    UnitDelayModel,
    sensitizable_delay,
    topological_delay,
)
from ..timing.models import EPS

#: The paper's four carry-skip configurations (bits, block size).
CSA_SIZES: List[Tuple[int, int]] = [(2, 2), (4, 4), (8, 2), (8, 4)]

#: The paper's Table I reference values: name -> (red, initial, final).
PAPER_TABLE1: Dict[str, Tuple[int, int, int]] = {
    "csa 2.2": (2, 22, 21),
    "csa 4.4": (2, 40, 43),
    "csa 8.2": (8, 88, 88),
    "csa 8.4": (4, 80, 87),
    "5xp1": (1, 92, 91),
    "clip": (2, 99, 97),
    "duke2": (2, 317, 315),
    "f51m": (23, 164, 140),
    "misex1": (28, 79, 55),
    "misex2": (1, 88, 87),
    "rd73": (9, 91, 80),
    "sao2": (8, 122, 114),
    "z4ml": (7, 59, 53),
}


@dataclass
class Table1Row:
    """A measured Table I row plus delay evidence."""

    row: TableRow
    kms_iterations: int
    duplicated_gates: int
    seconds: float


def run_circuit_row(
    name: str,
    circuit: Circuit,
    model: Optional[DelayModel] = None,
    mode: str = "static",
    cache: Optional[ResultCache] = None,
) -> Table1Row:
    """Run the full KMS experiment on one circuit and collect the row.

    One engine pipeline, executed in-process.  Passing a ``cache`` makes
    every stage content-addressed-memoized; a delay model that has no
    declarative encoding (see :func:`repro.engine.model_params`) still
    works but that run is uncacheable.
    """
    model = model if model is not None else UnitDelayModel()
    encoded = model_params(model)
    pipeline = table1_pipeline(encoded, mode) if encoded is not None else None
    if pipeline is None:
        from ..engine import StageCall

        params = {"_model": model}
        pipeline = [
            StageCall("atpg", {}),
            StageCall("sense_delay", dict(params), label="delay_initial"),
            StageCall("kms", {**params, "mode": mode}),
            StageCall("sense_delay", dict(params), label="delay_final"),
        ]
    result = run_pipeline(circuit, pipeline, job_name=name, cache=cache)
    if not result.ok:
        raise RuntimeError(f"table1 row {name!r} failed: {result.error}")
    kms_payload = result.results["kms"]
    row = TableRow(
        name=name,
        redundancies=result.results["atpg"]["redundancies"],
        gates_initial=kms_payload["gates_initial"],
        gates_final=kms_payload["gates_final"],
        delay_initial=result.results["delay_initial"]["delay"],
        delay_final=result.results["delay_final"]["delay"],
    )
    return Table1Row(
        row=row,
        kms_iterations=kms_payload["iterations"],
        duplicated_gates=kms_payload["duplicated_gates"],
        seconds=sum(r.seconds for r in result.records),
    )


def carry_skip_rows(
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    model: Optional[DelayModel] = None,
    mode: str = "static",
    cache: Optional[ResultCache] = None,
) -> List[Table1Row]:
    """The csa rows of Table I."""
    model = model if model is not None else UnitDelayModel(
        use_arrival_times=False
    )
    rows = []
    for nbits, block in sizes if sizes is not None else CSA_SIZES:
        circuit = carry_skip_adder(nbits, block)
        rows.append(
            run_circuit_row(
                f"csa {nbits}.{block}", circuit, model, mode, cache
            )
        )
    return rows


def optimized_mcnc(
    name: str,
    late_arrival: float = 6.0,
    model: Optional[DelayModel] = None,
) -> Circuit:
    """The Table I starting point for an MCNC name: area synthesis, then
    delay optimization under an input-arrival skew (first input late,
    standing in for the in-context timing constraints MIS-II optimized
    against -- this is what makes bypass-style restructuring, and hence
    the paper's redundancy phenomena, appear)."""
    model = model if model is not None else UnitDelayModel()
    circuit = mcnc_circuit(name)
    if late_arrival and circuit.inputs:
        circuit.set_input_arrival(circuit.inputs[0], late_arrival)
    fast, _stats = speed_up(circuit, model)
    return fast


def mcnc_rows(
    names: Optional[Sequence[str]] = None,
    late_arrival: float = 6.0,
    model: Optional[DelayModel] = None,
    mode: str = "static",
    cache: Optional[ResultCache] = None,
) -> List[Table1Row]:
    """The MCNC rows of Table I (on the stand-in suite)."""
    model = model if model is not None else UnitDelayModel()
    rows = []
    for name in names if names is not None else MCNC_NAMES:
        circuit = optimized_mcnc(name, late_arrival, model)
        rows.append(run_circuit_row(name, circuit, model, mode, cache))
    return rows


def classify_longest_paths(
    circuit: Circuit, model: Optional[DelayModel] = None
) -> str:
    """Section VIII's two classes: "class1" when the longest paths are
    not statically sensitizable (false), "class2" when sensitizable."""
    model = model if model is not None else UnitDelayModel()
    topo = topological_delay(circuit, model)
    sens = sensitizable_delay(circuit, model).delay
    return "class1" if sens < topo - EPS else "class2"


def render(rows: Iterable[Table1Row], title: str) -> str:
    """Format rows with the paper's reference values alongside."""
    table_rows = []
    for item in rows:
        row = item.row
        ref = PAPER_TABLE1.get(row.name)
        if ref:
            row.extra = (
                f"paper: red {ref[0]}, {ref[1]} -> {ref[2]} gates"
            )
        table_rows.append(row)
    return format_table(table_rows, title)
