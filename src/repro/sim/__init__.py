"""Simulation substrate: 2/3/5-valued, bit-parallel, and event-driven."""

from .logic import (
    X,
    eval_gate3,
    outputs_equal_exhaustive,
    simulate3,
    simulate_cube_by_name,
    truth_table,
    v3_and,
    v3_not,
    v3_or,
    v3_xor,
)
from .parallel import (
    eval_gate_bits,
    pack_vectors,
    random_equivalence_check,
    random_packed_inputs,
    simulate_packed,
)
from .kernel import (
    ArenaCompiledCircuit,
    CompiledCircuit,
    get_compiled,
)
from .dcalc import D, DBAR, ONE, XX, ZERO, eval_gate5, is_d_or_dbar, simulate5
from .events import (
    output_waveforms,
    sample_waveform,
    settle_time,
    true_delay,
)

__all__ = [
    "ArenaCompiledCircuit",
    "CompiledCircuit",
    "D",
    "DBAR",
    "ONE",
    "XX",
    "X",
    "ZERO",
    "get_compiled",
    "eval_gate3",
    "eval_gate5",
    "eval_gate_bits",
    "is_d_or_dbar",
    "output_waveforms",
    "outputs_equal_exhaustive",
    "pack_vectors",
    "sample_waveform",
    "random_equivalence_check",
    "random_packed_inputs",
    "settle_time",
    "simulate3",
    "simulate5",
    "simulate_cube_by_name",
    "simulate_packed",
    "truth_table",
    "v3_and",
    "v3_not",
    "v3_or",
    "v3_xor",
    "true_delay",
]
