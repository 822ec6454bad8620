"""repro: a full reproduction of Keutzer, Malik & Saldanha,
"Is Redundancy Necessary to Reduce Delay?" (DAC 1990 / TCAD 1991).

The headline API:

    from repro import kms, carry_skip_adder, verify_transformation

    csa = carry_skip_adder(8, 2)
    result = kms(csa)                       # irredundant, no slower
    report = verify_transformation(csa, result.circuit)
    assert report.ok

Subpackages: ``network`` (circuit DAG), ``sim`` (logic/event simulation),
``sat`` (CDCL + Tseitin), ``bdd`` (ROBDD), ``timing`` (STA, false paths,
viability), ``atpg`` (PODEM, SAT-ATPG, fault sim), ``twolevel``
(espresso-lite), ``synth`` (multilevel synthesis + timing optimization),
``core`` (the KMS algorithm), ``circuits`` (generators), ``io``
(BLIF/PLA), ``bench`` (table/figure regeneration), ``counters`` (the
one store of deterministic work counters).
"""

from .network import Builder, Circuit, GateType, decompose_complex_gates
from .core import kms, measure_delays, verify_transformation
from .circuits import (
    carry_lookahead_adder,
    carry_skip_adder,
    ripple_carry_adder,
)
from .atpg import count_redundancies, is_irredundant, remove_redundancies
from .seq import SequentialCircuit, kms_sequential
from .timing import (
    UnitDelayModel,
    sensitizable_delay,
    topological_delay,
    viability_delay,
)

__version__ = "1.0.0"

__all__ = [
    "Builder",
    "Circuit",
    "GateType",
    "SequentialCircuit",
    "UnitDelayModel",
    "kms_sequential",
    "__version__",
    "carry_lookahead_adder",
    "carry_skip_adder",
    "count_redundancies",
    "decompose_complex_gates",
    "is_irredundant",
    "kms",
    "measure_delays",
    "remove_redundancies",
    "ripple_carry_adder",
    "sensitizable_delay",
    "topological_delay",
    "verify_transformation",
    "viability_delay",
]
