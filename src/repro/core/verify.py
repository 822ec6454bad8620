"""End-to-end verification of a KMS (or any) circuit transformation.

Gathers, in one structured record, everything the paper claims about the
output circuit:

* functional equivalence to the input (SAT miter);
* full single-stuck-at testability (irredundancy);
* delay non-increase under the topological, viability, and
  longest-sensitizable-path delay measures.

The Table I bench and the checked KMS mode are both built on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..atpg import SatAtpg, collapsed_faults
from ..network import Circuit
from ..sat import check_equivalence
from ..timing import (
    AsBuiltDelayModel,
    DelayModel,
    sensitizable_delay,
    topological_delay,
    viability_delay,
)
from ..timing.models import EPS


@dataclass
class DelayTriple:
    """The three delay measures discussed in Sections II and V."""

    topological: float
    viability: float
    sensitizable: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "topological": self.topological,
            "viability": self.viability,
            "sensitizable": self.sensitizable,
        }


def measure_delays(
    circuit: Circuit, model: Optional[DelayModel] = None
) -> DelayTriple:
    """Compute all three delay measures for a circuit."""
    model = model if model is not None else AsBuiltDelayModel()
    return DelayTriple(
        topological=topological_delay(circuit, model),
        viability=viability_delay(circuit, model).delay,
        sensitizable=sensitizable_delay(circuit, model).delay,
    )


@dataclass
class VerificationReport:
    """Everything the paper promises, measured."""

    equivalent: bool
    irredundant: bool
    redundancies_before: int
    redundancies_after: int
    delays_before: DelayTriple
    delays_after: DelayTriple
    gates_before: int
    gates_after: int
    notes: List[str] = field(default_factory=list)

    @property
    def delay_preserved(self) -> bool:
        """The paper's guarantee: viability delay did not increase."""
        return self.delays_after.viability <= self.delays_before.viability + EPS

    @property
    def ok(self) -> bool:
        return self.equivalent and self.irredundant and self.delay_preserved


def verify_transformation(
    before: Circuit,
    after: Circuit,
    model: Optional[DelayModel] = None,
) -> VerificationReport:
    """Measure a before/after circuit pair against all paper claims."""
    model = model if model is not None else AsBuiltDelayModel()
    equivalence = check_equivalence(before, after)

    engine_before = SatAtpg(before)
    red_before = sum(
        1
        for f in collapsed_faults(before)
        if engine_before.is_redundant(f)
    )
    engine_after = SatAtpg(after)
    red_after = sum(
        1 for f in collapsed_faults(after) if engine_after.is_redundant(f)
    )

    report = VerificationReport(
        equivalent=equivalence.equivalent,
        irredundant=red_after == 0,
        redundancies_before=red_before,
        redundancies_after=red_after,
        delays_before=measure_delays(before, model),
        delays_after=measure_delays(after, model),
        gates_before=before.num_gates(),
        gates_after=after.num_gates(),
    )
    if not equivalence.equivalent:
        report.notes.append(
            f"differs on {equivalence.differing_output!r} under "
            f"{equivalence.counterexample!r}"
        )
    return report
