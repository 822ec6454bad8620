"""The paper's contract for one KMS output (Theorems 7.1/7.2).

(a) The output computes the same function as the input (fraig miter;
    a CNF miter on rca1024 did not finish in 300 s, fraig takes 0.1 s).
(b) Every collapsed single stuck-at fault of the output has a test.
    Seeded random vectors are graded by ``fault_coverage``; each fault
    they miss goes to ``SatAtpg``, and the SAT test is confirmed by the
    interpreted simulator rather than the compiled kernel the proof
    engine uses.
(c) The output's viability delay is no higher than the input's.

No UNSAT proof is needed for (b): a confirmed test per fault is the
whole irredundancy certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.atpg.faults import Fault, collapsed_faults
from repro.atpg.faultsim import detecting_patterns, fault_coverage, random_vectors
from repro.atpg.satatpg import SatAtpg
from repro.network import Circuit
from repro.sat import check_equivalence
from repro.timing import DelayModel, viability_delay

#: 64-vector blocks graded before falling back to SAT.  4,096 random
#: vectors leave no survivor on any MCNC output; 1,024 left 9 on duke2,
#: and each SAT fallback costs about 0.7 s there.
RANDOM_BLOCKS = 64


@dataclass
class Verdict:
    delay_in: float
    delay_out: float
    problems: List[str] = field(default_factory=list)


def check_output(
    original: Circuit, output: Circuit, model: DelayModel, seed: int
) -> Verdict:
    """Check the three-part contract; every violation becomes a problem."""
    problems = []
    equivalence = check_equivalence(original, output, method="fraig")
    if not equivalence.equivalent:
        problems.append(
            f"not equivalent: output {equivalence.differing_output!r} "
            f"differs under {equivalence.counterexample}"
        )
    for fault in untested_faults(output, seed):
        problems.append(f"no test for fault {fault.describe(output)}")
    verdict = Verdict(
        viability_delay(original, model).delay,
        viability_delay(output, model).delay,
        problems,
    )
    if verdict.delay_out > verdict.delay_in + 1e-9:
        problems.append(
            f"slower: viability delay {verdict.delay_in} -> {verdict.delay_out}"
        )
    return verdict


def untested_faults(circuit: Circuit, seed: int) -> List[Fault]:
    """Collapsed faults of ``circuit`` for which no test was confirmed."""
    remaining = collapsed_faults(circuit)
    for block in range(RANDOM_BLOCKS):
        if not remaining:
            return []
        vectors = random_vectors(circuit, 64, seed=seed * RANDOM_BLOCKS + block)
        remaining = fault_coverage(circuit, remaining, vectors).undetected_faults
    atpg = SatAtpg(circuit)
    return [fault for fault in remaining if not _sat_tested(circuit, fault, atpg)]


def _sat_tested(circuit: Circuit, fault: Fault, atpg: SatAtpg) -> bool:
    result = atpg.generate(fault)
    if not result.testable:
        return False
    packed = {gid: result.test.get(gid, 0) & 1 for gid in circuit.inputs}
    return bool(detecting_patterns(circuit, fault, packed, 1, compiled=False))
