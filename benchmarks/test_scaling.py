"""Runtime scaling of the full KMS pipeline with circuit size.

Not a table in the paper (1990 runtimes are not comparable anyway) but
standard reproduction hygiene: the algorithm's cost is dominated by the
number of non-sensitizable longest paths (Section 6.2's remark), which
grows with the number of carry-skip blocks.
"""

import pytest

from conftest import once
from repro.circuits import carry_skip_adder
from repro.core import kms
from repro.counters import Window
from repro.timing import UnitDelayModel

MODEL = UnitDelayModel(use_arrival_times=False)


@pytest.mark.parametrize("nbits,block", [(2, 2), (4, 2), (8, 4), (8, 2)])
def test_kms_scaling(benchmark, nbits, block):
    circuit = carry_skip_adder(nbits, block)

    def run():
        return kms(circuit, model=MODEL)

    result = once(benchmark, run)
    print()
    print(
        f"csa {nbits}.{block}: {circuit.num_gates()} gates, "
        f"{result.iterations} iterations, "
        f"{result.duplicated_gates} duplicated"
    )
    assert result.circuit.num_gates() > 0


@pytest.mark.parametrize("nbits,block", [(1024, 4)])
def test_sta_scaling_xlarge(benchmark, nbits, block):
    """The ~100x tier (roughly 10k gates vs the 114-gate csa 8.x rows).

    Full KMS is PODEM-cleanup-bound out here, so this tier exercises the
    incremental STA alone: analysis build plus a KMS-shaped mutation
    replay (constant-setting + dirty refresh), checked ``==`` against a
    from-scratch :func:`~repro.timing.analyze` of the mutated circuit.
    """
    from repro.network.transform import set_connection_constant
    from repro.timing import IncrementalSTA, analyze

    circuit = carry_skip_adder(nbits, block)

    def run():
        work = circuit.copy()
        window = Window()
        sta = IncrementalSTA(work, MODEL)
        # KMS-shaped replay: tie a skip-AND input to constant 0 per
        # sampled block (the Fig. 3 move that makes csa ripple again)
        for gid in list(work.gates)[:: max(1, len(work.gates) // 8)]:
            gate = work.gates.get(gid)
            if gate is None or not gate.fanin or gate.gtype.name != "AND":
                continue
            set_connection_constant(work, gate.fanin[0], 0)
            sta.refresh()
        return work, sta, window.delta()

    work, sta, relaxed = once(benchmark, run)
    assert sta.delay > 0.0
    fresh = analyze(work, MODEL)
    assert sta.arrival == fresh.arrival
    assert sta.dist_to_po == fresh.dist_to_po
    assert sta.delay == fresh.delay
    print()
    print(
        f"csa {nbits}.{block}: {circuit.num_gates()} gates, "
        f"relaxations {relaxed['arrival_relaxations']} arrival + "
        f"{relaxed['dist_relaxations']} dist"
    )


@pytest.mark.parametrize("nbits,block", [(4, 2), (8, 2)])
def test_atpg_scaling(benchmark, nbits, block):
    """Redundancy identification cost (the paper's 'slow ATPG' concern
    from the repro notes): SAT-based identification on csa adders."""
    from repro.atpg import count_redundancies

    circuit = carry_skip_adder(nbits, block)

    def run():
        return count_redundancies(circuit)

    red = once(benchmark, run)
    assert red == nbits  # 2 per 2-bit block
