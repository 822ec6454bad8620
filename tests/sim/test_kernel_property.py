"""Property suite: the compiled kernel is bit-identical to the
reference simulators.

The acceptance bar from the sim-kernel issue: >=200 random circuits x
random pattern blocks x random fault sites, asserting
``CompiledCircuit`` equals ``simulate_packed`` /
``simulate_fault_packed``, including ``overrides`` injection and width
edge cases (w=1, w=64, w>64, w not a multiple of 64).

Each case runs against two references.  ``python`` is the interpreted
simulators, which share ``repro.sim.opcodes`` with the kernel; ``numpy``
is :mod:`tests.sim.numpy_reference`, which evaluates unpacked bool
lanes and shares no code with it.  The ``numpy`` cases are collected
only when numpy is installed.

Plain parametrization over seeds rather than hypothesis: each seed is
one random circuit, and the per-seed rng draws the width, the pattern
block, the override set, and the fault sample, so the 200 cases cover
the full cross product deterministically.
"""

import functools
import random
import types

import pytest

from repro.atpg import collapsed_faults, detecting_patterns
from repro.atpg.faultsim import simulate_fault_packed
from repro.circuits import random_circuit
from repro.sim import CompiledCircuit, simulate_packed

from . import numpy_reference

#: the issue's width edge cases plus interior points; the per-seed rng
#: samples from these so every width class appears many times over the
#: 200 circuits
WIDTHS = [1, 3, 37, 63, 64, 65, 100, 128, 200, 4096]

REFERENCES = {
    "python": types.SimpleNamespace(
        simulate_packed=simulate_packed,
        simulate_fault_packed=simulate_fault_packed,
        detecting_patterns=functools.partial(detecting_patterns, compiled=False),
    ),
}
if numpy_reference.np is not None:
    REFERENCES["numpy"] = numpy_reference

N_CIRCUITS = 200


def _case(seed):
    rng = random.Random(seed * 7919 + 13)
    circuit = random_circuit(
        num_inputs=rng.randint(3, 6),
        num_gates=rng.randint(6, 16),
        seed=seed,
    )
    width = WIDTHS[rng.randrange(len(WIDTHS))]
    packed = {g: rng.getrandbits(width) for g in circuit.inputs}
    return rng, circuit, width, packed


@pytest.mark.parametrize("reference", list(REFERENCES))
@pytest.mark.parametrize("seed", range(N_CIRCUITS))
def test_kernel_bit_identical(seed, reference):
    ref = REFERENCES[reference]
    rng, circuit, width, packed = _case(seed)
    kern = CompiledCircuit(circuit)

    # good simulation
    expected = ref.simulate_packed(circuit, packed, width)
    assert kern.evaluate(packed, width) == expected

    # overrides injection at random sites (possibly including PIs)
    gids = list(circuit.gates)
    over = {
        gids[rng.randrange(len(gids))]: rng.getrandbits(width)
        for _ in range(rng.randint(1, 3))
    }
    assert kern.evaluate(
        packed, width, overrides=over
    ) == ref.simulate_packed(circuit, packed, width, overrides=over)

    # event-driven fault simulation at random fault sites
    faults = collapsed_faults(circuit)
    rng.shuffle(faults)
    good_words = kern.evaluate_words(packed, width)
    for fault in faults[:5]:
        assert kern.simulate_fault(
            fault, packed, width, good_words=good_words
        ) == ref.simulate_fault_packed(circuit, fault, packed, width)
        assert kern.detecting_word(
            fault, good_words, width
        ) == ref.detecting_patterns(
            circuit, fault, packed, width, good_values=expected,
        )
