"""Property suite: fanout-free-region grading equals per-fault cones.

``detecting_words`` grades a whole fault list from one propagation per
fanout-free region.  For every fault it must return exactly the mask of
``detecting_word`` (one event-driven cone per fault) and of the
interpreted ``detecting_patterns(compiled=False)`` (one full faulty
simulation per fault).  The fault list is ``all_faults``, uncollapsed,
so region members that are not stems and connection faults into OUTPUT
markers are graded too.  Where numpy is installed the masks must also
equal :mod:`tests.sim.numpy_reference`, which shares no code with the
kernels.

Each seed is one random circuit extended with the structures the region
rules single out: XOR/XNOR (whose pin difference is all ones), BUF, a
repeated source pin (``AND(a, a)``), a connection tied to a constant
without propagation, a PI wired straight to a PO and a gate feeding two
OUTPUT markers.  Every case runs on both kernels, with and without an
attached arena, at every width of ``WIDTHS``.
"""

import random

import pytest

from repro.atpg import all_faults, detecting_patterns
from repro.circuits import random_circuit
from repro.net.arena import attach_arena, detach_arena
from repro.network import GateType
from repro.network.transform import set_connection_constant
from repro.sim import get_compiled, simulate_packed

from . import numpy_reference

WIDTHS = [1, 2, 63, 64, 65, 200, 4096]

N_CIRCUITS = 200


def _python_masks(circuit, faults, packed, width):
    good = simulate_packed(circuit, packed, width)
    return [
        detecting_patterns(circuit, f, packed, width, good, compiled=False)
        for f in faults
    ]


def _numpy_masks(circuit, faults, packed, width):
    good = numpy_reference.simulate_packed(circuit, packed, width)
    return [
        numpy_reference.detecting_patterns(circuit, f, packed, width, good)
        for f in faults
    ]


REFERENCES = {"python": _python_masks}
if numpy_reference.np is not None:
    REFERENCES["numpy"] = _numpy_masks


def _circuit(seed):
    """A random circuit with every structure the region rules treat
    specially, placed at random."""
    rng = random.Random(seed * 4099 + 7)
    c = random_circuit(
        num_inputs=rng.randint(2, 5),
        num_gates=rng.randint(4, 12),
        num_outputs=rng.randint(1, 3),
        seed=seed,
    )
    signals = [
        g for g, gate in c.gates.items() if gate.gtype is not GateType.OUTPUT
    ]

    def add(gtype, fanin):
        signals.append(c.add_simple(gtype, fanin))
        return signals[-1]

    xor = add(
        rng.choice([GateType.XOR, GateType.XNOR]),
        rng.sample(signals, rng.randint(2, 3)),
    )
    buf = add(GateType.BUF, [rng.choice(signals)])
    a = rng.choice(signals)
    twice = add(
        rng.choice([GateType.AND, GateType.NAND, GateType.OR, GateType.NOR]),
        [a, a] + rng.sample(signals, rng.randint(0, 1)),
    )
    top = add(
        rng.choice([GateType.AND, GateType.OR, GateType.XOR]),
        [xor, buf, twice],
    )
    c.add_output("po_a", top)
    c.add_output("po_b", top)
    c.add_output("po_pi", rng.choice(c.inputs))
    tied = rng.choice(sorted(c.conns))
    set_connection_constant(c, tied, rng.randint(0, 1))
    return rng, c


@pytest.mark.parametrize("reference", list(REFERENCES))
@pytest.mark.parametrize("seed", range(N_CIRCUITS))
def test_detecting_words_equal_per_fault_masks(seed, reference):
    rng, circuit = _circuit(seed)
    faults = all_faults(circuit)
    for width in WIDTHS:
        packed = {g: rng.getrandbits(width) for g in circuit.inputs}
        expected = REFERENCES[reference](circuit, faults, packed, width)
        for arena in (False, True):
            if arena:
                attach_arena(circuit)
            kern = get_compiled(circuit)
            good_words = kern.evaluate_words(packed, width)
            per_fault = [
                kern.detecting_word(f, good_words, width) for f in faults
            ]
            batch = kern.detecting_words(faults, good_words, width)
            if arena:
                detach_arena(circuit)
            assert per_fault == expected, (width, arena)
            assert batch == expected, (width, arena)


def test_detecting_words_of_no_faults_is_empty():
    _, circuit = _circuit(0)
    kern = get_compiled(circuit)
    good_words = kern.evaluate_words({}, 8)
    assert kern.detecting_words([], good_words, 8) == []
