"""Property suite: the arena mirrors the object graph bit-for-bit.

Randomized circuits put through randomized KMS-shaped mutation
sequences (constant-setting + propagation, sweeps, chain duplication,
arrival edits), with an arena attached to one copy and nothing attached
to the other.  After every mutation step the two worlds must agree on:

* **structure** -- :meth:`NetArena.check` (slot arrays vs gate/conn
  dicts, pin order, maintained topological order);
* **fingerprints** -- the arena's incrementally re-hashed digests equal
  the verbatim object-graph Merkle walk, per gate and whole-circuit;
* **touched-gate records** -- the circuits' mutation primitives record
  identical gates with and without the arena attached (the hooks must
  not perturb the transforms);
* **STA state** -- an :class:`IncrementalSTA` over the arena-attached
  circuit holds exactly the from-scratch timing state;
* **simulation** -- the zero-copy :class:`ArenaCompiledCircuit` view
  returns the same packed words (and good-eval counts) as the legacy
  compiled schedule and the interpreted simulator;
* **KMS step sequences** -- full ``kms`` runs take identical decisions
  arena-backed vs under ``REPRO_NET_LEGACY=1``.

~200 random circuits across the batches, mirroring
``tests/timing/test_incremental_property.py``.
"""

import random

import pytest

from repro.circuits import random_circuit, random_redundant_circuit
from repro.core import kms
from repro.engine.hashing import (
    SCHEME,
    _digest,
    gate_fingerprint,
)
from repro.net import attach_arena
from repro.network import GateType
from repro.network.transform import (
    duplicate_chain,
    propagate_constants,
    set_connection_constant,
    sweep,
)
from repro.sim import get_compiled, random_packed_inputs, simulate_packed
from repro.sim.kernel import ArenaCompiledCircuit, CompiledCircuit
from repro.timing import (
    AsBuiltDelayModel,
    IncrementalSTA,
    analyze,
    iter_paths_longest_first,
)

MODEL = AsBuiltDelayModel()

BATCHES = 8
CIRCUITS_PER_BATCH = 25


# ---------------------------------------------------------------------- #
# oracles (verbatim object-graph walks, bypassing any arena routing)
# ---------------------------------------------------------------------- #

def _walk_fps(circuit):
    """The legacy Merkle walk of ``engine.hashing.gate_fingerprints``,
    inlined so it never routes through an attached arena."""
    pi_index = {gid: i for i, gid in enumerate(circuit.inputs)}
    po_index = {gid: i for i, gid in enumerate(circuit.outputs)}
    fps = {}
    for gid in circuit.topological_order():
        fps[gid] = gate_fingerprint(circuit, gid, fps, pi_index, po_index)
    return fps


def _walk_circuit_fp(circuit):
    fps = _walk_fps(circuit)
    body = (
        SCHEME,
        len(circuit.gates),
        len(circuit.conns),
        tuple(fps[gid] for gid in circuit.outputs),
        tuple(sorted(fps.values())),
    )
    return _digest(body)


def _assert_arena_matches(circuit, arena):
    arena.check()
    assert arena.gate_fps() == _walk_fps(circuit)
    assert arena.fingerprint() == _walk_circuit_fp(circuit)


def _assert_sta_matches(sta, circuit):
    fresh = IncrementalSTA(circuit, MODEL)
    assert sta.arrival == fresh.arrival
    assert sta.dist_to_po == fresh.dist_to_po
    assert sta.delay == fresh.delay
    ann = analyze(circuit, MODEL)
    assert sta.delay == ann.delay


# ---------------------------------------------------------------------- #
# mutations (the KMS loop's moves)
# ---------------------------------------------------------------------- #

def _mutate_constant(circuit, rng):
    candidates = [
        cid
        for cid, conn in sorted(circuit.conns.items())
        if circuit.gates[conn.dst].gtype is not GateType.OUTPUT
        and circuit.gates[conn.src].gtype
        not in (GateType.CONST0, GateType.CONST1)
    ]
    if not candidates:
        return False
    set_connection_constant(
        circuit, rng.choice(candidates), rng.randint(0, 1)
    )
    propagate_constants(circuit)
    return True


def _mutate_sweep(circuit, rng):
    sweep(circuit, collapse_buffers=True)
    return True


def _mutate_duplicate(circuit, rng):
    paths = list(iter_paths_longest_first(circuit, MODEL, max_paths=8))
    if not paths:
        return False
    path = rng.choice(paths)
    branch_points = [
        j
        for j, gid in enumerate(path.gates)
        if len(circuit.gates[gid].fanout) > 1
    ]
    if not branch_points:
        return False
    j = rng.choice(branch_points)
    chain = list(path.gates[: j + 1])
    chain_conns = list(path.conns[: j + 1])
    edge = path.conns[j + 1]
    mapping, _dup_conns = duplicate_chain(circuit, chain, chain_conns)
    circuit.move_connection_source(edge, mapping[chain[-1]])
    return True


def _mutate_arrival(circuit, rng):
    if not circuit.inputs:
        return False
    pi = rng.choice(circuit.inputs)
    circuit.set_input_arrival(pi, float(rng.randint(0, 5)))
    return True


MUTATIONS = [
    _mutate_constant,
    _mutate_sweep,
    _mutate_duplicate,
    _mutate_arrival,
]


def _random_subject(rng, index):
    if index % 2:
        return random_redundant_circuit(
            num_inputs=rng.randint(3, 6),
            num_gates=rng.randint(8, 18),
            seed=rng.randint(0, 10**6),
        )
    return random_circuit(
        num_inputs=rng.randint(3, 6),
        num_gates=rng.randint(10, 25),
        num_outputs=rng.randint(1, 3),
        seed=rng.randint(0, 10**6),
        max_arrival=rng.choice([0.0, 3.0]),
    )


# ---------------------------------------------------------------------- #
# the properties
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("batch", range(BATCHES))
def test_arena_mirrors_object_graph_under_mutation(batch):
    """Structure + fingerprints + touched-gate records, arena vs bare
    twin."""
    rng = random.Random(7000 + batch)
    for index in range(CIRCUITS_PER_BATCH):
        base = _random_subject(rng, index)
        seed = rng.randint(0, 10**9)
        steps = rng.randint(2, 6)
        plan = [rng.randrange(len(MUTATIONS)) for _ in range(steps)]

        with_arena = base.copy()
        bare = base.copy()
        arena = attach_arena(with_arena)
        _assert_arena_matches(with_arena, arena)
        record_a = with_arena.record_touched()
        record_b = bare.record_touched()

        rng_a = random.Random(seed)
        rng_b = random.Random(seed)
        for which in plan:
            MUTATIONS[which](with_arena, rng_a)
            MUTATIONS[which](bare, rng_b)
            assert record_a == record_b, "touched-gate records diverged"
            record_a.clear()
            record_b.clear()
            _assert_arena_matches(with_arena, arena)
        # the twins themselves must still be structurally identical
        assert _walk_circuit_fp(with_arena) == _walk_circuit_fp(bare)


@pytest.mark.parametrize("batch", range(4))
def test_arena_sta_and_simulation_parity(batch):
    """STA state and packed-simulation words on arena-attached circuits."""
    rng = random.Random(8100 + batch)
    for index in range(12):
        circuit = _random_subject(rng, index)
        arena = attach_arena(circuit)
        sta = IncrementalSTA(circuit, MODEL)
        _assert_sta_matches(sta, circuit)
        for _step in range(rng.randint(2, 5)):
            mutate = MUTATIONS[rng.randrange(len(MUTATIONS))]
            if not mutate(circuit, rng):
                continue
            sta.refresh()
            _assert_sta_matches(sta, circuit)
            # simulation: zero-copy view vs legacy schedule vs interpreter
            kern = get_compiled(circuit)
            assert isinstance(kern, ArenaCompiledCircuit)
            packed = random_packed_inputs(
                circuit, 64, random.Random(42 + _step)
            )
            got = kern.evaluate(packed, 64)
            legacy = CompiledCircuit(circuit)
            want = legacy.evaluate(packed, 64)
            assert got == want
            assert got == simulate_packed(circuit, packed, 64)
        arena.check()


@pytest.mark.parametrize("seed", range(10))
def test_kms_arena_bit_identical_to_legacy_oracle(seed, monkeypatch):
    """Full KMS runs: arena-backed vs REPRO_NET_LEGACY=1 object graph."""
    circuit = random_redundant_circuit(num_inputs=5, num_gates=15, seed=seed)
    monkeypatch.delenv("REPRO_NET_LEGACY", raising=False)
    arena_run = kms(circuit, model=MODEL)
    monkeypatch.setenv("REPRO_NET_LEGACY", "1")
    legacy_run = kms(circuit, model=MODEL)
    assert [
        (e.path, e.constant_value, e.duplicated_gates, e.gates_after)
        for e in arena_run.events
    ] == [
        (e.path, e.constant_value, e.duplicated_gates, e.gates_after)
        for e in legacy_run.events
    ]
    assert arena_run.cleanup_steps == legacy_run.cleanup_steps
    assert _walk_circuit_fp(arena_run.circuit) == _walk_circuit_fp(
        legacy_run.circuit
    )
    for key in (
        "paths_enumerated",
        "viability_checks_exact",
        "arrival_relaxations",
        "dist_relaxations",
    ):
        assert arena_run.counters[key] == legacy_run.counters[key], key
