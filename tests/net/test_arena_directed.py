"""Directed arena tests: GC, order maintenance, versioning, routing.

The property suite (test_arena_property) covers "everything agrees";
these tests pin the mechanisms themselves: free-list slot reuse,
compaction under live iteration, Pearce-Kelly order repair, the
``Circuit.version`` invalidation edge cases the proof engine depends
on, plain-list storage checked against the numpy reference simulator,
and the env-level legacy switch.
"""

import random

import pytest

from repro.atpg import collapsed_faults
from repro.circuits import random_circuit
from repro.circuits.adders import carry_skip_adder
from repro.core import kms
from repro.counters import Window
from repro.net import (
    LEGACY_ENV,
    attach_arena,
    detach_arena,
    get_arena,
    net_enabled,
)
from repro.net import arena as arena_mod
from repro.network import Circuit, GateType
from repro.network.circuit import CircuitError
from repro.sim import get_compiled
from repro.sim.kernel import ArenaCompiledCircuit, CompiledCircuit
from repro.sim import kernel as kernel_mod

from ..sim import numpy_reference


def _chain_circuit(n=4):
    c = Circuit("chain")
    a = c.add_input("a")
    b = c.add_input("b")
    g = c.add_simple(GateType.AND, [a, b], 1.0)
    for _ in range(n):
        g = c.add_simple(GateType.NOT, [g], 1.0)
    c.add_output("y", g)
    return c


# ---------------------------------------------------------------------- #
# opcode table alignment (the arena mirrors sim.kernel's encoding)
# ---------------------------------------------------------------------- #

def test_sim_opcode_table_matches_kernel():
    for gtype, op in arena_mod.SIM_OPCODE.items():
        assert op == kernel_mod.OPCODE[gtype], gtype


# ---------------------------------------------------------------------- #
# free list + compaction
# ---------------------------------------------------------------------- #

def test_free_list_reuses_slots():
    c = _chain_circuit()
    arena = attach_arena(c)
    slots_before = len(arena.alive)
    # remove a middle NOT gate and bridge the gap
    mid = [g for g, gate in c.gates.items() if gate.gtype is GateType.NOT][1]
    src = c.fanin_gates(mid)[0]
    dst = c.fanout_gates(mid)[0]
    c.remove_gate(mid)
    freed = list(arena.free_slots)
    assert len(freed) == 1
    c.connect(src, dst, 0.0)
    # a new gate must take the freed slot, not grow the arrays
    new = c.add_simple(GateType.NOT, [src], 1.0)
    assert arena.slot_of[new] == freed[0]
    assert len(arena.alive) == slots_before
    arena.check()


def test_conn_free_list_reuses_slots():
    c = _chain_circuit()
    arena = attach_arena(c)
    cid = next(iter(c.conns))
    conn = c.conns[cid]
    src, dst, delay = conn.src, conn.dst, conn.delay
    cslots_before = len(arena.calive)
    c.remove_connection(cid)
    freed = list(arena.free_cslots)
    new_cid = c.connect(src, dst, delay)
    assert arena.cslot_of[new_cid] == freed[-1]
    assert len(arena.calive) == cslots_before
    arena.check()


def test_compaction_fires_and_preserves_state(monkeypatch):
    """Drive dead slots past the threshold; the arena must collect,
    renumber in topological order, and keep answering identically."""
    monkeypatch.setattr(arena_mod, "COMPACT_MIN_DEAD", 8)
    c = random_circuit(
        num_inputs=4, num_gates=40, num_outputs=2, seed=11
    )
    arena = attach_arena(c)
    window = Window()
    fp_before_each_step = []
    removable = [
        gid
        for gid, gate in sorted(c.gates.items())
        if gate.gtype
        not in (GateType.INPUT, GateType.OUTPUT)
    ]
    compactions = 0
    for gid in removable:
        if gid not in c.gates:
            continue
        # only remove gates whose fanout is empty after sweeping deps:
        # simplest safe move is removing sinks-of-nothing repeatedly
        if c.gates[gid].fanout:
            continue
        c.remove_gate(gid)
        compactions = window.delta()["arena_compactions"]
        arena.check()
        fp_before_each_step.append(arena.fingerprint())
    # force the rest dead via sweep until the threshold trips
    from repro.network.transform import sweep

    sweep(c)
    arena.check()
    assert window.delta()["arena_compactions"] >= compactions
    # after an explicit compact the arrays are dense and rank = identity
    arena.compact()
    assert not arena.free_slots
    assert not arena.free_cslots
    assert len(arena.alive) == arena.n_live_gates
    assert [arena.rank[s] for s in arena.sched_order] == list(
        range(arena.n_live_gates)
    )
    arena.check()


def test_compaction_under_live_iteration():
    """Mutating and compacting mid-run must not disturb fingerprints,
    cones, or the simulation view."""
    c = carry_skip_adder(8, 2)
    arena = attach_arena(c)
    from repro.engine.hashing import circuit_fingerprint

    kern = get_compiled(c)
    packed = {gid: 0 for gid in c.inputs}
    before_words = kern.evaluate(packed, 8)
    arena.compact()
    arena.check()
    # same kernel object keeps working (slots renumbered underneath)
    after_words = kern.evaluate(packed, 8)
    assert before_words == after_words
    assert circuit_fingerprint(c) == arena.fingerprint()


# ---------------------------------------------------------------------- #
# Pearce-Kelly order repair
# ---------------------------------------------------------------------- #

def test_pk_repairs_rank_on_backward_edge():
    c = Circuit("pk")
    a = c.add_input("a")
    arena = attach_arena(c)
    g1 = c.add_simple(GateType.NOT, [a], 1.0)
    g2 = c.add_simple(GateType.NOT, [a], 1.0)
    # g2's hook appended it after g1 so rank[g2] > rank[g1]; feeding
    # g2 -> g1 forces a Pearce-Kelly window reorder
    assert arena.rank[arena.slot_of[g2]] > arena.rank[arena.slot_of[g1]]
    c.connect(g2, g1)
    assert arena.rank[arena.slot_of[g2]] < arena.rank[arena.slot_of[g1]]
    assert arena.pk_reorders == 1
    arena.check()


def test_pk_rejects_cycle():
    c = Circuit("cycle")
    a = c.add_input("a")
    g1 = c.add_simple(GateType.BUF, [a], 1.0)
    g2 = c.add_simple(GateType.BUF, [g1], 1.0)
    attach_arena(c)
    with pytest.raises(CircuitError):
        c.connect(g2, g1)


def test_maintained_order_stays_topological_under_random_growth():
    rng = random.Random(5)
    c = random_circuit(num_inputs=4, num_gates=30, num_outputs=2, seed=5)
    arena = attach_arena(c)
    logic = [
        gid
        for gid, gate in sorted(c.gates.items())
        if gate.gtype not in (GateType.INPUT, GateType.OUTPUT)
    ]
    for _ in range(30):
        src, dst = rng.choice(logic), rng.choice(logic)
        if src == dst or dst in c.transitive_fanin([src]):
            continue
        c.connect(src, dst, 0.0)
        arena.check()  # raises if any edge violates the maintained order


# ---------------------------------------------------------------------- #
# Circuit.version invalidation edge cases
# ---------------------------------------------------------------------- #

def test_setters_do_not_bump_version_but_update_arena():
    """The delay and arrival setters mirror plain attribute writes: no
    version bump (neither the kernel nor the epoch CNF reads delays),
    yet the arena arrays and fingerprints move."""
    c = _chain_circuit()
    arena = attach_arena(c)
    fp0 = arena.fingerprint()
    v0 = c.version
    av0 = arena.version
    gid = next(
        g for g, gate in c.gates.items() if gate.gtype is GateType.AND
    )
    c.set_gate_delay(gid, 9.0)
    assert c.version == v0, "setter must not bump Circuit.version"
    assert arena.version > av0, "arena must see the edit"
    assert arena.gdelay[arena.slot_of[gid]] == 9.0
    assert arena.fingerprint() != fp0
    c.set_connection_delay(c.gates[gid].fanin[0], 2.5)
    c.set_input_arrival(c.inputs[0], 4.0)
    assert c.version == v0
    arena.check()


def test_structural_primitives_bump_version_with_arena_attached():
    c = _chain_circuit()
    attach_arena(c)
    v0 = c.version
    g = c.add_simple(GateType.NOT, [c.inputs[0]], 1.0)
    assert c.version > v0
    v1 = c.version
    c.remove_gate(g)
    assert c.version > v1


def test_stale_kernel_replaced_when_arena_attaches():
    c = _chain_circuit()
    legacy = get_compiled(c)
    assert isinstance(legacy, CompiledCircuit)
    attach_arena(c)
    view = get_compiled(c)
    assert isinstance(view, ArenaCompiledCircuit)
    detach_arena(c)
    back = get_compiled(c)
    assert isinstance(back, CompiledCircuit)


def test_arena_view_counts_avoided_rebuilds():
    c = _chain_circuit()
    attach_arena(c)
    kern = get_compiled(c)
    window = Window()

    def avoided():
        return window.delta()["compile_rebuilds_avoided"]

    packed = {gid: 1 for gid in c.inputs}
    kern.evaluate(packed, 4)  # fresh: nothing avoided
    assert avoided() == 0
    c.add_simple(GateType.NOT, [c.inputs[0]], 1.0)
    kern.evaluate(packed, 4)  # stale circuit: one rebuild avoided
    assert avoided() == 1
    c.add_simple(GateType.NOT, [c.inputs[1]], 1.0)
    assert get_compiled(c) is kern  # stale again: one more avoided
    assert avoided() == 2
    assert get_compiled(c) is kern  # unchanged circuit: nothing avoided
    assert avoided() == 2


# ---------------------------------------------------------------------- #
# array storage and the legacy switch
# ---------------------------------------------------------------------- #

#: the arena's scalar arrays, plain Python lists
SCALAR_ARRAYS = (
    "gt", "evalop", "gdelay", "arrival", "rank",
    "csrc", "cdst", "cdelay", "cpin",
)


@pytest.mark.skipif(numpy_reference.np is None, reason="numpy not installed")
def test_backend_parity_python_vs_numpy():
    # the arena-backed kernel, Python ints over the arena's lists,
    # against an evaluation over unpacked numpy lanes that shares no
    # truth tables with it
    c = carry_skip_adder(8, 2)
    attach_arena(c)
    kern = get_compiled(c)
    assert isinstance(kern, ArenaCompiledCircuit)
    rng = random.Random(8)
    faults = collapsed_faults(c)
    for width in (1, 64, 200):
        packed = {g: rng.getrandbits(width) for g in c.inputs}
        good = numpy_reference.simulate_packed(c, packed, width)
        assert kern.evaluate(packed, width) == good
        good_words = kern.evaluate_words(packed, width)
        for fault in rng.sample(faults, 8):
            assert kern.detecting_word(
                fault, good_words, width
            ) == numpy_reference.detecting_patterns(
                c, fault, packed, width, good_values=good
            )


def test_backend_env_selection(monkeypatch):
    # REPRO_NET_BACKEND is no longer read: a value left in the
    # environment, even an unknown one, neither fails nor changes what
    # the arena builds
    monkeypatch.delenv("REPRO_NET_BACKEND", raising=False)
    expected = attach_arena(_chain_circuit()).fingerprint()
    for value in ("python", "numpy", "bogus"):
        monkeypatch.setenv("REPRO_NET_BACKEND", value)
        arena = attach_arena(_chain_circuit())
        for name in SCALAR_ARRAYS:
            assert type(getattr(arena, name)) is list, name
        assert arena.fingerprint() == expected


def test_net_enabled_env_switch(monkeypatch):
    monkeypatch.delenv(LEGACY_ENV, raising=False)
    assert net_enabled()
    monkeypatch.setenv(LEGACY_ENV, "0")
    assert net_enabled()
    monkeypatch.setenv(LEGACY_ENV, "1")
    assert not net_enabled()


def test_kms_attaches_arena_only_when_enabled(monkeypatch):
    c = carry_skip_adder(4, 2)
    from repro.network.transform import decompose_complex_gates

    decompose_complex_gates(c)
    monkeypatch.setenv(LEGACY_ENV, "1")
    legacy = kms(c)
    assert legacy.counters["array_ops_inplace"] == 0
    monkeypatch.delenv(LEGACY_ENV, raising=False)
    backed = kms(c)
    assert backed.counters["array_ops_inplace"] > 0
    assert backed.counters["arena_full_builds"] >= 1
    assert get_arena(backed.circuit) is not None


def test_attach_is_idempotent_and_copy_starts_clean():
    c = _chain_circuit()
    arena = attach_arena(c)
    assert attach_arena(c) is arena
    twin = c.copy()
    assert get_arena(twin) is None


# ---------------------------------------------------------------------- #
# interface mutations (PI/PO index shifts force a full re-hash)
# ---------------------------------------------------------------------- #

def test_pi_removal_shifts_indexes_and_rehashes():
    from repro.engine.hashing import circuit_fingerprint

    c = Circuit("pi-shift")
    a = c.add_input("a")
    b = c.add_input("b")
    g = c.add_simple(GateType.OR, [a, b], 1.0)
    c.add_output("y", g)
    dangling = c.add_input("z")
    arena = attach_arena(c)
    arena.fingerprint()
    c.remove_gate(dangling)  # PI list shrinks; indexes shift
    arena.check()
    assert arena.fingerprint() == circuit_fingerprint(c.copy())


def test_output_marker_removal_rehashes():
    from repro.engine.hashing import circuit_fingerprint

    c = Circuit("po-shift")
    a = c.add_input("a")
    g = c.add_simple(GateType.NOT, [a], 1.0)
    c.add_output("y0", g)
    po1 = c.add_output("y1", g)
    arena = attach_arena(c)
    arena.fingerprint()
    c.remove_gate(po1)
    arena.check()
    assert arena.fingerprint() == circuit_fingerprint(c.copy())
