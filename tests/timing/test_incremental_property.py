"""Property suite: the incremental timing engine tracks the full oracle.

Four layers of agreement over randomized inputs:

* **STA state** -- after every mutation in a randomized sequence of KMS
  transforms (constant-setting + propagation, sweeps, chain
  duplications, arrival-time changes), all made through ``Circuit``'s
  mutation primitives, a dirty-cone
  :class:`~repro.timing.sta.IncrementalSTA` refreshed from the gates
  those primitives recorded must hold exactly the arrival times,
  ``dist_to_po``, longest-path counts, delay, and longest-path *sets*
  that a from-scratch pass computes -- ``==`` on floats, no tolerance:
  both engines share the same per-gate arithmetic, so any difference is
  a dirty-cone bookkeeping bug.
* **the loop test** -- before and after every mutation,
  :meth:`IncrementalTiming.check_path`'s one question must equal the
  per-path reference: some longest path passes the from-scratch
  sensitization (static) / viability checker.  After each question the
  critical map the context keeps across questions must equal a
  from-scratch derivation, and a solver that just synced must hold
  exactly the circuit's gate signatures.  A long-lived SAT-only
  context (it never simulates patterns, so every question reaches its
  run-long :class:`~repro.sat.CircuitSolver`) must keep agreeing over
  mutation sequences of 30 and more steps, re-sourcings and retypes
  included, through the solver's rebuilds.
* **the loop's path** -- the longest-first search restricted to the
  critical connections yields the same first path as the unrestricted
  one.
* **KMS outputs** -- ``kms(..., incremental=True)`` and the per-path
  reference take the same steps (event sequences) and produce
  bit-identical final circuits (same content fingerprint) and
  SAT-equivalent networks on random redundant circuits, in both modes.

Every layer runs under three delay models: the as-built integer delays,
and two with non-integer delays -- a fanout-load model (0.1 per extra
fanout, not exact in binary) and a library table with fractional gate
and connection delays.  The plain numeric test ids are the as-built
model; the others carry a ``fanout-``/``library-`` prefix, and
viability-mode ids a further ``viability-`` prefix.

250 random circuits per model in batches (kept small so each test stays
well under CI's per-test timeout).
"""

import random

import pytest

from repro.circuits import random_circuit, random_redundant_circuit
from repro.core import kms
from repro.counters import Window
from repro.engine.hashing import circuit_fingerprint
from repro.network import GateType
from repro.network.transform import (
    duplicate_chain,
    propagate_constants,
    set_connection_constant,
    sweep,
)
from repro.sat import CircuitSolver, check_equivalence
from repro.timing import (
    AsBuiltDelayModel,
    FanoutDelayModel,
    IncrementalSTA,
    IncrementalTiming,
    LibraryDelayModel,
    SensitizationChecker,
    ViabilityChecker,
    analyze,
    critical_connections,
    iter_paths_longest_first,
    longest_paths,
)
from repro.timing.sensitize import edge_side_inputs
from repro.timing.viability import settled_before

#: (id prefix, model); the as-built model keeps the bare numeric ids.
MODELS = [
    ("", AsBuiltDelayModel()),
    ("fanout-", FanoutDelayModel(AsBuiltDelayModel(), load_per_fanout=0.1)),
    (
        "library-",
        LibraryDelayModel(
            {
                GateType.AND: 0.7,
                GateType.OR: 0.9,
                GateType.NAND: 0.3,
                GateType.NOR: 1.1,
                GateType.NOT: 0.2,
            },
            conn_default=0.1,
        ),
    ),
]

BATCHES = 10
CIRCUITS_PER_BATCH = 25


def _over_models(cases):
    """Parametrize a test over every delay model times ``cases``."""
    return pytest.mark.parametrize(
        "model,case",
        [
            pytest.param(model, case, id=f"{prefix}{case}")
            for prefix, model in MODELS
            for case in cases
        ],
    )


def _over_modes_and_models(cases):
    """Parametrize a test over both KMS modes, every delay model and
    ``cases``; static mode keeps the :func:`_over_models` ids."""
    return pytest.mark.parametrize(
        "mode,model,case",
        [
            pytest.param(mode, model, case, id=f"{tag}{prefix}{case}")
            for mode, tag in (("static", ""), ("viability", "viability-"))
            for prefix, model in MODELS
            for case in cases
        ],
    )


def _assert_matches_oracle(sta, circuit, model):
    """Exact agreement between maintained state and from-scratch passes."""
    fresh = IncrementalSTA(circuit, model)
    assert sta.arrival == fresh.arrival
    assert sta.dist_to_po == fresh.dist_to_po
    assert sta.delay == fresh.delay
    ann = analyze(circuit, model)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.delay == ann.delay
    mine = [
        (p.gates, p.conns, p.length)
        for p in iter_paths_longest_first(
            circuit, model, sta.annotation(), max_paths=25
        )
    ]
    oracle = [
        (p.gates, p.conns, p.length)
        for p in iter_paths_longest_first(circuit, model, ann, max_paths=25)
    ]
    assert mine == oracle


def _mutate_constant(circuit, model, rng):
    candidates = [
        cid
        for cid, conn in circuit.conns.items()
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


def _mutate_sweep(circuit, model, rng):
    sweep(circuit, collapse_buffers=True)
    return True


def _mutate_duplicate(circuit, model, rng):
    """The Fig. 3 duplication move: copy a path prefix up to a
    multi-fanout gate and re-source one of its fanout edges onto the
    duplicate (exactly what the KMS loop does per iteration)."""
    paths = list(iter_paths_longest_first(circuit, model, max_paths=8))
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


def _mutate_arrival(circuit, model, rng):
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


@_over_models(range(BATCHES))
def test_incremental_sta_tracks_full_recompute(model, case):
    rng = random.Random(1000 + case)
    for index in range(CIRCUITS_PER_BATCH):
        circuit = _random_subject(rng, index)
        sta = IncrementalSTA(circuit, model)
        _assert_matches_oracle(sta, circuit, model)
        for _step in range(rng.randint(2, 6)):
            mutate = rng.choice(MUTATIONS)
            if not mutate(circuit, model, rng):
                continue
            sta.refresh()
            _assert_matches_oracle(sta, circuit, model)


def _per_path_reference(circuit, model, mode):
    if mode == "viability":
        exact = ViabilityChecker(circuit, model).is_viable
    else:
        exact = SensitizationChecker(circuit).is_sensitizable
    return any(exact(path) for path in longest_paths(circuit, model))


def _critical_map_from_scratch(circuit, model, mode, ann):
    """Every critical connection with its side-input constraints,
    derived from the annotation alone."""
    edges = {}
    for cid in critical_connections(circuit, model, ann):
        tau = ann.arrival[circuit.conns[cid].src] + model.conn_delay(
            circuit, cid
        )
        edges[cid] = tuple(
            (circuit.conns[si.cid].src, si.value)
            for si in edge_side_inputs(circuit, cid)
            if mode != "viability"
            or settled_before(circuit, model, ann, si.cid, tau)
        )
    return edges


def _assert_kept_state(timing, circuit, model, mode, synced):
    """After a loop test, the kept critical map equals a from-scratch
    derivation, and a solver that synced for it holds exactly the
    circuit's gate signatures."""
    edges = _critical_map_from_scratch(
        circuit, model, mode, analyze(circuit, model)
    )
    assert timing.critical == edges
    into = {
        gid: tuple(cid for cid in gate.fanin if cid in edges)
        for gid, gate in circuit.gates.items()
    }
    assert timing._into == {gid: cids for gid, cids in into.items() if cids}
    if synced:
        held = {gid: d[0] for gid, d in timing._solver._defs.items()}
        assert held == {
            gid: (
                gate.gtype,
                tuple(circuit.conns[cid].src for cid in gate.fanin),
            )
            for gid, gate in circuit.gates.items()
        }


def _assert_loop_test_matches_reference(timing, circuit, model, mode):
    """The loop's answer, and the SAT solve's alone (a fresh context
    has simulated no patterns, so its reach pass cannot answer), both
    equal the per-path reference; the loop's context keeps its state."""
    timing.begin_iteration()
    if timing.annotation().delay <= 0:
        return  # the KMS loop exits before asking
    expected = _per_path_reference(circuit, model, mode)
    window = Window()
    assert timing.check_path() == expected
    synced = window.delta()["viability_checks_exact"] == 1
    _assert_kept_state(timing, circuit, model, mode, synced)
    sat_only = IncrementalTiming(circuit, model, mode=mode)
    window = Window()
    assert sat_only.check_path() == expected
    assert window.delta()["viability_checks_exact"] == 1


@_over_modes_and_models(range(BATCHES))
def test_check_path_matches_per_path_reference(mode, model, case):
    rng = random.Random(2000 + case)
    for index in range(CIRCUITS_PER_BATCH):
        circuit = _random_subject(rng, index)
        timing = IncrementalTiming(circuit, model, mode=mode)
        _assert_loop_test_matches_reference(timing, circuit, model, mode)
        for _step in range(rng.randint(2, 6)):
            mutate = rng.choice(MUTATIONS)
            if not mutate(circuit, model, rng):
                continue
            timing.refresh()
            _assert_loop_test_matches_reference(
                timing, circuit, model, mode
            )


def _mutate_resource(circuit, model, rng):
    """Re-source a random connection onto another gate outside its
    destination's fanout: the fanin list keeps its connection ids, only
    a source changes (as ``move_connection_source`` does in the KMS
    duplication and in buffer collapsing), and the function changes."""
    cids = list(circuit.conns)
    if not cids:
        return False
    cid = rng.choice(cids)
    conn = circuit.conns[cid]
    downstream = circuit.transitive_fanout([conn.dst])
    sources = [
        gid
        for gid, gate in circuit.gates.items()
        if gid not in downstream
        and gid != conn.src
        and gate.gtype is not GateType.OUTPUT
    ]
    if not sources:
        return False
    circuit.move_connection_source(cid, rng.choice(sources))
    return True


_RETYPES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR]


def _mutate_retype(circuit, model, rng):
    """Flip a multi-input gate between AND/OR/NAND/NOR in place."""
    gates = [
        gid
        for gid, gate in circuit.gates.items()
        if gate.gtype in _RETYPES and len(gate.fanin) > 1
    ]
    if not gates:
        return False
    gid = rng.choice(gates)
    circuit.set_gate_type(
        gid,
        rng.choice([t for t in _RETYPES if t is not circuit.gates[gid].gtype]),
    )
    return True


#: the long-sequence mix: mostly edits that keep a circuit alive
LONG_MUTATIONS = [
    _mutate_constant,
    _mutate_sweep,
    _mutate_duplicate,
    _mutate_duplicate,
    _mutate_arrival,
    _mutate_resource,
    _mutate_resource,
    _mutate_retype,
    _mutate_retype,
]

#: steps per long mutation sequence
LONG_STEPS = 32


def _long_subject(rng, index):
    if index % 2:
        return random_redundant_circuit(
            num_inputs=rng.randint(4, 7),
            num_gates=rng.randint(15, 30),
            seed=rng.randint(0, 10**6),
        )
    return random_circuit(
        num_inputs=rng.randint(4, 7),
        num_gates=rng.randint(20, 40),
        num_outputs=rng.randint(2, 4),
        seed=rng.randint(0, 10**6),
        max_arrival=rng.choice([0.0, 3.0]),
    )


@_over_modes_and_models(range(4))
def test_run_long_loop_solver_matches_per_path_reference(
    mode, model, case, monkeypatch
):
    """One SAT-only context per circuit answers every question of a
    32-step mutation sequence on its one run-long solver."""
    builds = []
    reset = CircuitSolver._reset

    def counting_reset(self):
        builds.append(self)
        reset(self)

    monkeypatch.setattr(CircuitSolver, "_reset", counting_reset)
    rng = random.Random(4000 + case)
    asked = 0
    for index in range(3):
        circuit = _long_subject(rng, index)
        timing = IncrementalTiming(circuit, model, mode=mode)
        for _step in range(LONG_STEPS):
            if timing.annotation().delay > 0:
                window = Window()
                assert timing.check_path() == _per_path_reference(
                    circuit, model, mode
                )
                assert window.delta()["viability_checks_exact"] == 1
                _assert_kept_state(timing, circuit, model, mode, True)
                asked += 1
            if rng.choice(LONG_MUTATIONS)(circuit, model, rng):
                timing.refresh()
    assert asked >= 2 * LONG_STEPS
    # the solvers outlived their first encoding at least once
    assert len(builds) > len(set(map(id, builds)))


@_over_models(range(BATCHES))
def test_first_path_within_critical_connections_matches_unrestricted(
    model, case
):
    """The KMS loop takes its path from the search restricted to the
    critical map; it must be the unrestricted search's first path."""
    rng = random.Random(5000 + case)
    for index in range(CIRCUITS_PER_BATCH):
        circuit = _random_subject(rng, index)
        for _step in range(rng.randint(1, 4)):
            ann = analyze(circuit, model)
            first = next(iter_paths_longest_first(circuit, model, ann), None)
            within = set(critical_connections(circuit, model, ann))
            assert first == next(
                iter_paths_longest_first(circuit, model, ann, within=within),
                None,
            )
            rng.choice(MUTATIONS)(circuit, model, rng)


def _steps(result):
    return [
        (e.path, e.constant_value, e.duplicated_gates, e.gates_after)
        for e in result.events
    ]


@_over_modes_and_models(range(12))
def test_kms_incremental_bit_identical_random(mode, model, case):
    circuit = random_redundant_circuit(
        num_inputs=5, num_gates=15, seed=case
    )
    inc = kms(circuit, mode=mode, model=model, incremental=True)
    full = kms(circuit, mode=mode, model=model, incremental=False)
    assert _steps(inc) == _steps(full)
    assert circuit_fingerprint(inc.circuit) == circuit_fingerprint(
        full.circuit
    )
    assert check_equivalence(inc.circuit, full.circuit).equivalent
    assert check_equivalence(circuit, inc.circuit).equivalent
