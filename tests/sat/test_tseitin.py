"""Tseitin encoding: CNF models = circuit evaluations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.network import Builder, GateType
from repro.network.transform import set_connection_constant
from repro.sat import CircuitSolver, Solver, encode_circuit


@given(seed=st.integers(0, 60), bits=st.integers(0, 31))
@settings(max_examples=60, deadline=None)
def test_encoding_agrees_with_simulation(seed, bits):
    """Forcing PI literals makes every gate variable equal its simulated
    value."""
    circuit = random_circuit(num_inputs=5, num_gates=14, seed=seed)
    enc = encode_circuit(circuit)
    assign = {
        gid: (bits >> i) & 1 for i, gid in enumerate(circuit.inputs)
    }
    assumptions = [enc.lit(gid, v) for gid, v in assign.items()]
    solver = Solver(enc.cnf)
    assert solver.solve(assumptions) is True
    model = solver.model()
    simulated = circuit.evaluate(assign)
    for gid, var in enc.var.items():
        assert int(model.get(var, False)) == simulated[gid], (
            f"gate {gid} mismatch"
        )


def test_xor_gate_encoding():
    b = Builder()
    x, y, z = b.inputs("x", "y", "z")
    g = b.circuit.add_simple(GateType.XOR, [x, y, z], 1.0)
    b.output("o", g)
    c = b.done()
    enc = encode_circuit(c)
    solver = Solver(enc.cnf)
    for bits in range(8):
        assign = {c.inputs[i]: (bits >> i) & 1 for i in range(3)}
        assumptions = [enc.lit(gid, v) for gid, v in assign.items()]
        assert solver.solve(assumptions)
        model = solver.model()
        expected = (bits & 1) ^ ((bits >> 1) & 1) ^ ((bits >> 2) & 1)
        assert int(model[enc.var[g]]) == expected


def test_xnor_gate_encoding():
    b = Builder()
    x, y, z = b.inputs("x", "y", "z")
    g = b.circuit.add_simple(GateType.XNOR, [x, y, z], 1.0)
    b.output("o", g)
    c = b.done()
    enc = encode_circuit(c)
    solver = Solver(enc.cnf)
    for bits in range(8):
        assign = {c.inputs[i]: (bits >> i) & 1 for i in range(3)}
        assert solver.solve([enc.lit(gid, v) for gid, v in assign.items()])
        expected = 1 - ((bits & 1) ^ ((bits >> 1) & 1) ^ ((bits >> 2) & 1))
        assert int(solver.model()[enc.var[g]]) == expected


def test_constants_encoded_as_units():
    b = Builder()
    x = b.input("x")
    b.output("o", b.or_(x, b.const(1)))
    c = b.done()
    enc = encode_circuit(c)
    solver = Solver(enc.cnf)
    assert solver.solve([enc.lit(c.find_input("x"), 0)])
    assert solver.model()[enc.var[c.find_output("o")]] is True


def test_shared_input_vars_for_miters(two_output_circuit):
    from repro.sat import CircuitEncoder

    c = two_output_circuit
    enc = CircuitEncoder()
    var_a = enc.encode(c)
    var_b = enc.encode(
        c, input_vars={gid: var_a[gid] for gid in c.inputs}
    )
    for gid in c.inputs:
        assert var_a[gid] == var_b[gid]
    for gid in c.outputs:
        assert var_a[gid] != var_b[gid]


# ---------------------------------------------------------------------- #
# CircuitSolver: the KMS loop test's run-long solver
# ---------------------------------------------------------------------- #


def test_circuit_solver_allocates_a_new_source_before_its_reader():
    """A definition owns exactly the variables from its activation
    literal on, and retiring it fixes them all.  ``sync`` visits the
    recorded gates in gid order, so a new constant with a higher gid
    than the gate it feeds gets its output variable while that gate is
    re-encoded: before the gate's activation literal, or retiring the
    gate's definition would fix a live gate's variable."""
    b = Builder()
    x, y = b.inputs("x", "y")
    g = b.and_(x, y)
    b.output("o", g)
    circuit = b.done()
    out = circuit.find_output("o")
    loop = CircuitSolver(circuit)
    loop.sync({}, {})
    const = set_connection_constant(circuit, circuit.gates[g].fanin[0], 1)
    assert const > g
    loop.sync({}, {})  # re-encodes g = AND(1, y), then encodes the CONST1
    assert loop.var[const] < loop._defs[g][1]
    circuit.set_gate_type(g, GateType.OR)
    loop.sync({}, {})  # re-encodes g = OR(1, y), retiring AND(1, y)
    query = loop.query()
    query.add_clause([loop.var[out]])
    assert loop.solve()  # o = 1 + y holds
    query = loop.query()
    query.add_clause([-loop.var[out]])
    assert not loop.solve()
