"""Tseitin encoding of circuits into CNF.

Each gate output becomes a CNF variable; the clauses constrain the
variable to equal the gate function of its fanin variables.  The encoding
is shared by the equivalence checker, the static sensitization check
(Definition 4.11 reduces to SAT on the circuit clauses plus unit
constraints on side-inputs) and SAT-based ATPG.

Two incremental users encode straight into a live :class:`Solver`
through :class:`ActivationCnf`, which gates every clause under an
activation literal: the proof engine's faulty cones, and
:class:`CircuitSolver`, the KMS loop test's one solver per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..counters import count
from ..network import Circuit, GateType
from .cnf import CNF
from .solver import Solver


class ActivationCnf:
    """CNF facade over a live solver that gates every clause.

    ``CircuitEncoder(ActivationCnf(solver, act))`` emits its clauses
    through the ``new_var`` / ``add_clause`` / ``add_unit`` surface;
    routing them here appends the negated activation literal, so they
    hold only under ``solve(assumptions=(act, ...))`` and one root-level
    ``(-act)`` unit retires them all.  ``clauses`` counts what was
    emitted.
    """

    def __init__(self, solver: Solver, act: int) -> None:
        self.solver = solver
        self.act = act
        self.clauses = 0

    def new_var(self) -> int:
        return self.solver.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        self.clauses += 1
        self.solver.add_clause(list(literals) + [-self.act])

    def add_unit(self, literal: int) -> None:
        self.add_clause((literal,))


class CircuitEncoder:
    """Encodes a circuit into a :class:`CNF` (or an
    :class:`ActivationCnf`), keeping the gid -> var map.

    Multiple circuits may be encoded into one CNF (miters); PIs can be
    shared by passing ``input_vars``.
    """

    def __init__(
        self, cnf: Union[CNF, ActivationCnf, None] = None
    ) -> None:
        self.cnf = cnf if cnf is not None else CNF()

    def encode(
        self,
        circuit: Circuit,
        input_vars: Optional[Dict[int, int]] = None,
        gate_filter: Optional[Iterable[int]] = None,
    ) -> Dict[int, int]:
        """Encode ``circuit`` (or the sub-DAG ``gate_filter``) and return
        the gid -> variable map.

        ``input_vars`` maps PI gid -> existing variable (for sharing PIs
        between the two halves of a miter).  Gates outside ``gate_filter``
        (when given) are skipped; the filter must be fanin-closed.
        """
        var: Dict[int, int] = {}
        allowed = set(gate_filter) if gate_filter is not None else None
        for gid in circuit.topological_order():
            if allowed is not None and gid not in allowed:
                continue
            gate = circuit.gates[gid]
            if gate.gtype is GateType.INPUT and input_vars and gid in input_vars:
                var[gid] = input_vars[gid]
                continue
            v = self.cnf.new_var()
            var[gid] = v
            ins = [var[circuit.conns[c].src] for c in gate.fanin]
            self.constrain(gate.gtype, v, ins)
        return var

    def constrain(self, gtype: GateType, out: int, ins: List[int]) -> None:
        """Emit the clauses making ``out`` the ``gtype`` function of
        ``ins`` (XOR chains allocate auxiliary variables)."""
        cnf = self.cnf
        if gtype is GateType.INPUT:
            return  # free variable
        if gtype is GateType.CONST0:
            cnf.add_unit(-out)
            return
        if gtype is GateType.CONST1:
            cnf.add_unit(out)
            return
        if gtype in (GateType.BUF, GateType.OUTPUT):
            (a,) = ins
            cnf.add_clause((-a, out))
            cnf.add_clause((a, -out))
            return
        if gtype is GateType.NOT:
            (a,) = ins
            cnf.add_clause((a, out))
            cnf.add_clause((-a, -out))
            return
        if gtype in (GateType.AND, GateType.NAND):
            o = out if gtype is GateType.AND else -out
            for a in ins:
                cnf.add_clause((-o, a))
            cnf.add_clause(tuple(-a for a in ins) + (o,))
            return
        if gtype in (GateType.OR, GateType.NOR):
            o = out if gtype is GateType.OR else -out
            for a in ins:
                cnf.add_clause((o, -a))
            cnf.add_clause(tuple(ins) + (-o,))
            return
        if gtype in (GateType.XOR, GateType.XNOR):
            acc = ins[0]
            for nxt in ins[1:-1]:
                aux = cnf.new_var()
                self._xor2(acc, nxt, aux)
                acc = aux
            if gtype is GateType.XOR:
                self._xor2(acc, ins[-1], out)
            else:
                aux = cnf.new_var()
                self._xor2(acc, ins[-1], aux)
                cnf.add_clause((aux, out))
                cnf.add_clause((-aux, -out))
            return
        raise ValueError(f"cannot encode {gtype}")

    def _xor2(self, a: int, b: int, out: int) -> None:
        cnf = self.cnf
        cnf.add_clause((-a, -b, -out))
        cnf.add_clause((a, b, -out))
        cnf.add_clause((-a, b, out))
        cnf.add_clause((a, -b, out))


def encode_circuit(circuit: Circuit) -> "EncodedCircuit":
    """One-shot encoding, returning the CNF and the variable map."""
    enc = CircuitEncoder()
    var = enc.encode(circuit)
    return EncodedCircuit(enc.cnf, var)


class EncodedCircuit:
    """A circuit's CNF plus its gid -> variable map."""

    def __init__(self, cnf: CNF, var: Dict[int, int]) -> None:
        self.cnf = cnf
        self.var = var

    def lit(self, gid: int, value: int) -> int:
        """The literal asserting gate ``gid`` carries ``value``."""
        v = self.var[gid]
        return v if value else -v


#: :class:`CircuitSolver` rebuilds from the current circuit once its
#: retired clauses outnumber the live ones by this factor.  Chosen by
#: measurement on the planted KMS workload: 1 and 8 ran within noise
#: of 3.
REBUILD_RATIO = 3

#: gate type plus the ordered fanin source gids: what a definition encodes.
Signature = Tuple[GateType, Tuple[int, ...]]

#: critical connection -> its side-input constraints, each a
#: (source gid, required value) pair.
Selections = Dict[int, Tuple[Tuple[int, int], ...]]

#: what a selection definition encodes: the critical in-edges of the
#: connection's source (None for a PI source) and its constraints.
SelectSignature = Tuple[
    Optional[Tuple[int, ...]], Tuple[Tuple[int, int], ...]
]


class CircuitSolver:
    """One incremental solver that follows a mutating circuit.

    The KMS loop asks its SAT question once per iteration, and each
    iteration changes only a duplicated chain and a constant cone.  So
    instead of a fresh Tseitin encoding per question, one solver holds
    the circuit for a whole run, together with a selection variable
    ``s_c`` per critical connection ``c``.  Each *definition* sits under
    its own activation literal and owns exactly the variables from that
    literal on:

    * a gate's definition is its Tseitin clauses.  :meth:`sync` diffs
      the signature (type plus ordered fanin *source* gids) of every
      gate in its own :meth:`~repro.network.circuit.Circuit.record_touched`
      record against the one it encoded; it walks the whole circuit in
      topological order only at a (re)build, which allocates the gate
      variables in the order :meth:`CircuitEncoder.encode` uses (that
      keeps the searches short; insertion order doubled the decisions
      on ripple-carry adders).  A changed gate is re-encoded on its
      unchanged output variable under a fresh activation literal, so its
      fanout's definitions stay valid, and the old literal is retired
      with the root unit ``(-a)``.  A gate that left the circuit has its
      definition retired too.  The record visits gates out of
      topological order, so a fanin source's output variable may be
      allocated on demand: always before the activation literal, since
      the definition owns every variable after it;
    * a critical connection's selection definition is ``s_c ->
      OR(s_c' over src(c)'s critical in-edges)`` (when ``src(c)`` is not
      a PI) plus ``s_c ->`` each of its side-input constraints.
      :meth:`sync` re-encodes it only when those in-edges or constraints
      changed and retires it when ``c`` left the critical map; ``s_c``
      keeps its variable while ``c`` stays critical.
    * :meth:`query` opens a query: an :class:`ActivationCnf` gating
      the caller's clauses (for the loop, the one root clause) under a
      fresh literal ``q``; :meth:`solve` answers it under ``[q]`` plus
      every live activation literal and then retires ``q``.
    * Variables that only retired clauses mention -- a query's
      variables, a retired definition's XOR auxiliaries, a removed
      gate's output, a dropped connection's ``s_c`` -- are fixed at the
      root.  Left free, they would keep their activity, later searches
      could decide them before live variables, and every SAT answer
      would have to decide them all.
    * Retired clauses stay in the watch lists, so once they outnumber
      the live ones by :data:`REBUILD_RATIO` the next :meth:`sync`
      starts a fresh solver (dropping the learned clauses too).

    Soundness.  Every clause carries an activation or a query literal,
    only ever assumed and never fixed true; the root units that retire
    them are their only other occurrences.  Under the assumptions the
    active clauses are exactly the current circuit's Tseitin encoding,
    the current selection definitions and the current query, and every
    retired clause is satisfied at the root, so SAT/UNSAT is the
    from-scratch answer.  Learned clauses stay implied, because the
    clause database only grows.  A literal ``-a`` can never be resolved
    away (``a`` occurs in no clause) nor dropped as a root-level literal
    (``a`` is true only at assumption levels), so a learned clause keeps
    the negated literal of every clause it was derived from -- in
    particular of a clause mentioning each variable it mentions.  So a
    variable is fixed at the root only once no live clause mentions it,
    whether that clause is a gate definition, a selection definition or
    the query: then every clause left that mentions it is satisfied at
    the root, and fixing it is sound.  That is why :meth:`sync` retires
    every stale selection definition before it fixes a removed gate's
    output or a dropped connection's ``s_c``.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        # the gates edited since the last sync
        self._touched = circuit.record_touched()
        self._reset()

    def _reset(self) -> None:
        self.solver = Solver()
        #: gid -> its output variable, stable while the gate lives.
        self.var: Dict[int, int] = {}
        #: critical connection -> its selection variable, stable while
        #: the connection stays critical.
        self.select: Dict[int, int] = {}
        # gid -> (signature, activation literal or 0, last variable of
        # the definition): a definition owns the variables act..last
        self._defs: Dict[int, Tuple[Signature, int, int]] = {}
        # the same for the selection definitions, per connection
        self._selects: Dict[int, Tuple[SelectSignature, int, int]] = {}
        # live activation literal -> its clause count
        self._live: Dict[int, int] = {}
        self._live_clauses = 0
        self._retired_clauses = 0
        self._query: Optional[ActivationCnf] = None

    def sync(
        self, edges: Selections, into: Dict[int, Tuple[int, ...]]
    ) -> None:
        """Bring the encoding up to the circuit's current structure and
        to the critical map ``edges``, whose critical in-edges per gate
        are ``into``."""
        if self._retired_clauses > REBUILD_RATIO * self._live_clauses:
            self._reset()
        self.solver.reset_to_root()
        circuit, defs = self.circuit, self._defs
        gates, conns = circuit.gates, circuit.conns
        changed = (
            sorted(self._touched) if defs else circuit.topological_order()
        )
        self._touched.clear()
        # variables to fix once every definition mentioning them retired
        unused: List[int] = []
        for gid in changed:
            gate = gates.get(gid)
            old = defs.get(gid)
            if gate is None:
                if old is not None:
                    del defs[gid]
                    self._retire(old[1], old[2])
                    unused.append(self.var.pop(gid))
                continue
            sig = (
                gate.gtype,
                tuple([conns[cid].src for cid in gate.fanin]),
            )
            if old is not None:
                if old[0] == sig:
                    continue
                self._retire(old[1], old[2])
            self._encode(gid, sig)
        selects = self._selects
        for cid in [c for c in selects if c not in edges]:
            _, act, last = selects.pop(cid)
            self._retire(act, last)
            unused.append(self.select.pop(cid))
        for cid, sides in edges.items():
            src = conns[cid].src
            ssig = (
                None
                if gates[src].gtype is GateType.INPUT
                else into.get(src, ()),
                sides,
            )
            old_select = selects.get(cid)
            if old_select is not None:
                if old_select[0] == ssig:
                    continue
                self._retire(old_select[1], old_select[2])
            self._encode_select(cid, ssig)
        self._fix(unused)

    def _gate_var(self, gid: int) -> int:
        out = self.var.get(gid)
        if out is None:
            out = self.var[gid] = self.solver.new_var()
        return out

    def _select_var(self, cid: int) -> int:
        s = self.select.get(cid)
        if s is None:
            s = self.select[cid] = self.solver.new_var()
        return s

    def _encode(self, gid: int, sig: Signature) -> None:
        count("loop_gate_encodings")
        gtype, srcs = sig
        ins = [self._gate_var(s) for s in srcs]
        out = self._gate_var(gid)
        if gtype is GateType.INPUT:
            self._defs[gid] = (sig, 0, 0)  # a free variable
            return
        gated = self._open()
        CircuitEncoder(gated).constrain(gtype, out, ins)
        self._defs[gid] = self._close(sig, gated)

    def _encode_select(self, cid: int, sig: SelectSignature) -> None:
        count("loop_select_encodings")
        ins, sides = sig
        s = self._select_var(cid)
        clauses = (
            [] if ins is None else [[-s] + [self._select_var(c) for c in ins]]
        )
        var = self.var
        clauses += [
            (-s, var[src] if value else -var[src]) for src, value in sides
        ]
        if not clauses:
            self._selects[cid] = (sig, 0, 0)  # s_c is free
            return
        gated = self._open()
        for clause in clauses:
            gated.add_clause(clause)
        self._selects[cid] = self._close(sig, gated)

    def _open(self) -> ActivationCnf:
        return ActivationCnf(self.solver, self.solver.new_var())

    def _close(self, sig, gated: ActivationCnf) -> tuple:
        """Register a definition's clauses as live; its record."""
        self._live[gated.act] = gated.clauses
        self._live_clauses += gated.clauses
        return (sig, gated.act, self.solver.num_vars)

    def _retire(self, act: int, last: int) -> None:
        """Switch a definition off for good: ``(-act)`` plus its
        auxiliaries fixed."""
        if not act:
            return
        clauses = self._live.pop(act)
        self._live_clauses -= clauses
        self._retired_clauses += clauses
        self._fix(range(act, last + 1))

    def _fix(self, variables: Iterable[int]) -> None:
        self.solver.fix([-var for var in variables])

    def query(self) -> ActivationCnf:
        """Open a query over the synced encoding: the returned facade
        allocates the query's variables and gates its clauses under a
        fresh query literal until :meth:`solve` retires it."""
        self._query = self._open()
        return self._query

    def solve(self) -> bool:
        """Decide the open query on the current circuit, then retire
        it."""
        query, solver = self._query, self.solver
        assert query is not None, "solve() needs an open query()"
        sat = solver.solve([query.act] + list(self._live))
        solver.reset_to_root()
        self._retired_clauses += query.clauses
        self._fix(range(query.act, solver.num_vars + 1))
        self._query = None
        return bool(sat)
