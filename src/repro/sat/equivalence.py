"""Combinational equivalence checking: fraig-first, CNF miter fallback.

The KMS algorithm's correctness rests on every transformation preserving
circuit function (Theorems 7.1 and 7.2), which makes equivalence
checking the verify pipeline's hot path.  Two complete engines share
one result type:

* ``method="fraig"`` (default) -- both circuits are encoded into *one*
  structurally-hashed AIG with shared PIs (:func:`repro.aig.miter_aig`).
  Cones the circuits share merge at node-creation time, so equivalence
  is often decided **without any SAT call**: structurally (the output
  literals coincide -- KMS duplication and absorption-shaped redundancy
  removal collapse here), by bit-parallel random simulation (any
  differing pattern is a counterexample), or by a node-capped BDD build
  over the miter cones (canonical forms decide both ways).  Only when
  all three abstain does the checker issue a single incremental SAT
  call over the unresolved output pairs -- the same one-call budget as
  the CNF path, on a smaller, hashed formula.  That call is complete,
  so the path decides every pair.

* ``method="cnf"`` -- the classic whole-circuit Tseitin miter: every
  pair of same-named outputs feeds an XOR, the OR of all XORs is
  asserted, one solver call decides.  Kept verbatim as the A/B baseline
  the fraig path is telemetry-compared against (``repro bench
  --verify``) and as the engine of last resort.

Verdicts are identical by construction -- both engines are complete --
and the fraig path never issues *more* solve calls than the CNF path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..network import Circuit
from .solver import Solver
from .tseitin import CircuitEncoder

#: 64-bit words of random patterns the fraig path simulates before
#: reaching for heavier engines.
SIM_WORDS = 4

#: BDD growth budget (total nodes) before the BDD engine abstains.
BDD_NODE_CAP = 50_000


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    #: PI name -> 0/1 counterexample (only when not equivalent).
    counterexample: Optional[Dict[str, int]] = None
    #: name of an output that differs under the counterexample.
    differing_output: Optional[str] = None


def check_equivalence(
    a: Circuit, b: Circuit, method: str = "fraig"
) -> EquivalenceResult:
    """Prove or refute functional equivalence of two circuits.

    Circuits are matched by PI and PO *names*; gid numbering is free to
    differ (KMS renumbers aggressively).  Raises ``ValueError`` when the
    interfaces differ -- that is a harness bug, not an inequivalence.
    """
    if method == "fraig":
        return _check_fraig(a, b)
    if method == "cnf":
        return _check_cnf(a, b)
    raise ValueError(f"unknown equivalence method {method!r}")


# ---------------------------------------------------------------------- #
# fraig-first engine
# ---------------------------------------------------------------------- #

def _check_fraig(a: Circuit, b: Circuit) -> EquivalenceResult:
    from ..aig import miter_aig
    from ..aig.fraig import SweepSolver

    aig, pairs = miter_aig(a, b)
    unresolved = {
        name: lits for name, lits in sorted(pairs.items())
        if lits[0] != lits[1]
    }
    if not unresolved:
        return EquivalenceResult(equivalent=True)

    # bit-parallel random simulation: a differing pattern settles it
    rng = random.Random(0xE9)
    mask = (1 << 64) - 1
    for _ in range(SIM_WORDS):
        patterns = aig.random_patterns(64, rng)
        values = aig.simulate(patterns, 64)
        for name, (la, lb) in unresolved.items():
            diff = (aig.lit_value(values, la, mask)
                    ^ aig.lit_value(values, lb, mask))
            if diff:
                bit = (diff & -diff).bit_length() - 1
                cex = {
                    aig.input_name(node): (patterns.get(node, 0) >> bit) & 1
                    for node in aig.inputs
                }
                return EquivalenceResult(
                    equivalent=False, counterexample=cex,
                    differing_output=name,
                )

    # node-capped BDD: canonical forms decide both ways at zero SAT cost
    verdict = _check_bdd(aig, unresolved)
    if verdict is not None:
        return verdict

    # one incremental SAT call over every unresolved pair
    sweeper = SweepSolver(aig, conflict_limit=None)
    distinct, pattern = sweeper.solve_any_distinct(list(unresolved.values()))
    if not distinct:
        return EquivalenceResult(equivalent=True)
    full = {node: pattern.get(node, 0) for node in aig.inputs}
    values = aig.simulate(full, 1)
    differing = next(
        (
            name for name, (la, lb) in unresolved.items()
            if aig.lit_value(values, la, 1) != aig.lit_value(values, lb, 1)
        ),
        None,
    )
    cex = {aig.input_name(node): full[node] & 1 for node in aig.inputs}
    return EquivalenceResult(
        equivalent=False, counterexample=cex, differing_output=differing
    )


def _check_bdd(aig, unresolved) -> Optional[EquivalenceResult]:
    """Decide all unresolved pairs with a node-capped BDD build.

    Returns None when the cap is hit (the engine abstains); otherwise a
    definitive result, with a counterexample mined from the first
    differing pair's XOR.
    """
    from ..bdd import BDD

    bdd = BDD(aig.num_inputs())
    var_index = {node: i for i, node in enumerate(aig.inputs)}
    needed = [lit for lits in unresolved.values() for lit in lits]
    funcs: Dict[int, int] = {0: bdd.ZERO}

    def lit_func(lit: int) -> int:
        from ..aig import lit_node, lit_phase

        f = funcs[lit_node(lit)]
        return bdd.negate(f) if lit_phase(lit) else f

    for node in aig.cone(needed):
        if node == 0:
            continue
        if aig.is_input(node):
            funcs[node] = bdd.var(var_index[node])
            continue
        f0, f1 = aig.fanins(node)
        funcs[node] = bdd.apply_and(lit_func(f0), lit_func(f1))
        if bdd.node_count > BDD_NODE_CAP:
            return None
    for name, (la, lb) in unresolved.items():
        fa, fb = lit_func(la), lit_func(lb)
        if fa == fb:
            continue
        assignment = bdd.any_sat(bdd.apply_xor(fa, fb)) or {}
        cex = {
            aig.input_name(node): assignment.get(var_index[node], 0)
            for node in aig.inputs
        }
        return EquivalenceResult(
            equivalent=False, counterexample=cex, differing_output=name
        )
    return EquivalenceResult(equivalent=True)


# ---------------------------------------------------------------------- #
# CNF miter engine (the A/B baseline)
# ---------------------------------------------------------------------- #

def _check_cnf(a: Circuit, b: Circuit) -> EquivalenceResult:
    a_pis = {a.gates[g].name: g for g in a.inputs}
    b_pis = {b.gates[g].name: g for g in b.inputs}
    if set(a_pis) != set(b_pis):
        raise ValueError(
            f"PI mismatch: {sorted(set(a_pis) ^ set(b_pis))}"
        )
    a_pos = {a.gates[g].name: g for g in a.outputs}
    b_pos = {b.gates[g].name: g for g in b.outputs}
    if set(a_pos) != set(b_pos):
        raise ValueError(
            f"PO mismatch: {sorted(set(a_pos) ^ set(b_pos))}"
        )

    enc = CircuitEncoder()
    var_a = enc.encode(a)
    shared = {b_pis[name]: var_a[a_pis[name]] for name in a_pis}
    var_b = enc.encode(b, input_vars=shared)

    cnf = enc.cnf
    diff_lits = []
    diff_of_output: Dict[int, str] = {}
    for name in a_pos:
        va, vb = var_a[a_pos[name]], var_b[b_pos[name]]
        d = cnf.new_var()
        # d <-> (va xor vb)
        cnf.add_clause((-va, -vb, -d))
        cnf.add_clause((va, vb, -d))
        cnf.add_clause((-va, vb, d))
        cnf.add_clause((va, -vb, d))
        diff_lits.append(d)
        diff_of_output[d] = name
    cnf.add_clause(diff_lits)

    solver = Solver(cnf)
    if not solver.solve():
        return EquivalenceResult(equivalent=True)
    model = solver.model()
    cex = {
        name: int(model.get(var_a[gid], False))
        for name, gid in a_pis.items()
    }
    differing = next(
        (diff_of_output[d] for d in diff_lits if model.get(d)), None
    )
    return EquivalenceResult(
        equivalent=False, counterexample=cex, differing_output=differing
    )


def assert_equivalent(a: Circuit, b: Circuit) -> None:
    """Raise ``AssertionError`` with the counterexample if not equivalent."""
    result = check_equivalence(a, b)
    if not result.equivalent:
        raise AssertionError(
            f"circuits differ on output {result.differing_output!r} "
            f"under input {result.counterexample!r}"
        )
