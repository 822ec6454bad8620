"""SAT sweeping (fraiging): prove simulation-suggested node merges.

The fraig loop (Kuehlmann et al.; the workhorse behind ABC's ``fraig``
command) interleaves three engines, cheapest first:

1. **structural hashing** -- rebuilding the graph through
   :meth:`Aig.add_and` merges everything the two-level rewriter can see;
2. **bit-parallel random simulation** -- 64-way packed patterns
   (:mod:`repro.sim.parallel`'s trick, transplanted onto AIG node
   arrays) partition the surviving nodes into candidate-equivalence
   classes: only nodes whose signatures match up to complement can
   possibly be equal;
3. **incremental SAT** -- one :class:`repro.sat.Solver` per sweep
   answers a miter query per candidate pair.  UNSAT merges the node
   onto its class representative; SAT yields a counterexample input
   pattern that is *fed back into the simulation*, refining every class
   at once so one refuted pair never comes back as a candidate.

Each proved merge immediately shrinks the cones of later queries (the
rebuilt graph routes through representatives), which is what makes the
sweep fast in practice even though it may issue many SAT calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sat.solver import Solver
from .aig import Aig, lit_node, lit_phase


class SweepSolver:
    """Incremental SAT oracle over (a growing) AIG.

    Encodes node cones into one CDCL solver on demand -- a node's
    clauses are added the first time a query touches it -- and keeps
    the solver alive across queries so learned clauses accumulate.
    The AIG may keep growing between queries; only queried cones are
    ever encoded.
    """

    def __init__(self, aig: Aig, conflict_limit: Optional[int] = None) -> None:
        self.aig = aig
        self.conflict_limit = conflict_limit
        self.solver = Solver()
        self._var: Dict[int, int] = {}

    def _var_of(self, node: int) -> int:
        """CNF variable of ``node``, encoding its cone if needed."""
        var = self._var.get(node)
        if var is not None:
            return var
        # iterative cone encoding (recursion-free: cones can be deep)
        stack = [node]
        while stack:
            top = stack[-1]
            if top in self._var:
                stack.pop()
                continue
            if not self.aig.is_and(top):
                var = self.solver.new_var()
                self._var[top] = var
                if top == 0:
                    self.solver.add_clause((-var,))
                stack.pop()
                continue
            f0, f1 = self.aig.fanins(top)
            pending = [n for n in (lit_node(f0), lit_node(f1))
                       if n not in self._var]
            if pending:
                stack.extend(pending)
                continue
            var = self.solver.new_var()
            self._var[top] = var
            l0, l1 = self.cnf_lit(f0), self.cnf_lit(f1)
            self.solver.add_clause((-var, l0))
            self.solver.add_clause((-var, l1))
            self.solver.add_clause((var, -l0, -l1))
            stack.pop()
        return self._var[node]

    def cnf_lit(self, lit: int) -> int:
        """Solver literal for an AIG literal."""
        var = self._var_of(lit_node(lit))
        return -var if lit_phase(lit) else var

    def _prefer_inputs(self) -> None:
        self.solver.prefer_variables(
            self._var[n] for n in self.aig.inputs if n in self._var
        )

    def prove_equal(
        self, a: int, b: int
    ) -> Tuple[Optional[bool], Optional[Dict[int, int]]]:
        """Decide whether AIG literals ``a`` and ``b`` are equivalent.

        Returns ``(verdict, counterexample)``: ``(True, None)`` proved
        equal, ``(False, pattern)`` refuted with an input-node -> 0/1
        pattern, ``(None, None)`` undecided under the conflict limit.
        """
        status, model = self._solve_distinct([(a, b)])
        if status is None:
            return None, None
        if status is False:
            return True, None
        return False, self.counterexample(model)

    def solve_any_distinct(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[Optional[bool], Optional[Dict[int, int]]]:
        """One call deciding whether *any* pair can differ.

        ``(False, None)`` proves every pair equivalent -- the single
        final miter call of the fraig-first equivalence path.
        """
        status, model = self._solve_distinct(pairs)
        if status:
            return True, self.counterexample(model)
        return status, None

    def _solve_distinct(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[Optional[bool], Optional[Dict[int, bool]]]:
        self.solver.reset_to_root()
        diff_lits = []
        for a, b in pairs:
            la, lb = self.cnf_lit(a), self.cnf_lit(b)
            d = self.solver.new_var()
            # d -> (la xor lb); the reverse direction is unnecessary
            # because d is only ever assumed true.
            self.solver.add_clause((-d, la, lb))
            self.solver.add_clause((-d, -la, -lb))
            diff_lits.append(d)
        if len(diff_lits) > 1:
            gate = self.solver.new_var()
            self.solver.add_clause([-gate] + diff_lits)
            assumption = gate
        else:
            assumption = diff_lits[0]
        self._prefer_inputs()
        status = self.solver.solve(
            (assumption,), conflict_limit=self.conflict_limit
        )
        if status:
            return True, self.solver.model()
        return status, None

    def counterexample(self, model: Dict[int, bool]) -> Dict[int, int]:
        """Input-node -> 0/1 pattern from a satisfying model."""
        return {
            node: int(model.get(self._var[node], False))
            for node in self.aig.inputs
            if node in self._var
        }


@dataclass
class FraigStats:
    """Work accounting for one sweep."""

    ands_before: int = 0
    ands_after: int = 0
    structural_merges: int = 0
    sat_proved: int = 0
    sat_refuted: int = 0
    sat_undecided: int = 0
    patterns: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class FraigResult:
    """A swept AIG plus the old-node -> new-literal map."""

    aig: Aig
    lit_map: Dict[int, int]
    stats: FraigStats = field(default_factory=FraigStats)

    def map_lit(self, lit: int) -> int:
        """New-graph literal for an old-graph literal."""
        return self.lit_map[lit_node(lit)] ^ lit_phase(lit)


def _canonical(sig: int, mask: int) -> int:
    """Phase-normalized signature: complement-equal nodes share a key."""
    return (sig ^ mask) & mask if sig & 1 else sig & mask


def fraig(
    aig: Aig,
    seed: int = 0,
    words: int = 2,
    conflict_limit: Optional[int] = 1000,
) -> FraigResult:
    """Sweep ``aig`` into a functionally-reduced graph.

    ``words`` 64-bit words of seeded random patterns form the initial
    candidate classes; every SAT refutation appends its counterexample
    pattern and re-partitions, so classes only ever refine.  Nodes whose
    proof exceeds ``conflict_limit`` stay unmerged (sound, possibly
    non-minimal); ``conflict_limit=None`` sweeps to completion.
    """
    rng = random.Random(seed)
    width = max(1, words) * 64
    patterns = aig.random_patterns(width, rng)
    sigs = aig.simulate(patterns, width)

    new = Aig(aig.name)
    stats = FraigStats(ands_before=aig.num_ands())
    lit_map: Dict[int, int] = {0: 0}
    new_input_of_old: Dict[int, int] = {}
    sweeper = SweepSolver(new, conflict_limit=conflict_limit)
    # canonical signature -> distinct representative old nodes
    reps: Dict[int, List[int]] = {}
    processed: List[int] = []

    def refine(pattern: Dict[int, int]) -> None:
        """Append one counterexample pattern and re-partition."""
        nonlocal width
        # only the inputs created so far: old ids are topological, so
        # the refuted pair depends on none of the later ones
        old_pattern = {
            old: pattern.get(node, 0)
            for old, node in new_input_of_old.items()
        }
        bits = aig.simulate(old_pattern, 1)
        for node in range(len(sigs)):
            sigs[node] = (sigs[node] << 1) | bits[node]
        width += 1
        stats.patterns = width
        reps.clear()
        mask = (1 << width) - 1
        for node in processed:
            reps.setdefault(_canonical(sigs[node], mask), []).append(node)

    stats.patterns = width
    for old in range(1, aig.num_nodes()):
        if aig.is_input(old):
            new_lit = new.add_input(aig.input_name(old))
            new_input_of_old[old] = lit_node(new_lit)
        elif aig.is_and(old):
            f0, f1 = aig.fanins(old)
            new_lit = new.add_and(
                lit_map[lit_node(f0)] ^ lit_phase(f0),
                lit_map[lit_node(f1)] ^ lit_phase(f1),
            )
        else:  # pragma: no cover - nodes are inputs or ANDs
            continue
        # search the node's candidate class for a proved-equal rep
        while True:
            mask = (1 << width) - 1
            key = _canonical(sigs[old], mask)
            merged = False
            refuted = False
            for rep in reps.get(key, ()):
                phase = 0 if sigs[rep] == sigs[old] else 1
                rep_lit = lit_map[rep] ^ phase
                if rep_lit == new_lit:
                    stats.structural_merges += 1
                    merged = True
                    break
                if lit_node(rep_lit) == lit_node(new_lit):
                    continue  # same node, wrong phase: not equal
                verdict, cex = sweeper.prove_equal(new_lit, rep_lit)
                if verdict is True:
                    stats.sat_proved += 1
                    new_lit = rep_lit
                    merged = True
                    break
                if verdict is False:
                    stats.sat_refuted += 1
                    refine(cex)
                    refuted = True
                    break
                stats.sat_undecided += 1
            if merged or not refuted:
                break
            # signatures changed: retry against the refined class
        if not merged:
            mask = (1 << width) - 1
            reps.setdefault(_canonical(sigs[old], mask), []).append(old)
            processed.append(old)
        lit_map[old] = new_lit

    for name, lit in aig.outputs:
        new.add_output(name, lit_map[lit_node(lit)] ^ lit_phase(lit))
    stats.ands_after = new.num_ands(live_only=True)
    return FraigResult(aig=new, lit_map=lit_map, stats=stats)
