"""A CDCL SAT solver (conflict-driven clause learning).

Implements the classic architecture -- two-watched-literal propagation,
1UIP conflict analysis with clause learning, VSIDS-style activity decay,
phase saving, geometric restarts, and *assumptions* so that one solver
instance per circuit can answer many incremental queries (each ATPG or
sensitization query is a solve-under-assumptions call).

Decisions come from a lazy binary heap keyed on (not preferred,
-activity, index): preferred variables first, then the highest
activity, then the lowest index -- exactly the variable a linear scan
over the preferred list and then over every variable picks, so every
model is the one that scan finds.

This is deliberately self-contained: the reproduction builds every
substrate from scratch, and the circuits involved (carry-skip adders,
MCNC-scale benchmarks) are comfortably within reach of a pure-Python CDCL.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..counters import count
from .cnf import CNF

TRUE, FALSE, UNASSIGNED = 1, 0, -1


class Solver:
    """CDCL solver over integer literals (DIMACS convention)."""

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[List[int]]] = {}
        self._assign: List[int] = [UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: List[bool] = [False]
        self._preferred: List[int] = []
        # decision heap: (0 if preferred else 1, -activity, var).  An
        # entry is stale once its activity is not the variable's; every
        # unassigned variable has a current entry, and _queued marks the
        # variables that hold one.
        self._rank: List[int] = [1]
        self._heap: List[Tuple[int, float, int]] = []
        self._queued: List[bool] = [False]
        self._ok = True
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ #
    # problem construction
    # ------------------------------------------------------------------ #

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._assign.append(UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._rank.append(1)
            self._queued.append(True)
            heapq.heappush(self._heap, (1, -0.0, self._num_vars))

    def new_var(self) -> int:
        self._ensure_var(self._num_vars + 1)
        return self._num_vars

    @property
    def num_vars(self) -> int:
        """The highest variable allocated so far."""
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula is now trivially
        UNSAT.  Must be called at decision level 0."""
        assert not self._trail_lim, "add_clause only at root level"
        if not self._ok:
            return False
        seen = set()
        clause: List[int] = []
        for lit in literals:
            self._ensure_var(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val == TRUE:
                return True  # already satisfied at root
            if val == FALSE:
                continue  # falsified at root: drop literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._watch(clause)
        return True

    def fix(self, literals: Iterable[int]) -> bool:
        """Assert ``literals`` at the root level, propagating once: how
        incremental callers retire an activation literal and pin the
        variables only retired clauses mention.  Returns False if the
        formula is now trivially UNSAT."""
        assert not self._trail_lim, "fix only at root level"
        if not self._ok:
            return False
        for lit in literals:
            self._ensure_var(abs(lit))
            if not self._enqueue(lit, None):
                self._ok = False
                return False
        if self._propagate() is not None:
            self._ok = False
        return self._ok

    def add_cnf(self, cnf: CNF) -> bool:
        self._ensure_var(cnf.num_vars)
        ok = True
        for clause in cnf.clauses:
            ok = self.add_clause(clause) and ok
        return ok and self._ok

    def _watch(self, clause: List[int]) -> None:
        self._watches.setdefault(-clause[0], []).append(clause)
        self._watches.setdefault(-clause[1], []).append(clause)

    # ------------------------------------------------------------------ #
    # assignment machinery
    # ------------------------------------------------------------------ #

    def _value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val if lit > 0 else 1 - val

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        val = self._value(lit)
        if val != UNASSIGNED:
            return val == TRUE
        var = abs(lit)
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            kept: List[List[int]] = []
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # ensure the falsified literal is clause[1]
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == TRUE:
                    kept.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(
                            -clause[1], []
                        ).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if not self._enqueue(first, clause):
                    # conflict: keep remaining watchers, report
                    kept.extend(watchers[i:])
                    self._watches[lit] = kept
                    return clause
            self._watches[lit] = kept
        return None

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #

    def bump_variable(self, var: int, amount: float = 1.0) -> None:
        """Raise a variable's decision priority.

        Callers with domain knowledge use this as a branching hint --
        e.g. circuit-SAT callers bump primary-input variables so the
        search assigns free inputs and lets propagation evaluate the
        netlist, mirroring PODEM's branch-on-PIs insight.
        """
        self._ensure_var(var)
        self._activity[var] += amount * self._var_inc
        self._push(var)

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()
        else:
            self._push(var)

    def _push(self, var: int) -> None:
        """Queue ``var`` under its current key."""
        self._queued[var] = True
        heapq.heappush(
            self._heap, (self._rank[var], -self._activity[var], var)
        )
        if len(self._heap) > 4 * self._num_vars + 64:
            self._rebuild_heap()  # mostly stale entries: shed them

    def _rebuild_heap(self) -> None:
        """Queue every unassigned variable afresh, dropping every entry
        (after a rescale, when the preferred set changes, or when stale
        entries pile up)."""
        assign, activity, rank = self._assign, self._activity, self._rank
        queued = self._queued
        heap = self._heap
        del heap[:]
        for var in range(1, self._num_vars + 1):
            queued[var] = assign[var] == UNASSIGNED
            if queued[var]:
                heap.append((rank[var], -activity[var], var))
        heapq.heapify(heap)

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """1UIP analysis: returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason: Optional[List[int]] = conflict
        index = len(self._trail)
        cur_level = len(self._trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] == cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick next literal on trail at current level
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the clause
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        queued = self._queued
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._phase[var] = self._assign[var] == TRUE
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
            if not queued[var]:
                self._push(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def prefer_variables(self, variables) -> None:
        """Restrict-first decision ordering.

        While any of these variables is unassigned, decisions pick among
        them (by activity); other variables are only decided once every
        preferred one is set.  Circuit-SAT callers pass the primary-input
        variables: once all PIs are assigned, unit propagation evaluates
        the whole netlist, so the search space collapses to the PI cube
        -- PODEM's branch-on-PIs insight transplanted into CDCL.
        """
        self._preferred = sorted(set(variables))
        for var in self._preferred:
            self._ensure_var(var)
        self._rank = [1] * (self._num_vars + 1)
        for var in self._preferred:
            self._rank[var] = 0
        self._rebuild_heap()

    def _decide(self) -> int:
        """Pop the best unassigned variable: preferred first, then the
        highest activity, then the lowest index.  Stale entries and
        assigned variables are discarded on the way."""
        heap, assign, activity = self._heap, self._assign, self._activity
        while heap:
            _, neg_act, var = heapq.heappop(heap)
            if neg_act != -activity[var]:
                continue  # stale: a current entry is still queued
            self._queued[var] = False
            if assign[var] == UNASSIGNED:
                return var if self._phase[var] else -var
        return 0

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
    ) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (SAT), False (UNSAT under these assumptions), or None
        if ``conflict_limit`` was exhausted.  After True, :meth:`model`
        gives a satisfying assignment.
        """
        count("sat_calls")
        if not self._ok:
            return False
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        conflicts_seen = 0
        restart_limit = 100
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts_seen += 1
                if conflict_limit is not None and conflicts_seen > conflict_limit:
                    self._backtrack(0)
                    return None
                if not self._trail_lim:
                    return False  # conflict at root: truly UNSAT
                if len(self._trail_lim) <= len(assumptions):
                    # conflict forced purely by assumptions
                    self._backtrack(0)
                    return False
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, self._assumption_level())
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return False
                    # re-establish assumptions on next iterations
                else:
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= self._var_decay
                if conflicts_seen >= restart_limit:
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                continue
            # no conflict: extend assumptions, then decide
            if len(self._trail_lim) < len(assumptions):
                lit = assumptions[len(self._trail_lim)]
                self._ensure_var(abs(lit))
                val = self._value(lit)
                if val == FALSE:
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if val == UNASSIGNED:
                    self._enqueue(lit, None)
                continue
            lit = self._decide()
            if lit == 0:
                return True  # all variables assigned
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _assumption_level(self) -> int:
        return 0

    def reset_to_root(self) -> None:
        """Backtrack to decision level 0.

        Incremental callers (SAT sweeping asks hundreds of small
        queries of one solver) must return to the root level before
        :meth:`add_clause`, since the trail still holds the last
        solve's decisions after a SAT answer.
        """
        self._backtrack(0)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last True solve."""
        return {
            var: self._assign[var] == TRUE
            for var in range(1, self._num_vars + 1)
            if self._assign[var] != UNASSIGNED
        }


def solve_cnf(
    cnf: CNF, assumptions: Sequence[int] = ()
) -> Tuple[bool, Optional[Dict[int, bool]]]:
    """One-shot convenience: returns (is_sat, model or None)."""
    solver = Solver(cnf)
    result = solver.solve(assumptions)
    if result:
        return True, solver.model()
    return False, None
