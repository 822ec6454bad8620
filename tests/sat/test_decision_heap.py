"""The solver's decision heap makes exactly the linear scan's decisions.

:class:`ScanSolver` keeps the decision rule the heap replaced, verbatim:
scan the preferred variables, then every variable, for the unassigned
one with the highest activity (lowest index on ties).  On random CNFs
both solvers must make the same decision sequence and return the same
answers and models, through preferred sets (set twice), explicit bumps,
assumptions, conflict limits and activity rescales.
"""

import random

import pytest

from repro.sat import CNF, Solver
from repro.sat.solver import UNASSIGNED


class ScanSolver(Solver):
    """The linear-scan decision rule, kept as the heap's reference."""

    def _decide(self) -> int:
        best, best_act = 0, -1.0
        for var in self._preferred:
            if self._assign[var] == UNASSIGNED:
                act = self._activity[var]
                if act > best_act:
                    best, best_act = var, act
        if best == 0:
            for var in range(1, self._num_vars + 1):
                if self._assign[var] == UNASSIGNED:
                    act = self._activity[var]
                    if act > best_act:
                        best, best_act = var, act
        if best == 0:
            return 0
        return best if self._phase[best] else -best


class _Recording:
    def _decide(self) -> int:
        lit = super()._decide()
        self.decisions.append(lit)
        return lit


class RecordingHeap(_Recording, Solver):
    pass


class RecordingScan(_Recording, ScanSolver):
    pass


def _random_cnf(rng, num_vars, num_clauses):
    cnf = CNF()
    cnf.num_vars = num_vars
    for _ in range(num_clauses):
        width = rng.randint(1, 4) if rng.random() < 0.1 else rng.randint(2, 4)
        cnf.add_clause(
            rng.choice((1, -1)) * rng.randint(1, num_vars)
            for _ in range(width)
        )
    return cnf


def _random_3sat(rng, num_vars, num_clauses):
    """Uniform random 3-SAT near the threshold: no units, so searches
    meet conflicts."""
    cnf = CNF()
    cnf.num_vars = num_vars
    for _ in range(num_clauses):
        cnf.add_clause(
            rng.choice((1, -1)) * v
            for v in rng.sample(range(1, num_vars + 1), 3)
        )
    return cnf


def _pair(cnf):
    heap, scan = RecordingHeap(cnf), RecordingScan(cnf)
    heap.decisions, scan.decisions = [], []
    return heap, scan


def _both(heap, scan, action):
    action(heap)
    action(scan)


def _solve_both(heap, scan, assumptions=(), conflict_limit=None):
    a = heap.solve(assumptions, conflict_limit=conflict_limit)
    b = scan.solve(assumptions, conflict_limit=conflict_limit)
    assert a == b
    assert heap.decisions == scan.decisions
    if a:
        assert heap.model() == scan.model()
    return a


@pytest.mark.parametrize("batch", range(6))
def test_heap_decides_as_the_scan(batch):
    rng = random.Random(batch)
    for index in range(60):
        num_vars = rng.randint(3, 40)
        if index % 2:
            cnf = _random_3sat(rng, num_vars, round(4.2 * num_vars))
        else:
            cnf = _random_cnf(
                rng, num_vars, rng.randint(num_vars, 5 * num_vars)
            )
        heap, scan = _pair(cnf)
        if rng.random() < 0.5:
            preferred = rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars)
            )
            _both(heap, scan, lambda s: s.prefer_variables(preferred))
        for var in rng.sample(range(1, num_vars + 1), rng.randint(0, 3)):
            amount = rng.choice([0.0, 0.5, 1.0, 3.0])
            _both(heap, scan, lambda s: s.bump_variable(var, amount))
        assumptions = [
            rng.choice((1, -1)) * v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
        ]
        limit = rng.choice([None, None, 1, 5])
        _solve_both(heap, scan, assumptions, limit)
        # a second solve on the same instance: learned clauses, saved
        # phases, bumped activities and possibly a new preferred set
        if rng.random() < 0.5:
            preferred = rng.sample(range(1, num_vars + 1), 2)
            _both(heap, scan, lambda s: s.prefer_variables(preferred))
        _solve_both(heap, scan, assumptions[:1])


def test_prefer_variables_twice_replaces_the_set():
    rng = random.Random(7)
    for _ in range(40):
        cnf = _random_cnf(rng, 20, 60)
        heap, scan = _pair(cnf)
        _both(heap, scan, lambda s: s.prefer_variables([3, 5, 7]))
        _both(heap, scan, lambda s: s.prefer_variables([2, 19]))
        _solve_both(heap, scan)
        assert heap._preferred == [2, 19]


def test_activity_rescale_keeps_the_same_decisions():
    rng = random.Random(11)
    rescaled = 0
    for _ in range(40):
        cnf = _random_3sat(rng, 30, 128)
        heap, scan = _pair(cnf)
        # start each search near the rescale threshold, so conflicts
        # push an activity over 1e100 and the heap is rebuilt mid-search
        _both(heap, scan, lambda s: setattr(s, "_var_inc", 3e99))
        _solve_both(heap, scan)
        _solve_both(heap, scan, [rng.choice((1, -1)) * rng.randint(1, 30)])
        rescaled += heap._var_inc < 1e90
    assert rescaled, "no instance rescaled its activities"


def test_new_variables_join_the_heap():
    """Variables allocated between solves (incremental callers add
    clauses and queries at the root) are decided like the scan's."""
    rng = random.Random(5)
    for _ in range(30):
        cnf = _random_cnf(rng, 15, 45)
        heap, scan = _pair(cnf)
        _solve_both(heap, scan)
        for s in (heap, scan):
            s.reset_to_root()
        act_heap, act_scan = heap.new_var(), scan.new_var()
        assert act_heap == act_scan
        extra = _random_cnf(rng, 20, 10)
        for clause in extra.clauses:
            for s in (heap, scan):
                s.add_clause(list(clause) + [-act_heap])
        _solve_both(heap, scan, [act_heap])
