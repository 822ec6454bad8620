"""Solve calls through the work-counter registry: windows report
deltas, nested windows agree, and only declared names count."""

import pytest

from repro.atpg import PROOF_COUNTERS
from repro.atpg.redundancy import ORACLE_COUNTERS
from repro.counters import GLOSSARY, Window, count
from repro.net import ARENA_COUNTERS
from repro.sat import CNF, Solver
from repro.sim.kernel import WORK_COUNTERS


def _one_solve():
    cnf = CNF()
    v = cnf.new_var()
    cnf.add_clause((v,))
    Solver(cnf).solve()


def test_tracker_counts_deltas_not_globals():
    _one_solve()  # work before the window opened must not leak in
    window = Window()
    assert window.delta()["sat_calls"] == 0
    _one_solve()
    _one_solve()
    assert window.delta()["sat_calls"] == 2


def test_nested_windows_agree():
    outer = Window()
    _one_solve()
    inner = Window()
    _one_solve()
    assert inner.delta()["sat_calls"] == 1
    _one_solve()
    assert inner.delta()["sat_calls"] == 2
    # the outer window sees the inner one's work plus its own
    outer_delta = outer.delta()
    inner_delta = inner.delta()
    assert outer_delta["sat_calls"] == inner_delta["sat_calls"] + 1
    assert all(outer_delta[k] >= inner_delta[k] for k in GLOSSARY)


def test_global_counter_still_monotonic():
    window = Window()
    _one_solve()
    delta = window.delta()
    assert delta["sat_calls"] == 1
    assert list(delta) == list(GLOSSARY)
    assert all(value >= 0 for value in delta.values())


def test_count_rejects_an_undeclared_name():
    window = Window()
    with pytest.raises(KeyError, match="undeclared work counter"):
        count("sat_call")  # a typo of sat_calls
    assert not any(window.delta().values())


def test_every_name_group_is_declared():
    for group in (WORK_COUNTERS, PROOF_COUNTERS, ORACLE_COUNTERS,
                  ARENA_COUNTERS):
        assert set(group) <= set(GLOSSARY), group
