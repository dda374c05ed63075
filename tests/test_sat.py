"""Unit tests for the CDCL SAT solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SatResult, SatSolver
from repro.sat.solver import Budget, _luby


def test_empty_formula_is_sat():
    s = SatSolver()
    assert s.solve() is SatResult.SAT


def test_unit_clause():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a])
    assert s.solve() is SatResult.SAT
    assert s.model_value(a) is True
    assert s.model_value(-a) is False


def test_contradiction():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a])
    s.add_clause([-a])
    assert s.solve() is SatResult.UNSAT


def test_simple_implication_chain():
    s = SatSolver()
    vs = [s.new_var() for _ in range(10)]
    s.add_clause([vs[0]])
    for i in range(9):
        s.add_clause([-vs[i], vs[i + 1]])
    assert s.solve() is SatResult.SAT
    assert all(s.model_value(v) for v in vs)


def test_tautology_is_dropped():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a, -a])
    assert s.solve() is SatResult.SAT


def test_duplicate_literals_merged():
    s = SatSolver()
    a = s.new_var()
    b = s.new_var()
    s.add_clause([a, a, b])
    s.add_clause([-a])
    assert s.solve() is SatResult.SAT
    assert s.model_value(b)


def _pigeonhole(s, pigeons, holes):
    var = {(p, h): s.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])


def test_pigeonhole_3_into_2_unsat():
    # 3 pigeons, 2 holes: classic small UNSAT instance exercising learning.
    s = SatSolver()
    _pigeonhole(s, 3, 2)
    assert s.solve() is SatResult.UNSAT


def test_pigeonhole_5_into_4_unsat():
    s = SatSolver()
    _pigeonhole(s, 5, 4)
    assert s.solve() is SatResult.UNSAT


def test_assumptions_sat_and_unsat():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    assert s.solve(assumptions=[-a]) is SatResult.SAT
    assert s.model_value(b)
    s.add_clause([-b])
    assert s.solve(assumptions=[-a]) is SatResult.UNSAT
    # The solver is still usable and SAT without assumptions.
    assert s.solve() is SatResult.SAT
    assert s.model_value(a)


def test_assumptions_do_not_persist():
    s = SatSolver()
    a = s.new_var()
    assert s.solve(assumptions=[-a]) is SatResult.SAT
    assert s.solve(assumptions=[a]) is SatResult.SAT


def test_conflict_budget_returns_unknown():
    # A hard pigeonhole instance with a 1-conflict budget must give up.
    s = SatSolver()
    _pigeonhole(s, 6, 5)
    result = s.solve(budget=Budget(max_conflicts=1))
    assert result is SatResult.UNKNOWN
    assert s.stats.unknown_reason == "conflicts"


def test_luby_sequence_prefix():
    assert [_luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


def _random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        lits = set()
        while len(lits) < width:
            v = rng.randint(1, num_vars)
            lits.add(v if rng.random() < 0.5 else -v)
        clauses.append(sorted(lits, key=abs))
    return clauses


def _brute_force_sat(num_vars, clauses):
    for bits in range(1 << num_vars):
        ok = True
        for clause in clauses:
            if not any(
                ((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("seed", range(12))
def test_random_cnf_against_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(4, 9)
    num_clauses = rng.randint(num_vars, 5 * num_vars)
    clauses = _random_cnf(rng, num_vars, num_clauses)
    s = SatSolver()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    expected = _brute_force_sat(num_vars, clauses)
    result = s.solve()
    assert result is (SatResult.SAT if expected else SatResult.UNSAT)
    if result is SatResult.SAT:
        for clause in clauses:
            assert any(s.model_value(l) for l in clause)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_cnf_model_satisfies_clauses(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(3, 14)
    clauses = _random_cnf(rng, num_vars, rng.randint(2, 4 * num_vars))
    s = SatSolver()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    if s.solve() is SatResult.SAT:
        for clause in clauses:
            assert any(s.model_value(l) for l in clause)


def test_incremental_use_after_unsat_assumptions():
    s = SatSolver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([-a, c])
    assert s.solve(assumptions=[a, -c]) is SatResult.UNSAT
    assert s.solve(assumptions=[a]) is SatResult.SAT
    assert s.model_value(c)


def test_incremental_assumption_answers_match_brute_force():
    # One solver, many queries under assumptions, clauses added between
    # them.  Assumption-UNSAT core extraction once left a conflict-analysis
    # mark behind, which later dropped literals from learned clauses
    # (wrong UNSAT answers) or crashed the analysis.
    rng = random.Random(1)
    unsat = 0
    for _ in range(100):
        num_vars = rng.randint(6, 9)
        clauses = _random_cnf(rng, num_vars, 3 * num_vars)
        s = SatSolver()
        s.ensure_vars(num_vars)
        for c in clauses:
            s.add_clause(c)
        for _ in range(8):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)
            ]
            fixed = clauses + [[lit] for lit in assumptions]
            if s.solve(assumptions=assumptions) is SatResult.SAT:
                for clause in fixed:
                    assert any(s.model_value(l) for l in clause)
            else:
                unsat += 1
                assert not _brute_force_sat(num_vars, fixed)
            more = _random_cnf(rng, num_vars, 2)
            clauses += more
            for c in more:
                s.add_clause(c)
    assert unsat > 100


# -- search identity ----------------------------------------------------------
# Figures recorded before the propagation loop and the branching heap were
# reworked for speed: those changes must not alter a single search step.


def _search(s):
    st = s.stats
    return st.conflicts, st.decisions, st.propagations, st.restarts, st.deleted


def test_search_is_pinned_and_order_heap_bounded(monkeypatch):
    s = SatSolver()
    _pigeonhole(s, 7, 6)
    assert s.solve() is SatResult.UNSAT
    assert _search(s) == (932, 1212, 12158, 14, 0)

    # 8 pigeons, 7 holes: 75 restarts and learned-clause reductions.  The heap holds
    # one live entry per variable plus stale ones bumps leave behind, and
    # is rebuilt past twice the variable count.
    peak = 0
    backtrack = SatSolver._backtrack

    def recording_backtrack(self, level):
        nonlocal peak
        backtrack(self, level)
        peak = max(peak, len(self._order_heap))

    monkeypatch.setattr(SatSolver, "_backtrack", recording_backtrack)
    s = SatSolver()
    _pigeonhole(s, 8, 7)
    assert s.solve() is SatResult.UNSAT
    assert _search(s) == (6758, 8931, 102590, 75, 4448)
    assert 0 < peak <= 2 * s.num_vars


def test_search_is_pinned_on_certified_i16_query(monkeypatch):
    import dataclasses
    import re

    from repro.refinement.check import VerifyOptions
    from repro.suite.runner import _run_one_test
    from repro.suite.unittests import build_corpus

    solvers = []
    init = SatSolver.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    monkeypatch.setattr(SatSolver, "__init__", recording_init)
    test = {t.name: t for t in build_corpus()}["simplify-max-pattern"]
    test = dataclasses.replace(test, ir=re.sub(r"\bi8\b", "i16", test.ir))
    record = _run_one_test(
        test, VerifyOptions(unroll_factor=8, certify=True), False, 1, None
    )
    assert record.verdicts == {"correct": 2}
    assert record.certified_unsat == 1 and record.cert_failures == 0
    searched = [
        (s.stats.conflicts, s.stats.decisions, s.stats.propagations)
        for s in solvers
        if s.stats.propagations
    ]
    assert searched == [(114, 447, 14390)]
