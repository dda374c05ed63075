"""Tests for the CEGAR exists-forall solver."""

from repro.smt import terms as T
from repro.smt.exists_forall import (
    EFResult,
    QuantVar,
    solve_exists_forall,
)
from repro.smt.solver import ResourceLimits

W = 4


def test_no_witness_when_psi_always_satisfiable():
    # exists x. true and forall y. not (y == x) -- false: pick y = x.
    x = T.bv_var("x", W)
    y = T.bv_var("y", W)
    out = solve_exists_forall(T.TRUE, T.bv_eq(y, x), [QuantVar("y", W)])
    assert out.result is EFResult.UNSAT


def test_witness_when_psi_unsatisfiable_for_some_x():
    # exists x. true and forall y. not (y + y == x):
    # witness: any odd x (y + y is always even).
    x = T.bv_var("x", W)
    y = T.bv_var("y", W)
    psi = T.bv_eq(T.bv_add(y, y), x)
    out = solve_exists_forall(T.TRUE, psi, [QuantVar("y", W)])
    assert out.result is EFResult.SAT
    assert out.model["x"] % 2 == 1


def test_phi_constrains_witness():
    # Same as above but phi forces x even => no witness exists.
    x = T.bv_var("x", W)
    y = T.bv_var("y", W)
    phi = T.bv_eq(T.bv_and(x, T.bv_const(1, W)), T.bv_const(0, W))
    psi = T.bv_eq(T.bv_add(y, y), x)
    out = solve_exists_forall(phi, psi, [QuantVar("y", W)])
    assert out.result is EFResult.UNSAT


def test_multiple_forall_vars():
    # forall y z. not (y & z == x) has no witness (take y = z = x).
    x = T.bv_var("x", W)
    y = T.bv_var("y", W)
    z = T.bv_var("z", W)
    psi = T.bv_eq(T.bv_and(y, z), x)
    out = solve_exists_forall(
        T.TRUE, psi, [QuantVar("y", W), QuantVar("z", W)]
    )
    assert out.result is EFResult.UNSAT


def test_boolean_forall_var():
    # exists b. forall c. not (c == b) is false over booleans.
    b = T.bool_var("b")
    c = T.bool_var("c")
    psi = T.bool_not(T.bool_xor(b, c))
    out = solve_exists_forall(T.TRUE, psi, [QuantVar("c", 0)])
    assert out.result is EFResult.UNSAT


def test_witness_with_boolean_forall():
    # psi := c and not c  is unsatisfiable, so any x is a witness.
    c = T.bool_var("c")
    psi = T.bool_and(c, T.bool_not(c))
    out = solve_exists_forall(T.TRUE, psi, [QuantVar("c", 0)])
    assert out.result is EFResult.SAT


def test_iteration_counting():
    x = T.bv_var("x", W)
    y = T.bv_var("y", W)
    psi = T.bv_eq(y, x)
    out = solve_exists_forall(T.TRUE, psi, [QuantVar("y", W)])
    assert out.iterations >= 1


def test_timeout_budget():
    x = T.bv_var("tx", 10)
    y = T.bv_var("ty", 10)
    psi = T.bv_eq(T.bv_mul(y, y), x)
    out = solve_exists_forall(
        T.TRUE,
        psi,
        [QuantVar("ty", 10)],
        limits=ResourceLimits(timeout_s=0.0),
    )
    assert out.result is EFResult.TIMEOUT


def test_refinement_shaped_query():
    """A miniature of the real refinement query: tgt = x+1, src = x+1."""
    x = T.bv_var("inp", W)
    out_v = T.bv_var("out", W)
    # phi: target produced out = x + 1
    phi = T.bv_eq(out_v, T.bv_add(x, T.bv_const(1, W)))
    # psi: source can produce out (same function, no nondeterminism)
    psi = T.bv_eq(out_v, T.bv_add(x, T.bv_const(1, W)))
    res = solve_exists_forall(phi, psi, [])
    assert res.result is EFResult.UNSAT


def test_refinement_shaped_query_with_bug():
    """tgt = x | 1 does not refine src = x + 1 (e.g. x = 1)."""
    x = T.bv_var("inp", W)
    out_v = T.bv_var("out", W)
    phi = T.bv_eq(out_v, T.bv_or(x, T.bv_const(1, W)))
    psi = T.bv_eq(out_v, T.bv_add(x, T.bv_const(1, W)))
    res = solve_exists_forall(phi, psi, [])
    assert res.result is EFResult.SAT
    x_val = res.model["inp"]
    assert (x_val | 1) != (x_val + 1) % (1 << W)


def test_nondeterministic_source_refines():
    """src = undef (any value), tgt = 7: every output of tgt is producible."""
    out_v = T.bv_var("out", W)
    n = T.bv_var("n_src", W)
    phi = T.bv_eq(out_v, T.bv_const(7, W))
    psi = T.bv_eq(out_v, n)  # source can output any n
    res = solve_exists_forall(phi, psi, [QuantVar("n_src", W)])
    assert res.result is EFResult.UNSAT


def test_nondeterminism_cannot_be_added():
    """src = 7, tgt = undef: target has outputs the source cannot make."""
    out_v = T.bv_var("out", W)
    n = T.bv_var("n_tgt", W)
    phi = T.bv_eq(out_v, n)  # target outputs anything
    psi = T.bv_eq(out_v, T.bv_const(7, W))
    res = solve_exists_forall(phi, psi, [])
    assert res.result is EFResult.SAT
    assert res.model["out"] != 7


_HASH_SEED_PROBE = """
from repro.refinement.check import VerifyOptions
from repro.sat.solver import SatSolver
from repro.suite.runner import _run_one_test
from repro.suite.unittests import build_corpus

solvers = []
init = SatSolver.__init__

def recording_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    solvers.append(self)

SatSolver.__init__ = recording_init
corpus = {t.name: t for t in build_corpus()}
for name in ("bug-licm-div", "bug-load-forward-across-clobber"):
    solvers.clear()
    record = _run_one_test(corpus[name], VerifyOptions(), True, 1, None)
    print(name, sorted(record.verdicts.items()),
          sum(s.stats.conflicts for s in solvers),
          sum(s.stats.propagations for s in solvers))
"""


def test_search_does_not_depend_on_hash_seed():
    # The CEGAR loop pins the candidate's existentials with assumptions;
    # taken in a frozenset's order, they (and the search) moved with
    # PYTHONHASHSEED.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(run.stdout)
    assert "incorrect" in outputs[0]
    assert outputs[0] == outputs[1]
