"""Per-verification counters (``repro.harness.counters``).

Every layer bumps named counters into the innermost open scope; a
verification job's counts ride on ``RefinementResult.counters`` into the
test record and the tally.  These tests pin the collector's scoping
rules, the two-file checker's summary, and that each execution path —
in-process, cold pool, warm pool, journal replay — reports the same
counts with nothing carried from one test to the next.
"""

import threading

from repro.engine.warmpool import WarmPool
from repro.harness.counters import bump, collect
from repro.refinement.check import VerifyOptions
from repro.suite.runner import run_suite
from repro.suite.unittests import UNIT_TESTS
from repro.tv.alive_tv import main as alive_tv_main
from repro.tv.alive_tv import validate_texts

OPTS = VerifyOptions(timeout_s=10.0)

_SRC = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = add i8 %a, %b\n  ret i8 %x\n}\n"
_TGT = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = add i8 %b, %a\n  ret i8 %x\n}\n"


def test_bump_outside_a_scope_does_nothing():
    bump("x.y")
    with collect() as seen:
        pass
    assert seen == {}


def test_inner_scope_adds_into_the_enclosing_one_even_on_error():
    with collect() as outer:
        bump("a")
        try:
            with collect() as inner:
                bump("a", 2)
                bump("b")
                raise RuntimeError
        except RuntimeError:
            pass
        bump("zero", 0)
    assert inner == {"a": 2, "b": 1}
    assert outer == {"a": 3, "b": 1}


def test_scopes_are_per_thread():
    seen_in_thread = {}

    def work():
        bump("elsewhere")
        with collect() as seen:
            bump("there")
        seen_in_thread.update(seen)

    with collect() as here:
        bump("here")
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
    assert here == {"here": 1}
    assert seen_in_thread == {"there": 1}


def test_alive_tv_report_counts_prescreen_discharges(tmp_path, capsys):
    report = validate_texts(_SRC, _TGT, OPTS)
    counters = report.tally.counters
    assert counters["prescreen.discharged"] == 5
    assert counters["prescreen.relational-equal"] == 2
    assert "[prescreen: 5 discharged / 0 passed to solver" in report.summary()

    src, tgt = tmp_path / "src.ll", tmp_path / "tgt.ll"
    src.write_text(_SRC)
    tgt.write_text(_TGT)
    assert alive_tv_main([str(src), str(tgt)]) == 0
    assert "[prescreen: 5 discharged" in capsys.readouterr().out


def test_warm_worker_gives_each_test_fresh_counts():
    # The same test twice in one warm worker: its memo tables and term
    # universe are warm the second time, and the counts must not notice.
    test = {t.name: t for t in UNIT_TESTS}["combine-add-self"]
    fresh = run_suite([test], OPTS, jobs=1).records[0]
    assert fresh.counters["prescreen.discharged"] > 0
    assert fresh.counters["smt.checks"] > 0
    with WarmPool(jobs=1) as pool:
        warm = run_suite([UNIT_TESTS[0], test, test], OPTS, warm_pool=pool)
    assert len({r.worker for r in warm.records}) == 1
    assert warm.records[1].counters == fresh.counters
    assert warm.records[2].counters == fresh.counters


def test_tally_counters_equal_across_execution_paths(tmp_path):
    tests = UNIT_TESTS[:16]
    journal = tmp_path / "run.jsonl"
    seq = run_suite(tests, OPTS, jobs=1, journal=journal)
    for key in ("prescreen.discharged", "egraph.shrunk", "smt.checks"):
        assert seq.tally.counters[key] > 0, key
    replayed = run_suite(tests, OPTS, jobs=1, journal=journal)
    assert replayed.resumed == len(tests)
    par = run_suite(tests, OPTS, jobs=2)
    with WarmPool(jobs=2) as pool:
        warm = run_suite(tests, OPTS, warm_pool=pool)
    assert replayed.tally.counters == seq.tally.counters
    assert par.tally.counters == seq.tally.counters
    assert warm.tally.counters == seq.tally.counters
