"""Prescreen/solver agreement: the static prescreen may only *prove*
checks (discharging solver queries), never refute them — so verdicts
must be identical with and without it, while a healthy fraction of
queries is discharged without the solver."""

from repro.harness.counters import collect
from repro.harness.isolation import run_verification_job
from repro.ir.parser import parse_module
from repro.refinement.check import Verdict, VerifyOptions
from repro.suite.knownbugs import KNOWN_BUGS
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus


def _options(enabled: bool) -> VerifyOptions:
    return VerifyOptions(timeout_s=10.0, prescreen=enabled)


def test_knownbugs_verdicts_identical_with_and_without_prescreen():
    for bug in KNOWN_BUGS:
        sm, tm = parse_module(bug.src), parse_module(bug.tgt)
        src, tgt = sm.definitions()[0], tm.definitions()[0]
        with_ps = run_verification_job(src, tgt, sm, tm, _options(True))
        without = run_verification_job(src, tgt, sm, tm, _options(False))
        assert with_ps.verdict is without.verdict, (
            bug.name, with_ps.verdict, without.verdict,
        )


def test_corpus_tallies_identical_and_hit_rate_at_least_10_percent():
    tests = build_corpus(generated=10)
    with collect() as seen:
        with_ps = run_suite(tests, _options(True))
    hits, misses = seen["prescreen.discharged"], seen["prescreen.passed"]
    without = run_suite(tests, _options(False))

    for a, b in zip(with_ps.records, without.records):
        assert a.test == b.test
        assert a.verdicts == b.verdicts, (a.test, a.verdicts, b.verdicts)
    assert with_ps.detected == without.detected
    assert with_ps.missed == without.missed
    assert with_ps.clean_failures == without.clean_failures

    # Acceptance bar: the prescreen discharges >= 10% of all queries.
    assert hits + misses > 0
    assert hits / (hits + misses) >= 0.10, (hits, misses)
    # The counters reach the tally through the records with the same
    # counts a scope around the whole run collects.
    assert with_ps.tally.counters["prescreen.discharged"] == hits
    assert with_ps.tally.counters["prescreen.passed"] == misses
    assert "prescreen.discharged" not in without.tally.counters


def test_prescreen_never_flips_an_incorrect_pair():
    # A buggy pair the solver refutes must stay INCORRECT when the
    # prescreen is on (rules may only prove, never refute).
    src = parse_module(
        """
        define i8 @f(i8 %x) {
        entry:
          %r = add i8 %x, 1
          ret i8 %r
        }
        """
    )
    tgt = parse_module(
        """
        define i8 @f(i8 %x) {
        entry:
          %r = add i8 %x, 2
          ret i8 %r
        }
        """
    )
    result = run_verification_job(
        src.definitions()[0], tgt.definitions()[0], src, tgt, _options(True)
    )
    assert result.verdict is Verdict.INCORRECT
