"""Tests for the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, pct",
    [(11, 9), (20, 50), (77, 87), (100, 90), (1000, 99), (2000, 99.5), (20000, 99.95)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert timing.tail_percentile(n) == pct
    values = list(range(n))
    value = timing.percentile(values, pct)
    assert sum(v > value for v in values) >= timing.TAIL_BEYOND
    finer = [p for p in timing._LADDER if p > pct][0]
    assert sum(v > timing.percentile(values, finer) for v in values) < timing.TAIL_BEYOND


def test_tail_is_undefined_below_eleven_samples():
    assert timing.tail_percentile(10) is None


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert timing.percentile(values, 50) == 3.0
    assert timing.percentile(values, 80) == 4.0
    assert timing.percentile(values, 81) == 5.0


def test_round_pass_time_is_stated_at_nominal_speed():
    rnd = workloads.Round(between_s=0.5, fixed_parts_s={"x": 1.0, "y": 2.5})
    assert rnd.pass_s() == 4.0  # no kernel ran: as measured
    rnd.ref_s = [(0.0, hostspeed.NOMINAL_S * 1.5), (0.0, hostspeed.NOMINAL_S * 2.5)]
    assert rnd.wall_scale == pytest.approx(0.5)
    assert rnd.pass_s() == pytest.approx(2.0)


def test_kernel_reports_its_cpu_and_wall_time_and_leaves_gc_as_found():
    import gc

    assert gc.isenabled()
    cpu, wall = hostspeed.kernel()
    assert gc.isenabled() and 0 < cpu and 0 < wall


def test_ledger_gate_refuses_missing_callables_and_low_coverage():
    assert run.ledger_gate([], 0.97) == []
    assert len(run.ledger_gate(["repro.x:gone"], 0.99)) == 1
    assert "below 95%" in run.ledger_gate([], 0.90)[0]


def test_oracle_flags_a_flipped_verdict():
    tests = workloads.build_inputs("unittests", 0)
    expected = workloads.expected_incorrect("unittests", tests)
    bug = next(name for name, is_bug in expected.items() if is_bug)
    clean = next(name for name, is_bug in expected.items() if not is_bug)
    observed = {name: int(is_bug) for name, is_bug in expected.items()}
    assert workloads.oracle_mismatches(expected, observed) == []
    missed = dict(observed, **{bug: 0})
    assert workloads.oracle_mismatches(expected, missed) == [bug]
    false_alarm = dict(observed, **{clean: 2})
    assert workloads.oracle_mismatches(expected, false_alarm) == [clean]


def test_clean_tiers_expect_no_incorrect_pair():
    wide = workloads.build_inputs("wide-certify", 0)
    assert not any(workloads.expected_incorrect("wide-certify", wide).values())
    apps = workloads.build_inputs("apps", 0)
    assert not any(workloads.expected_incorrect("apps", apps).values())


def test_widen_keeps_every_test():
    tests = workloads.build_inputs("unittests", 3)
    wide = workloads.widen(tests)
    assert [t.name for t in wide] == [t.name for t in tests]
    for test in wide:
        assert bool(re.search(r"\bi8\b", test.ir)) == (test.name in workloads.KEPT_AT_I8)


def test_fixed_inputs_are_the_handwritten_tests_whatever_the_seed():
    fixed = workloads.fixed_inputs("unittests", workloads.build_inputs("unittests", 1))
    assert fixed == workloads.fixed_inputs(
        "wide-certify", workloads.build_inputs("wide-certify", 999)
    )
    assert len(fixed) == 41 and not any(name.startswith("gen-") for name in fixed)


def test_self_times_subtract_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracing.span_calls(spans) == {"a": 1, "b": 2, "c": 1}


def _current_callables():
    found = {}
    for _, path, _, _ in tracing.SPAN_TABLE:
        try:
            owner, attr = tracing.resolve(path)
        except (ImportError, AttributeError):
            continue
        found[path] = (attr in vars(owner), getattr(owner, attr))
    return found


def test_every_wrapper_is_removed_after_a_traced_round(tmp_path):
    tests = workloads.build_inputs("unittests", 0)[:4]
    probes = {
        path: getattr(*tracing.resolve(path))
        for path in (
            "repro.suite.runner:run_verification_job",
            "repro.harness.faults:current_test",
        )
    }
    rec = tracing.Recorder()
    rec.install_probes()
    try:
        before = _current_callables()
        assert rec.start_tracing() == []
        try:
            rnd = workloads.run_round("unittests", tests, rec, str(tmp_path), 0)
        finally:
            rec.stop_tracing()
        assert _current_callables() == before
    finally:
        rec.remove_probes()
    assert {p: getattr(*tracing.resolve(p)) for p in probes} == probes
    layers = {span[0] for span in rec.spans}
    assert {"harness", "refinement", "ir.parse", "opt.passes"} <= layers
    assert rnd.pairs == len(rec.pair_samples) > 0
    assert rnd.wrong == []


def test_pooled_round_gathers_worker_measurements(tmp_path):
    tests = workloads.build_inputs("unittests", 0)[:4]
    rec = tracing.Recorder()
    rec.install_probes()
    rec.calibrate = True
    try:
        rnd = workloads.run_round("pooled", tests, rec, str(tmp_path), 0)
    finally:
        rec.remove_probes()
    pairs = [pair for entry in rnd.worker_entries for pair, _ in entry["pairs"]]
    assert len(pairs) == rnd.pairs > 0
    assert {p.split(":")[0] for p in pairs} == {"cold", "warm"}
    assert rnd.child_rss_kb > 0 and rnd.warm_lookups > 0
    assert len(rnd.ref_s) == 2 * len(tests)  # one kernel per test and pass
    assert list(tmp_path.iterdir()) == []


def test_sequential_round_leaves_the_kernel_out_of_test_times(tmp_path):
    tests = workloads.build_inputs("unittests", 0)[:4]
    rec = tracing.Recorder()
    rec.install_probes()
    rec.calibrate = True
    try:
        rnd = workloads.run_round("unittests", tests, rec, str(tmp_path), 0)
    finally:
        rec.remove_probes()
    assert len(rnd.ref_s) == len(tests) and rec.ref_samples == []
    assert set(rnd.fixed_parts_s) == {t.name for t in tests}
    assert sum(rnd.fixed_parts_s.values()) < rnd.busy_s
