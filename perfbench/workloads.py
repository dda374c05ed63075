"""The four workloads (unittests, apps, wide-certify, pooled): inputs generated from the seed, one measured round
each, and the known-answer oracle every verdict is checked against.

Importing this module imports the validator; the set-up probe times
exactly that plus :func:`build_inputs`.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import shutil
import statistics
import time
from typing import Dict, List, Set, Tuple

import hostspeed

from repro.analysis.verify import ERROR, lint_function
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.refinement.check import Verdict, VerifyOptions
from repro.smt.terms import reset_interning
from repro.suite.apps import APP_SPECS, O3_PIPELINE
from repro.suite.genir import FunctionGenerator
from repro.suite.runner import SuiteOutcome, run_suite
from repro.suite.unittests import UnitTest, build_corpus
from repro.tv.plugin import validate_pipeline

from tracing import Recorder, read_worker_files

#: Seeded generated tests added to the 41 handwritten ones.
GENERATED_TESTS = 24
#: Worker processes on ``pooled`` (one per core of a 2-core machine).
POOL_JOBS = 2
#: Divisor of each app's function count.  At full size one pass takes
#: 28-45 s on a 2-core machine, longer than a run; snapshot cost grows
#: with functions squared, so half the functions keeps it dominant.
APP_SCALE = 2
#: Query-cache shard files on ``pooled``: the ``alive-suite`` default,
#: under which each worker loads and appends only its own shards.
CACHE_SHARDS = 8
#: Unroll factor of the harder tier (the default is 4).
WIDE_UNROLL = 8

#: Verdicts that count as a failed pair: the validator gave no answer.
FAILED_VERDICTS = frozenset(
    v.value for v in (Verdict.TIMEOUT, Verdict.OOM, Verdict.CRASH, Verdict.SOLVER_UNSOUND)
)

_I8 = re.compile(r"\bi8\b")


#: Tests that cannot be written at i16 and stay at i8 on the harder tier:
#: ``half`` is 8 bits wide in this IR, so a ``bitcast half`` to i16 is
#: ill-formed.
KEPT_AT_I8 = frozenset({"bug-bitcast-rematerialization"})


def widen(tests: List[UnitTest]) -> List[UnitTest]:
    """The harder tier: every ``i8`` becomes ``i16`` and injected bugs are
    dropped.  Raises if a rewritten test outside :data:`KEPT_AT_I8` no
    longer parses or lints clean, so no test leaves the tier unnoticed."""
    out = []
    for test in tests:
        ir = _I8.sub("i16", test.ir)
        module = parse_module(ir)
        for fn in module.definitions():
            errors = [d for d in lint_function(fn, module) if d.level == ERROR]
            if errors and test.name in KEPT_AT_I8:
                ir = test.ir
                break
            if errors:
                raise ValueError(f"{test.name} at i16 does not lint: {errors[0]}")
        out.append(
            dataclasses.replace(
                test, ir=ir, bug_option=None, category=None, buggy_target=None
            )
        )
    return out


def build_apps(seed: int) -> List[Tuple[str, Module]]:
    """The five Fig-7 stand-ins (names, feature mix and :data:`APP_SCALE`
    of the function counts of ``APP_SPECS``).  Function ``i`` of an app
    comes from generator seed ``1000 * spec.seed + seed + i``, so, as in
    ``build_corpus``, the next benchmark seed shifts each app by one
    function instead of replacing it."""
    apps = []
    for spec in APP_SPECS:
        parts = [
            FunctionGenerator(
                random.Random(1000 * spec.seed + seed + i), spec.config
            ).generate(f"fn{i}")
            for i in range(max(1, spec.functions // APP_SCALE))
        ]
        apps.append((spec.name, parse_module("\n\n".join(parts))))
    return apps


def build_inputs(workload: str, seed: int):
    if workload == "apps":
        return build_apps(seed)
    tests = build_corpus(GENERATED_TESTS, seed)
    if workload == "wide-certify":
        return widen(tests)
    return tests


def fixed_inputs(workload: str, inputs) -> List[str]:
    """The tests whose content the seed does not change: the handwritten
    tests of the corpus.  Every function of an app comes from the seed,
    so on ``apps`` this is every app."""
    if workload == "apps":
        return [name for name, _ in inputs]
    handwritten = {t.name for t in build_corpus(0)}
    return [t.name for t in inputs if t.name in handwritten]


def expected_incorrect(workload: str, inputs) -> Dict[str, bool]:
    """The known answer per test or app, taken from how the input was
    made, never from the validator: only an injected bug is INCORRECT."""
    if workload == "apps":
        return {name: False for name, _ in inputs}
    inject = workload != "wide-certify"
    return {
        t.name: inject and (t.bug_option is not None or t.buggy_target is not None)
        for t in inputs
    }


def oracle_mismatches(expected: Dict[str, bool], incorrect: Dict[str, int]) -> List[str]:
    """Names whose INCORRECT pair count contradicts the known answer: a
    bug with no INCORRECT pair, or a clean input with one."""
    return [
        name for name, bug in expected.items() if (incorrect.get(name, 0) > 0) != bug
    ]


@dataclasses.dataclass
class Round:
    """One measured unit of work: a pass over the inputs (two passes,
    cold then warm cache, on ``pooled``)."""

    pairs: int = 0
    failed: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0  # summed per-test (per-app) time inside the round
    #: The part of the round that :func:`fixed_inputs` names, the same
    #: whatever the seed: its pairs that reached a verdict, and the
    #: wall-clock seconds of its consecutive parts, which are each such
    #: test (app) on the sequential workloads and, on ``pooled``, the
    #: ``run_suite`` call over those tests in each pass.
    fixed_verdicts: int = 0
    fixed_parts_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    between_s: float = 0.0  # sequential workloads: wall-clock outside every test
    workers: int = 1
    wrong: List[str] = dataclasses.field(default_factory=list)
    warm_hits: int = 0
    warm_lookups: int = 0
    child_rss_kb: int = 0  # summed post-fork RSS growth of one pass's pool workers
    worker_entries: List[dict] = dataclasses.field(default_factory=list)
    #: (CPU, wall-clock) seconds of each reference-kernel call in the
    #: round (untraced runs; one per test, in the process that ran it).
    ref_s: List[Tuple[float, float]] = dataclasses.field(default_factory=list)
    #: Per test (pass prefix + name, as in pair ids): the factor from
    #: CPU times to the nominal speed, from the kernel calls of that test
    #: and of the tests run before and after it in the same process.
    local_scale: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def wall_scale(self) -> float:
        """Factor from this round's wall-clock times to times at the
        nominal host speed (see ``hostspeed.py``); 1.0 when no kernel
        ran.  The kernel's wall-clock time, like the round's, includes
        what the hypervisor stole."""
        return hostspeed.scale([wall for _, wall in self.ref_s])

    def pass_s(self) -> float:
        """Wall-clock seconds of the part :func:`fixed_inputs` names, at
        the nominal host speed."""
        return (self.between_s + sum(self.fixed_parts_s.values())) * self.wall_scale


def _take_kernel_calls(rnd: Round, samples: List[Tuple[str, float, float]]) -> Dict[str, float]:
    """Move the reference-kernel calls one process made, in order, into
    ``rnd``; returns each test's kernel wall-clock seconds, which the
    test's own time left out.

    A job's speed is judged from the kernel calls of its test and of its
    neighbours: one 2-ms call may catch an interrupt, which the median of
    three leaves out.  Over one wide-certify run split five ways, that cut
    the spread of ``pair_p50_ms`` to a third of what the round's mean
    speed left."""
    walls: Dict[str, float] = {}
    cpus = [cpu for _, cpu, _ in samples]
    for i, (test, cpu, wall) in enumerate(samples):
        rnd.ref_s.append((cpu, wall))
        near = cpus[max(0, i - 1) : i + 2]
        rnd.local_scale[test] = hostspeed.NOMINAL_S / statistics.median(near)
        walls[test] = walls.get(test, 0.0) + wall
    return walls


def _count(rnd: Round, name: str, verdicts: Dict[str, int], fixed: Set[str]) -> None:
    for verdict, n in verdicts.items():
        rnd.pairs += n
        if verdict in FAILED_VERDICTS:
            rnd.failed += n
        elif name in fixed:
            rnd.fixed_verdicts += n


def _suite_pass(
    rnd: Round, expected: Dict[str, bool], fixed: Set[str], tests, options,
    inject: bool, **kw
) -> Tuple[SuiteOutcome, float]:
    """Run ``tests`` through ``run_suite``, count and check its verdicts;
    returns the outcome and the call's wall-clock seconds."""
    t0 = time.perf_counter()
    outcome = run_suite(tests, options, inject_bugs=inject, **kw)
    outcome.summary_rows()  # the report the CLI prints
    wall = time.perf_counter() - t0
    rnd.wall_s += wall
    incorrect: Dict[str, int] = {}
    for record in outcome.records:
        _count(rnd, record.test, record.verdicts, fixed)
        rnd.busy_s += record.elapsed_s
        incorrect[record.test] = incorrect.get(record.test, 0) + record.verdicts.get(
            Verdict.INCORRECT.value, 0
        )
    rnd.wrong.extend(oracle_mismatches({t.name: expected[t.name] for t in tests}, incorrect))
    return outcome, wall


def _sequential_pass(
    rnd: Round, rec: Recorder, expected, fixed: Set[str], tests, options, inject: bool
) -> None:
    outcome, wall = _suite_pass(rnd, expected, fixed, tests, options, inject, jobs=1)
    rnd.between_s = wall - rnd.busy_s
    kernel = _take_kernel_calls(rnd, rec.ref_samples)
    rec.ref_samples = []
    for record in outcome.records:
        if record.test in fixed:
            rnd.fixed_parts_s[record.test] = record.elapsed_s - kernel.get(record.test, 0.0)


def run_round(workload: str, inputs, rec: Recorder, workdir: str, index: int) -> Round:
    """Run one round; the term intern table starts empty, as in a fresh
    process."""
    reset_interning()
    rec.ref_samples = []
    expected = expected_incorrect(workload, inputs)
    fixed = set(fixed_inputs(workload, inputs))
    rnd = Round()
    if workload == "apps":
        options = VerifyOptions()
        incorrect = {}
        t0 = time.perf_counter()
        for name, module in inputs:
            rec.begin_test(name)
            t1 = time.perf_counter()
            report = validate_pipeline(module, O3_PIPELINE, options)
            rnd.fixed_parts_s[name] = time.perf_counter() - t1
            rnd.busy_s += rnd.fixed_parts_s[name]
            verdicts: Dict[str, int] = {}
            for r in report.records:
                v = r.result.verdict.value
                verdicts[v] = verdicts.get(v, 0) + 1
            _count(rnd, name, verdicts, fixed)
            incorrect[name] = verdicts.get(Verdict.INCORRECT.value, 0)
        rnd.wall_s = time.perf_counter() - t0
        # begin_test ran the kernel before each app's clock started.
        kernel_s = sum(_take_kernel_calls(rnd, rec.ref_samples).values())
        rec.ref_samples = []
        rnd.between_s = rnd.wall_s - rnd.busy_s - kernel_s
        rnd.wrong = oracle_mismatches(expected, incorrect)
    elif workload == "unittests":
        _sequential_pass(rnd, rec, expected, fixed, inputs, VerifyOptions(), True)
    elif workload == "wide-certify":
        options = VerifyOptions(unroll_factor=WIDE_UNROLL, certify=True)
        _sequential_pass(rnd, rec, expected, fixed, inputs, options, False)
    elif workload == "pooled":
        rnd.workers = POOL_JOBS
        cache_dir = os.path.join(workdir, f"qcache-{index}")
        os.makedirs(cache_dir)
        cache = os.path.join(cache_dir, "cache.jsonl")
        # Each pass makes two run_suite calls over one cache, the fixed
        # tests and then the generated ones, so the pool's wall-clock on
        # the fixed tests is measured apart from a slow generated test.
        groups = (
            [t for t in inputs if t.name in fixed],
            [t for t in inputs if t.name not in fixed],
        )
        for phase in ("cold", "warm"):
            rec.phase = f"{phase}:"
            for group, tests in enumerate(groups):
                if not tests:
                    continue
                rec.flush_dir = os.path.join(workdir, f"pass-{index}-{phase}-{group}")
                os.makedirs(rec.flush_dir)
                outcome, wall = _suite_pass(
                    rnd, expected, fixed, tests, VerifyOptions(), True,
                    jobs=POOL_JOBS, query_cache=cache, cache_shards=CACHE_SHARDS,
                )
                entries = read_worker_files(rec.flush_dir)
                shutil.rmtree(rec.flush_dir)
                # Each worker ran the kernel at its tests' starts; the
                # workers ran side by side, so the call took about their
                # kernel time over the worker count longer.
                kernel_s = sum(_take_kernel_calls(rnd, rec.ref_samples).values())
                rec.ref_samples = []
                for pid in {entry["pid"] for entry in entries}:
                    samples = [tuple(s) for e in entries if e["pid"] == pid for s in e["ref"]]
                    kernel_s += sum(_take_kernel_calls(rnd, samples).values())
                if group == 0:
                    rnd.fixed_parts_s[phase] = wall - kernel_s / POOL_JOBS
                peaks: Dict[int, int] = {}
                for entry in entries:
                    pid = entry["pid"]
                    peaks[pid] = max(peaks.get(pid, 0), entry["rss_growth_kb"])
                rnd.child_rss_kb = max(rnd.child_rss_kb, sum(peaks.values()))
                rnd.worker_entries.extend(entries)
                if phase == "warm":
                    rnd.warm_hits += outcome.tally.qcache_hits
                    rnd.warm_lookups += outcome.tally.qcache_hits + outcome.tally.qcache_misses
        rec.phase, rec.flush_dir = "", None
        shutil.rmtree(cache_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rnd
