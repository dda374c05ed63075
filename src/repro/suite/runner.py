"""Harness that runs corpora through the TV plugin and classifies outcomes.

This is the analogue of the paper's lit-based monitoring setup (§8.2):
for each unit test, run the (possibly buggy) pipeline and validate each
changed pass; aggregate verdicts and bucket refinement failures by the
injected defect's §8.2 category.

The runner is fault-tolerant: every test executes inside a containment
boundary, so a parser crash, an encoder ``RecursionError`` or a
``MemoryError`` in one test is recorded as a per-test ``CRASH``/``OOM``
outcome and the corpus run continues.  With a journal path, per-test
outcomes are appended to a JSONL file as the run progresses and a
re-invocation resumes from it, re-running only unfinished tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Union

from repro.engine import qcache
from repro.harness import counters, faults
from repro.harness.counters import add as add_counters
from repro.harness.deadline import DeadlineExceeded
from repro.harness.degrade import DegradationLadder
from repro.harness.faults import FaultPlan
from repro.harness.isolation import diagnostic_from, run_verification_job
from repro.harness.journal import RunJournal
from repro.ir.parser import parse_module
from repro.refinement.check import RefinementResult, Verdict, VerifyOptions
from repro.suite.unittests import UnitTest
from repro.tv.plugin import validate_pipeline
from repro.tv.report import Tally


@dataclass
class TestRecord:
    """One test's journaled outcome — everything resume needs to replay."""

    __test__ = False  # not a pytest class, despite the name

    test: str
    verdicts: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    skipped_unchanged: int = 0
    category: Optional[str] = None
    detected: bool = False
    missed: bool = False
    clean_failure: bool = False
    degradations: List[str] = field(default_factory=list)
    diagnostic: Optional[Dict[str, object]] = None
    # The worker pid for parallel runs (None = in-process).
    worker: Optional[int] = None
    # Per-phase wall-clock summed over this test's verification jobs, and
    # what each layer did during the test (see repro.harness.counters).
    phase_times: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def count(self, verdict: Verdict) -> None:
        self.verdicts[verdict.value] = self.verdicts.get(verdict.value, 0) + 1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TestRecord":
        return cls(
            test=data["test"],
            verdicts=dict(data.get("verdicts", {})),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            skipped_unchanged=int(data.get("skipped_unchanged", 0)),
            category=data.get("category"),
            detected=bool(data.get("detected", False)),
            missed=bool(data.get("missed", False)),
            clean_failure=bool(data.get("clean_failure", False)),
            degradations=list(data.get("degradations", [])),
            diagnostic=data.get("diagnostic"),
            worker=data.get("worker"),
            phase_times={
                str(k): float(v)
                for k, v in dict(data.get("phase_times", {})).items()
            },
            counters={
                str(k): int(v) for k, v in dict(data.get("counters", {})).items()
            },
        )


@dataclass
class SuiteOutcome:
    tally: Tally = field(default_factory=Tally)
    violations_by_category: Dict[str, int] = field(default_factory=dict)
    detected: List[str] = field(default_factory=list)  # test names with bugs caught
    missed: List[str] = field(default_factory=list)  # injected bugs not caught
    clean_failures: List[str] = field(default_factory=list)  # false alarms
    crashed: List[str] = field(default_factory=list)  # tests the harness contained
    solver_unsound: List[str] = field(default_factory=list)  # rejected certificates
    records: List[TestRecord] = field(default_factory=list)
    resumed: int = 0  # tests replayed from the journal instead of re-run
    # Parallel runs: worker pid -> that worker's final query-cache
    # counters (per-shard load bytes/entries, LRU evictions, hit rate),
    # so cache-tier wins are measurable per worker, not inferred.
    worker_cache: Dict[int, dict] = field(default_factory=dict)

    def summary_rows(self) -> List[Dict[str, object]]:
        return [
            {"category": cat, "violations": n}
            for cat, n in sorted(self.violations_by_category.items())
        ]


def run_suite(
    tests: List[UnitTest],
    options: Optional[VerifyOptions] = None,
    inject_bugs: bool = True,
    batch: int = 1,
    *,
    journal: Optional[Union[str, RunJournal]] = None,
    fault_plan: Optional[FaultPlan] = None,
    ladder: Optional[DegradationLadder] = None,
    jobs: int = 1,
    query_cache: Optional[Union[str, "qcache.QueryCache"]] = None,
    cache_shards: int = 1,
    task_batch: Optional[int] = None,
    warm_pool: Optional["object"] = None,
) -> SuiteOutcome:
    """Validate every test; returns outcome statistics.

    With ``inject_bugs`` the per-test buggy pass variant is switched on,
    reproducing a compiler with the §8.2 defect classes; without it the
    same corpus measures the zero-false-alarm property.

    ``journal`` (a path or :class:`RunJournal`) makes the run crash-safe
    and resumable: already-journaled tests are replayed, not re-run.
    ``ladder`` enables degraded retries of TIMEOUT/OOM jobs.
    ``fault_plan`` is the test-only fault-injection hook.

    ``jobs > 1`` fans unfinished tests out to a process pool (see
    :mod:`repro.engine.pool`); tallies, journal contents and record order
    are identical to a sequential run.  ``task_batch`` overrides how many
    tests are shipped per worker task (default: pool-chosen, ~4 tasks per
    worker).  ``query_cache`` (a path or a
    :class:`~repro.engine.qcache.QueryCache`) short-circuits structurally
    repeated solver queries; with ``jobs > 1`` each worker gets its own
    cache instance over the same on-disk file, if any.  ``cache_shards``
    splits that file into digest-routed shard files so each worker loads
    and appends only its owned slice (see :mod:`repro.engine.qcache`).
    ``warm_pool`` (a started :class:`repro.engine.warmpool.WarmPool`)
    replaces the per-run process pool with persistent pre-forked workers
    whose interned term universe and in-memory cache tier stay warm
    across runs; verdicts are identical either way.
    """
    options = options or VerifyOptions(timeout_s=30.0)
    if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__"):
        journal = RunJournal(journal)
    # The parent only loads the cache file(s) when it will run tests
    # itself: for pooled runs it needs the path, not the entries.
    cache: Optional[qcache.QueryCache] = None
    cache_path: Optional[str] = None
    cache_configured = query_cache is not None
    if isinstance(query_cache, qcache.QueryCache):
        cache = query_cache
        cache_path = cache.path
    elif query_cache is not None:
        cache_path = os.fspath(query_cache) or None
    outcome = SuiteOutcome()

    pending = [
        t for t in tests if journal is None or not journal.is_done(t.name)
    ]
    pooled = warm_pool is not None or (jobs > 1 and len(pending) > 1)
    if pooled and pending:
        if warm_pool is not None:
            fresh = warm_pool.run(
                pending,
                options,
                inject_bugs,
                batch,
                journal=journal,
                ladder=ladder,
                task_batch=task_batch,
            )
            outcome.worker_cache = dict(warm_pool.worker_cache)
        else:
            from repro.engine.pool import run_parallel

            fresh, outcome.worker_cache = run_parallel(
                pending,
                options,
                inject_bugs,
                batch,
                jobs=jobs,
                journal=journal,
                fault_plan=fault_plan,
                ladder=ladder,
                cache_enabled=cache_configured,
                cache_path=cache_path,
                cache_shards=cache_shards,
                task_batch=task_batch,
            )
        # ``fresh`` is in ``pending`` order; consume it positionally so
        # duplicate test names cannot collapse onto one record.
        k = 0
        for test in tests:
            if k < len(pending) and test is pending[k]:
                record = fresh[k]
                k += 1
            else:
                record = TestRecord.from_json(journal.get(test.name))
                outcome.resumed += 1
            _merge_record(outcome, record)
        _merge_worker_cache(outcome)
        return outcome

    if cache is None and cache_configured:
        cache = qcache.QueryCache(cache_path, shards=cache_shards)
    with faults.activate(fault_plan), qcache.activate(cache):
        for test in tests:
            if journal is not None and journal.is_done(test.name):
                record = TestRecord.from_json(journal.get(test.name))
                outcome.resumed += 1
            else:
                record = _run_one_test(test, options, inject_bugs, batch, ladder)
                if journal is not None:
                    journal.record(record.to_json())
            _merge_record(outcome, record)
    if cache is not None:
        outcome.worker_cache = {os.getpid(): cache.counters()}
        _merge_worker_cache(outcome)
    return outcome


def _run_one_test(
    test: UnitTest,
    options: VerifyOptions,
    inject_bugs: bool,
    batch: int,
    ladder: Optional[DegradationLadder],
) -> TestRecord:
    """Run one test inside the containment boundary; never raises
    (except KeyboardInterrupt/SystemExit, which must abort the run so the
    journal-based resume can take over)."""
    record = TestRecord(test=test.name, category=test.category)
    start = time.monotonic()
    # The test's own scope: its jobs' counts add up here even when the
    # test crashes between two jobs.
    with counters.collect() as collected:
        try:
            with faults.current_test(test.name):
                _evaluate_test(test, options, inject_bugs, batch, ladder, record)
        except (KeyboardInterrupt, SystemExit):
            raise
        except MemoryError as exc:
            record.count(Verdict.OOM)
            record.diagnostic = diagnostic_from(exc)
        except DeadlineExceeded as exc:
            record.count(Verdict.TIMEOUT)
            record.diagnostic = diagnostic_from(exc)
        except Exception as exc:  # noqa: BLE001 — crash isolation per test
            record.count(Verdict.CRASH)
            record.diagnostic = diagnostic_from(exc)
    record.elapsed_s = time.monotonic() - start
    record.counters = collected
    return record


def _evaluate_test(
    test: UnitTest,
    options: VerifyOptions,
    inject_bugs: bool,
    batch: int,
    ladder: Optional[DegradationLadder],
    record: TestRecord,
) -> None:
    pass_options = {}
    if inject_bugs and test.bug_option is not None:
        pass_options[test.bug_option] = True
    faults.maybe_fault("parse")
    if inject_bugs and test.buggy_target is not None:
        # FileCheck-style test: the buggy expected output is explicit.
        sm = parse_module(test.ir)
        tm = parse_module(test.buggy_target)
        result = run_verification_job(
            sm.definitions()[0], tm.definitions()[0], sm, tm, options, ladder=ladder
        )
        _absorb(record, result)
        if result.diagnostic is not None:
            record.diagnostic = result.diagnostic
        if result.verdict is Verdict.INCORRECT:
            record.detected = True
        else:
            record.missed = True
        return
    module = parse_module(test.ir)
    report = validate_pipeline(
        module, list(test.pipeline), options, pass_options, batch=batch, ladder=ladder
    )
    for rec in report.records:
        _absorb(record, rec.result)
        if rec.result.verdict is Verdict.CRASH and record.diagnostic is None:
            record.diagnostic = rec.result.diagnostic
    record.skipped_unchanged = report.tally.skipped_unchanged
    bug_injected = inject_bugs and test.bug_option is not None
    found = bool(report.failures())
    if found:
        if bug_injected:
            record.detected = True
        else:
            record.clean_failure = True
            record.category = None
    elif bug_injected:
        record.missed = True


def _absorb(record: TestRecord, result: RefinementResult) -> None:
    """Fold one verification job's outcome into its test's record (its
    counters already reached the test's scope)."""
    record.count(result.verdict)
    record.degradations.extend(result.degradations)
    for phase, seconds in result.phase_times.items():
        record.phase_times[phase] = record.phase_times.get(phase, 0.0) + seconds


def outcome_from_records(records: List[TestRecord]) -> SuiteOutcome:
    """Aggregate per-test records into a :class:`SuiteOutcome`.

    This is how results that were produced *elsewhere* — by `alive-serve`
    workers, a replayed journal, or any other record source — get the
    same tallies and classification a local :func:`run_suite` produces.
    """
    outcome = SuiteOutcome()
    for record in records:
        _merge_record(outcome, record)
    return outcome


def _merge_worker_cache(outcome: SuiteOutcome) -> None:
    """Fold per-worker cache counters into the tally's load totals."""
    for cache in outcome.worker_cache.values():
        add_counters(
            outcome.tally.counters,
            {
                f"qcache.{name}": int(cache.get(name, 0))
                for name in ("load_entries", "load_bytes", "evictions")
            },
        )


def _merge_record(outcome: SuiteOutcome, record: TestRecord) -> None:
    outcome.records.append(record)
    for verdict_value, count in record.verdicts.items():
        verdict = Verdict(verdict_value)
        for _ in range(count):
            outcome.tally.add_verdict(verdict)
    outcome.tally.total_time_s += record.elapsed_s
    outcome.tally.skipped_unchanged += record.skipped_unchanged
    add_counters(outcome.tally.counters, record.counters)
    for phase, seconds in record.phase_times.items():
        outcome.tally.phase_time_s[phase] = (
            outcome.tally.phase_time_s.get(phase, 0.0) + seconds
        )
    if record.verdicts.get(Verdict.CRASH.value):
        outcome.crashed.append(record.test)
    if record.verdicts.get(Verdict.SOLVER_UNSOUND.value):
        outcome.solver_unsound.append(record.test)
    if record.detected:
        category = record.category or "uncategorized"
        outcome.violations_by_category[category] = (
            outcome.violations_by_category.get(category, 0) + 1
        )
        outcome.detected.append(record.test)
    elif record.clean_failure:
        # paper: failures due to Alive2/tests themselves, not the compiler
        outcome.violations_by_category["tool-or-test"] = (
            outcome.violations_by_category.get("tool-or-test", 0) + 1
        )
        outcome.clean_failures.append(record.test)
    if record.missed:
        outcome.missed.append(record.test)
