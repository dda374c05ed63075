"""Tests for the verification engine: query cache, process pool, CEGAR.

Covers the engine-layer guarantees:

* canonical query hashing is independent of fresh-name counters;
* cache on/off produces identical verdicts, and warm hits skip the
  solver entirely (observed through the solver telemetry);
* the poisoning guard: resource-exhaustion verdicts are never cached at
  all (queries run under a shrinking per-test deadline, so a TIMEOUT is
  meaningless for any other budget) and crafted disk entries are dropped;
* a corrupted on-disk cache is dropped, never fatal;
* ``jobs=4`` produces the same tallies, record order and journal
  contents as ``jobs=1`` — including under injected faults — and a
  journal written by a parallel run resumes correctly;
* a hard worker death (simulated OOM-kill) breaks the pool without
  poisoning the tests that were merely queued behind the dier;
* ``_WIDTH_CACHE`` regression: reset_interning clears term-keyed caches.
"""

import json

from repro.engine.qcache import QueryCache, canonical_fingerprint
from repro.harness import FaultPlan, FaultSpec, RunJournal
from repro.harness.counters import collect
from repro.refinement.check import VerifyOptions
from repro.smt import exists_forall as ef
from repro.smt.terms import (
    Term,
    bool_and,
    bv_add,
    bv_const,
    bv_eq,
    bv_var,
    reset_interning,
)
from repro.suite.runner import run_suite
from repro.suite.unittests import UNIT_TESTS

OPTS = VerifyOptions(timeout_s=10.0)


def _corpus(n=6):
    return UNIT_TESTS[:n]


def _verdict_rows(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


# ---------------------------------------------------------------------------
# Canonical fingerprinting
# ---------------------------------------------------------------------------


def test_fingerprint_independent_of_variable_names():
    a = bv_eq(bv_add(bv_var("tmp!5", 8), bv_const(1, 8)), bv_var("tmp!6", 8))
    b = bv_eq(bv_add(bv_var("tmp!91", 8), bv_const(1, 8)), bv_var("x", 8))
    da, ra = canonical_fingerprint([("q", a)])
    db, rb = canonical_fingerprint([("q", b)])
    assert da == db
    # Positionally equal renamings: the first-occurring variable maps to
    # v0 in both, so cached models translate across the two queries.
    assert ra["tmp!5"] == rb["tmp!91"]
    assert ra["tmp!6"] == rb["x"]


def test_fingerprint_distinguishes_structure_and_tags():
    x = bv_var("x", 8)
    y = bv_var("y", 8)
    d1, _ = canonical_fingerprint([("q", bv_eq(bv_add(x, y), bv_const(0, 8)))])
    d2, _ = canonical_fingerprint([("q", bv_eq(bv_add(x, x), bv_const(0, 8)))])
    assert d1 != d2
    # Same term under a different tag (e.g. a plain SAT check vs an
    # exists-forall query) must not alias.
    t = bv_eq(x, y)
    d3, _ = canonical_fingerprint([("satcheck", t)])
    d4, _ = canonical_fingerprint([("phi", t)])
    assert d3 != d4


def test_fingerprint_handles_deep_terms_iteratively():
    t = bv_var("x", 8)
    for _ in range(5000):  # far past the recursion limit
        t = bv_add(t, bv_const(1, 8))
    digest, _ = canonical_fingerprint([("q", bv_eq(t, bv_const(0, 8)))])
    assert len(digest) == 64


def test_fingerprint_serialization_is_injective_for_evil_payloads():
    # Under a plain '|'-joined line format these two distinct terms
    # serialized to the same byte sequence ("x|1|1|y|"); delimiters and
    # newlines inside payloads must not forge field or line boundaries.
    a = Term("x|1", (), 1, "y")
    b = Term("x", (), 1, "1|y")
    da, _ = canonical_fingerprint([("q", a)])
    db, _ = canonical_fingerprint([("q", b)])
    assert da != db
    c = Term("c", (), 8, "p\nc|8|q|")
    d = Term("c", (), 8, "p")
    dc, _ = canonical_fingerprint([("q", c)])
    dd, _ = canonical_fingerprint([("q", d)])
    assert dc != dd


# ---------------------------------------------------------------------------
# Query cache semantics
# ---------------------------------------------------------------------------


def test_cache_on_off_same_verdicts():
    base = run_suite(_corpus(), OPTS, inject_bugs=False)
    cached = run_suite(
        _corpus(), OPTS, inject_bugs=False, query_cache=QueryCache()
    )
    assert _verdict_rows(base) == _verdict_rows(cached)
    with_bugs = run_suite(_corpus(10), OPTS, inject_bugs=True)
    with_bugs_cached = run_suite(
        _corpus(10), OPTS, inject_bugs=True, query_cache=QueryCache()
    )
    assert _verdict_rows(with_bugs) == _verdict_rows(with_bugs_cached)
    assert with_bugs.detected == with_bugs_cached.detected
    assert with_bugs.missed == with_bugs_cached.missed


def test_warm_cache_hits_skip_the_solver():
    cache = QueryCache()
    cold = run_suite(_corpus(), OPTS, inject_bugs=False, query_cache=cache)
    assert cache.misses > 0
    with collect() as seen:
        warm = run_suite(_corpus(), OPTS, inject_bugs=False, query_cache=cache)
    assert warm.tally.qcache_hits > 0
    assert warm.tally.qcache_misses == 0
    # Every query replayed from the cache: no solver call happened.
    assert "smt.checks" not in seen
    assert "smt.checks" not in warm.tally.counters
    assert _verdict_rows(cold) == _verdict_rows(warm)


def test_cache_poisoning_guard_never_caches_resource_exhaustion():
    cache = QueryCache()
    # Queries run under the *remaining* per-test deadline, so a TIMEOUT
    # observed with 0.2s left says nothing about the query under a fresh
    # budget: exhaustion verdicts must never be stored or replayed, even
    # for a structurally identical query.
    cache.store("deadbeef", "timeout")
    cache.store("deadbeef", "memout")
    assert len(cache) == 0
    assert cache.lookup("deadbeef") is None
    # Definitive verdicts are budget-independent and do replay.
    cache.store("cafebabe", "unsat")
    assert cache.lookup("cafebabe")["result"] == "unsat"


def test_corrupted_disk_cache_is_ignored_not_fatal(tmp_path):
    from repro.engine.qcache import CACHE_VERSION

    path = tmp_path / "qc.jsonl"
    good = {
        "v": CACHE_VERSION,
        "key": "k1",
        "result": "unsat",
        "model": {},
        "iterations": 1,
    }
    path.write_text(
        "{truncated json\n"
        + json.dumps(good)
        + "\n"
        + '{"v": 99, "key": "k2", "result": "unsat"}\n'  # future version
        + '{"v": 2, "key": "k2b", "result": "unsat"}\n'  # stale version
        + f'{{"v": {CACHE_VERSION}, "key": "k3", "result": "banana"}}\n'
        + f'{{"v": {CACHE_VERSION}, "key": "k5", "result": "timeout"}}\n'
        + "\x00\x01garbage\n"
    )
    cache = QueryCache(str(path))
    assert cache.dropped_lines == 6
    assert len(cache) == 1
    assert cache.lookup("k1")["result"] == "unsat"
    assert cache.lookup("k5") is None
    # And a persisted store round-trips through a fresh load.
    cache.store("k4", "sat", model={"v0": 3}, iterations=2)
    reloaded = QueryCache(str(path))
    assert reloaded.lookup("k4")["model"] == {"v0": 3}
    # The quarantine count is part of the reported cache statistics.
    assert reloaded.counters()["quarantined"] == 6


def test_cache_heal_discards_corrupt_lines_atomically(tmp_path):
    from repro.engine.qcache import CACHE_VERSION

    path = tmp_path / "qc.jsonl"
    good1 = {"v": CACHE_VERSION, "key": "k1", "result": "unsat", "model": {}}
    good2 = {"v": CACHE_VERSION, "key": "k2", "result": "sat", "model": {"v0": 1}}
    path.write_text(
        json.dumps(good1)
        + "\n{torn garbage\n"
        + json.dumps(good2)
        + "\n"
        + '{"v": 99, "key": "kx", "result": "unsat"}\n'
        + json.dumps(good2)[: len(json.dumps(good2)) // 2]  # truncated tail
    )
    cache = QueryCache(str(path))
    discarded = cache.heal()
    assert discarded == 3
    # The healed file now loads with nothing to quarantine.
    healed = QueryCache(str(path))
    assert healed.dropped_lines == 0
    assert len(healed) == 2
    assert healed.lookup("k1")["result"] == "unsat"
    assert healed.lookup("k2")["model"] == {"v0": 1}
    # No temp droppings left behind by the atomic rewrite.
    assert [p.name for p in tmp_path.iterdir()] == ["qc.jsonl"]


def test_cache_tolerates_truncation_mid_multibyte_character(tmp_path):
    from repro.engine.qcache import CACHE_VERSION

    path = tmp_path / "qc.jsonl"
    good = {"v": CACHE_VERSION, "key": "k1", "result": "unsat", "model": {}}
    entry = json.dumps(
        {"v": CACHE_VERSION, "key": "k✓", "result": "sat", "model": {}},
        ensure_ascii=False,
    ).encode("utf-8")
    # Cut inside the 3-byte check-mark character: a naive text-mode read
    # would raise UnicodeDecodeError before any quarantine logic runs.
    cut = entry.index("✓".encode("utf-8")) + 1
    path.write_bytes((json.dumps(good) + "\n").encode("utf-8") + entry[:cut])
    cache = QueryCache(str(path))
    assert cache.lookup("k1")["result"] == "unsat"
    assert cache.dropped_lines == 1


def test_disk_cache_shared_across_runs(tmp_path):
    path = str(tmp_path / "qc.jsonl")
    cold = run_suite(_corpus(), OPTS, inject_bugs=False, query_cache=path)
    warm = run_suite(_corpus(), OPTS, inject_bugs=False, query_cache=path)
    assert warm.tally.qcache_hits > 0
    assert warm.tally.qcache_misses == 0
    assert _verdict_rows(cold) == _verdict_rows(warm)


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


def test_parallel_matches_sequential(tmp_path):
    corpus = _corpus(6)
    seq_journal = str(tmp_path / "seq.jsonl")
    par_journal = str(tmp_path / "par.jsonl")
    seq = run_suite(
        corpus, OPTS, inject_bugs=False, jobs=1, journal=seq_journal
    )
    par = run_suite(
        corpus, OPTS, inject_bugs=False, jobs=4, journal=par_journal
    )
    assert _verdict_rows(seq) == _verdict_rows(par)
    # Deterministic record ordering: corpus order, not completion order.
    assert [r.test for r in par.records] == [t.name for t in corpus]
    assert {r.test: r.verdicts for r in seq.records} == {
        r.test: r.verdicts for r in par.records
    }
    # Journals hold the same per-test outcomes (modulo timing/worker).
    def load(path):
        with open(path) as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        return {
            e["test"]: (e["verdicts"], e["detected"], e["missed"])
            for e in entries
        }

    assert load(seq_journal) == load(par_journal)
    # Work actually left the parent process.
    assert all(r.worker is not None for r in par.records)
    assert all(r.worker is None for r in seq.records)


def test_parallel_with_injected_crash_matches_sequential(tmp_path):
    corpus = _corpus(6)
    victim = corpus[2].name
    plan = {victim: FaultSpec(kind="crash", site="encode")}
    seq = run_suite(
        corpus, OPTS, inject_bugs=False, jobs=1, fault_plan=FaultPlan(plan)
    )
    par = run_suite(
        corpus,
        OPTS,
        inject_bugs=False,
        jobs=4,
        fault_plan=FaultPlan(plan),
        journal=str(tmp_path / "crash.jsonl"),
    )
    assert _verdict_rows(seq) == _verdict_rows(par)
    assert seq.crashed == par.crashed == [victim]
    by_name = {r.test: r for r in par.records}
    assert by_name[victim].verdicts == {"crash": 1}
    assert by_name[victim].diagnostic["type"] == "RuntimeError"


def test_hard_worker_death_does_not_poison_pending_tests(tmp_path):
    # One test hard-kills its worker (os._exit — simulated OOM-kill),
    # which breaks the whole pool and voids every pending future.  Those
    # casualties must be retried for free, not charged attempts: only the
    # dier ends up CRASH, everything else gets its real verdict, and the
    # journal records the same — so a resume re-runs nothing wrongly.
    corpus = _corpus(6)
    victim = corpus[1].name
    plan = {victim: FaultSpec(kind="die", site="encode")}
    journal = str(tmp_path / "die.jsonl")
    par = run_suite(
        corpus,
        OPTS,
        inject_bugs=False,
        jobs=4,
        fault_plan=FaultPlan(plan),
        journal=journal,
    )
    clean = run_suite(corpus, OPTS, inject_bugs=False, jobs=1)
    assert par.crashed == [victim]
    by_name = {r.test: r for r in par.records}
    assert by_name[victim].verdicts == {"crash": 1}
    for ref in clean.records:
        if ref.test != victim:
            assert by_name[ref.test].verdicts == ref.verdicts
    with open(journal) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    assert len(entries) == len(corpus)
    assert ["crash" in e["verdicts"] for e in entries].count(True) == 1


def test_duplicate_test_names_keep_separate_records():
    # Records are keyed by corpus index, not name: a duplicated test must
    # yield one record (and one tally contribution) per occurrence.
    corpus = _corpus(3) + [_corpus(3)[1]]
    par = run_suite(corpus, OPTS, inject_bugs=False, jobs=2)
    seq = run_suite(corpus, OPTS, inject_bugs=False, jobs=1)
    assert len(par.records) == len(corpus)
    assert [r.test for r in par.records] == [t.name for t in corpus]
    assert _verdict_rows(seq) == _verdict_rows(par)


def test_resume_from_parallel_journal(tmp_path):
    corpus = _corpus(6)
    journal = str(tmp_path / "resume.jsonl")
    first = run_suite(
        corpus[:4], OPTS, inject_bugs=False, jobs=4, journal=journal
    )
    assert first.resumed == 0
    assert len(RunJournal(journal)) == 4
    # Resume sequentially over the full corpus: the 4 parallel-journaled
    # tests replay, only 2 run fresh.
    second = run_suite(corpus, OPTS, inject_bugs=False, jobs=1, journal=journal)
    assert second.resumed == 4
    assert len(second.records) == 6
    # And a parallel run resumes a parallel journal too.
    third = run_suite(corpus, OPTS, inject_bugs=False, jobs=4, journal=journal)
    assert third.resumed == 6
    assert _verdict_rows(third) == _verdict_rows(second)


def test_parallel_run_uses_multiple_workers():
    # More tests than workers: with 2 workers at least 2 distinct pids
    # should appear (scheduling could starve one only on a 1-test corpus).
    par = run_suite(_corpus(8), OPTS, inject_bugs=False, jobs=2)
    pids = {r.worker for r in par.records}
    assert len(pids) >= 2


# ---------------------------------------------------------------------------
# _WIDTH_CACHE regression + incremental CEGAR
# ---------------------------------------------------------------------------


def test_width_cache_cleared_by_reset_interning():
    term = bool_and(bv_eq(bv_var("w", 8), bv_const(0, 8)))
    assert ef._var_width(term, "w") == 8
    assert any(name == "w" for (_, name) in ef._WIDTH_CACHE)
    reset_interning()
    # The stale entry is gone: a recycled object id can no longer alias
    # a different term onto the old width.
    assert ef._WIDTH_CACHE == {}
    term2 = bool_and(bv_eq(bv_var("w", 4), bv_const(0, 4)))
    assert ef._var_width(term2, "w") == 4


def test_width_cache_keys_are_terms_not_ids():
    term = bv_eq(bv_var("z", 16), bv_const(5, 16))
    ef._var_width(term, "z")
    keys = [k for k in ef._WIDTH_CACHE if k[1] == "z"]
    assert keys and all(k[0] is term for k in keys)


def test_incremental_cegar_multi_iteration_query():
    """A query needing several instantiation rounds still terminates and
    agrees with ground truth under the persistent inner solver."""
    x = bv_var("x", 4)
    n = bv_var("n", 4)
    # exists x. forall n. not (x == n)  -- false for 4-bit x (every x is
    # matched by n = x), requires iterating until candidates run out.
    outcome = ef.solve_exists_forall(
        bool_and(bv_eq(x, x)),  # phi: trivially true
        bv_eq(x, n),
        [ef.QuantVar("n", 4)],
        max_iterations=64,
    )
    assert outcome.result is ef.EFResult.UNSAT
    assert outcome.iterations > 1


# -- cache shard-count validation (PR 10) -------------------------------------


def test_query_cache_rejects_nonpositive_shards():
    import pytest

    for bad in (0, -1, -8):
        with pytest.raises(ValueError, match="positive"):
            QueryCache(shards=bad)


def test_query_cache_warns_on_shard_count_mismatch(tmp_path, caplog):
    import logging

    path = tmp_path / "cache.jsonl"
    # Write entries under shards=4, then reopen with shards=2: the v4
    # files are invisible to the new layout, which must be called out.
    cache = QueryCache(str(path), shards=4)
    cache.store("deadbeef" * 8, "unsat", {}, 1)
    with caplog.at_level(logging.WARNING, logger="repro.engine.qcache"):
        QueryCache(str(path), shards=2)
    text = caplog.text
    assert "--cache-shards 4" in text
    assert "--cache-shards 2" in text
    assert "NOT be loaded" in text


def test_query_cache_same_shard_count_no_warning(tmp_path, caplog):
    import logging

    path = tmp_path / "cache.jsonl"
    cache = QueryCache(str(path), shards=4)
    cache.store("deadbeef" * 8, "unsat", {}, 1)
    with caplog.at_level(logging.WARNING, logger="repro.engine.qcache"):
        QueryCache(str(path), shards=4)
    assert "NOT be loaded" not in caplog.text


def test_cli_rejects_nonpositive_cache_shards(capsys):
    import pytest

    from repro.suite.cli import main as suite_main

    with pytest.raises(SystemExit) as excinfo:
        suite_main(["unittests", "--cache-shards", "0", "--limit", "1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--cache-shards" in err and "positive" in err
