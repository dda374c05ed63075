"""E9 — engine: parallel scaling, task batching, and query-cache ablation.

The verification engine (``repro.engine``) attacks whole-corpus
wall-clock from two sides: a process-pool scheduler fans *chunks* of
per-test jobs across CPUs (many tests per worker task, amortizing
dispatch — per-test dispatch used to make ``--jobs`` slower than
sequential), and a canonical-hash query cache replays structurally
repeated solver queries without invoking the solver.  This benchmark
measures corpus wall-clock at ``jobs`` ∈ {1, 2, 4} across **two corpus
sizes** (dispatch overhead only amortizes when there is enough work per
chunk, so the scaling curve is a function of corpus size), plus the
cache off / cold / warm ablation on the small corpus.  Every
configuration must produce identical verdict tallies; raw numbers land
in ``BENCH_engine.json`` for cross-machine comparison.

Speedup from ``jobs > 1`` scales with physical cores, so no absolute
ratio is asserted here — a CI container may only have one.  The cache
effect is machine-independent: a warm run must hit and must not lose
verdicts.
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro.engine.qcache import QueryCache
from repro.refinement.check import VerifyOptions
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OPTS = VerifyOptions(timeout_s=10.0)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: generated-test counts for the corpus-size axis (25 handwritten tests
#: are always included on top).
CORPUS_SIZES = {"small": 12, "large": 48}


def _hit_rate(tally):
    total = tally.qcache_hits + tally.qcache_misses
    return tally.qcache_hits / total if total else 0.0


def _tally_key(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


def test_bench_parallel_scaling(benchmark, tmp_path):
    corpora = {
        label: build_corpus(generated=n) for label, n in CORPUS_SIZES.items()
    }
    cache_path = str(tmp_path / "qcache.jsonl")

    def run():
        results = {}
        # Corpus-size axis: pure scaling, cache off.
        for size_label, corpus in corpora.items():
            for jobs in (1, 2, 4):
                start = time.monotonic()
                outcome = run_suite(corpus, OPTS, inject_bugs=False, jobs=jobs)
                results[f"{size_label} jobs={jobs} cache=off"] = (
                    time.monotonic() - start,
                    outcome,
                    size_label,
                )
        # Cache ablation on the small corpus.
        small = corpora["small"]
        for label, jobs, cache in [
            ("small jobs=1 cache=cold", 1, QueryCache()),
            ("small jobs=1 cache=warm", 1, cache_path),  # cold pass warms it
            ("small jobs=4 cache=warm", 4, cache_path),
        ]:
            if label == "small jobs=1 cache=warm":
                run_suite(small, OPTS, inject_bugs=False, query_cache=cache_path)
            start = time.monotonic()
            outcome = run_suite(
                small, OPTS, inject_bugs=False, jobs=jobs, query_cache=cache
            )
            results[label] = (time.monotonic() - start, outcome, "small")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (wall_s, outcome, _size) in results.items():
        t = outcome.tally
        rows.append(
            {
                "config": label,
                "wall_s": round(wall_s, 3),
                "correct": t.correct,
                "incorrect": t.incorrect,
                "qc_hits": t.qcache_hits,
                "qc_misses": t.qcache_misses,
                "hit_rate": f"{_hit_rate(t):.0%}",
            }
        )
    print_table("E9: parallel scaling / task batching / query cache", rows)

    # Verdict parity within each corpus size, against its jobs=1 baseline.
    baselines = {
        size: results[f"{size} jobs=1 cache=off"] for size in corpora
    }
    for label, (_, outcome, size) in results.items():
        assert _tally_key(outcome) == _tally_key(baselines[size][1]), label
    cold = results["small jobs=1 cache=cold"][1]
    warm = results["small jobs=1 cache=warm"][1]
    assert warm.tally.qcache_hits > 0
    # Residual warm misses are the queries that died with a deadline
    # exception (never stored); everything storable replays.
    assert warm.tally.qcache_misses < cold.tally.qcache_misses
    assert _hit_rate(warm.tally) > _hit_rate(cold.tally)
    par_warm = results["small jobs=4 cache=warm"][1]
    assert par_warm.tally.qcache_hits > 0
    # Parallel runs really fanned out to worker processes.
    assert all(
        r.worker is not None
        for r in results["large jobs=4 cache=off"][1].records
    )

    # Flag configurations that requested more workers than the machine
    # has cores: their scaling numbers measure oversubscription, not the
    # scheduler, and should be read (and compared) accordingly.
    cores = os.cpu_count() or 1
    jobs_by_label = {
        label: int(label.split("jobs=")[1].split()[0]) for label in results
    }
    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "engine_parallel_scaling",
                "corpus_tests": {
                    label: len(corpus) for label, corpus in corpora.items()
                },
                "cpu_count": os.cpu_count(),
                "core_starved": sorted(
                    label
                    for label, jobs in jobs_by_label.items()
                    if cores < jobs
                ),
                "tally": {
                    size: _tally_key(outcome)
                    for size, (_, outcome, _s) in baselines.items()
                },
                "configs": {
                    label: {
                        "wall_s": round(wall_s, 3),
                        "qcache_hits": outcome.tally.qcache_hits,
                        "qcache_misses": outcome.tally.qcache_misses,
                        "speedup_vs_seq": round(baselines[size][0] / wall_s, 2)
                        if wall_s
                        else None,
                        "core_starved": cores < jobs_by_label[label],
                    }
                    for label, (wall_s, outcome, size) in results.items()
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
