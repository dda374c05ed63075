"""E10 — static analysis: solver-bypass prescreen ablation.

The analysis layer (``repro.analysis``) sits in front of the solver: a
dataflow-driven prescreen discharges refinement queries whose answer is
already decided by known-bits/range/poison facts, and the encoder folds
fully-determined bits to constants before bit-blasting.  This benchmark
runs the unit-test corpus with the prescreen on and off, checks the two
configurations produce identical verdicts (the prescreen may only
*prove*, never refute), asserts the >= 10% discharge-rate acceptance
bar, and records wall-clock for both so ``BENCH_analysis.json`` can be
compared against the PR 2 sequential baseline in ``BENCH_engine.json``
(config ``jobs=1 cache=off``).
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro.refinement.check import VerifyOptions
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _prescreen(outcome):
    """(discharged, passed to the solver, hit rate) of one run."""
    c = outcome.tally.counters
    hits, misses = c.get("prescreen.discharged", 0), c.get("prescreen.passed", 0)
    return hits, misses, hits / (hits + misses) if hits + misses else 0.0


def _tally_key(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


def test_bench_static_prescreen(benchmark):
    corpus = build_corpus(generated=12)

    def run():
        results = {}
        for label, enabled in [("prescreen=on", True), ("prescreen=off", False)]:
            opts = VerifyOptions(timeout_s=10.0, prescreen=enabled)
            start = time.monotonic()
            outcome = run_suite(corpus, opts, inject_bugs=False)
            results[label] = (time.monotonic() - start, outcome)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (wall_s, outcome) in results.items():
        t = outcome.tally
        hits, misses, rate = _prescreen(outcome)
        rows.append(
            {
                "config": label,
                "wall_s": round(wall_s, 3),
                "correct": t.correct,
                "incorrect": t.incorrect,
                "ps_hits": hits,
                "ps_misses": misses,
                "hit_rate": f"{rate:.0%}",
            }
        )
    print_table("E10: static prescreen ablation", rows)

    on_wall, on = results["prescreen=on"]
    off_wall, off = results["prescreen=off"]
    # Soundness: identical verdicts with and without the prescreen.
    assert _tally_key(on) == _tally_key(off)
    for a, b in zip(on.records, off.records):
        assert a.test == b.test and a.verdicts == b.verdicts, a.test
    # Acceptance bar: >= 10% of queries discharged without the solver.
    hits, misses, rate = _prescreen(on)
    assert hits + misses > 0
    assert rate >= 0.10, (hits, misses)
    assert _prescreen(off)[0] == 0

    baseline_wall = None
    if BASELINE_PATH.exists():
        engine = json.loads(BASELINE_PATH.read_text())
        baseline_wall = (
            engine.get("configs", {}).get("jobs=1 cache=off", {}).get("wall_s")
        )

    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "static_prescreen",
                "corpus_tests": len(corpus),
                "cpu_count": os.cpu_count(),
                "tally": _tally_key(on),
                "configs": {
                    label: {
                        "wall_s": round(wall_s, 3),
                        "prescreen_hits": _prescreen(outcome)[0],
                        "prescreen_misses": _prescreen(outcome)[1],
                        "hit_rate": round(_prescreen(outcome)[2], 3),
                        "solver_checks": outcome.tally.counters.get(
                            "smt.checks", 0
                        ),
                    }
                    for label, (wall_s, outcome) in results.items()
                },
                "speedup_on_vs_off": round(off_wall / on_wall, 2) if on_wall else None,
                "pr2_sequential_baseline_wall_s": baseline_wall,
                "speedup_vs_pr2_baseline": round(baseline_wall / on_wall, 2)
                if baseline_wall and on_wall
                else None,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
