"""E15 — memory-aware static analysis: points-to/memdf ablation.

The memdf layer (``repro.analysis.pointsto`` / ``repro.analysis.memdf``)
adds three consumers on top of the PR 3 prescreen: the alias/forwarding/
OOB prescreen rules, the encoder's aliasing-case-split pruning, and the
memory-refinement block skip.  This benchmark runs the unit-test corpus
with memdf on and off, checks the two configurations produce identical
verdicts (memdf facts may only *prove*, never refute), asserts that at
least one memory-touching query is discharged by a memdf rule and at
least one access encoding was narrowed, and records wall-clock plus the
per-rule hit counters in ``BENCH_memdf.json``.
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro.analysis import prescreen
from repro.refinement.check import VerifyOptions
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_memdf.json"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _rule_hits(counters):
    return sum(counters.get(f"prescreen.{r}", 0) for r in prescreen.MEMDF_RULES)


def _tally_key(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


def test_bench_memdf(benchmark):
    corpus = build_corpus(generated=12)

    def run():
        results = {}
        for label, enabled in [("memdf=on", True), ("memdf=off", False)]:
            opts = VerifyOptions(timeout_s=10.0, memdf=enabled)
            start = time.monotonic()
            outcome = run_suite(corpus, opts, inject_bugs=False)
            results[label] = (time.monotonic() - start, outcome)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (wall_s, outcome) in results.items():
        c = outcome.tally.counters
        rows.append(
            {
                "config": label,
                "wall_s": round(wall_s, 3),
                "correct": outcome.tally.correct,
                "rule_hits": _rule_hits(c),
                "narrowed": c.get("memdf.narrowed", 0),
                "block_skips": c.get("memdf.block_skips", 0),
                "load_fwd": c.get("prescreen.load-forward", 0),
                "alias_disj": c.get("prescreen.alias-disjoint", 0),
                "oob_ub": c.get("prescreen.oob-ub", 0),
            }
        )
    print_table("E15: memdf ablation", rows)

    on_wall, on = results["memdf=on"]
    off_wall, off = results["memdf=off"]
    on_c, off_c = on.tally.counters, off.tally.counters
    # Soundness: identical verdicts with and without the memdf layer.
    assert _tally_key(on) == _tally_key(off)
    for a, b in zip(on.records, off.records):
        assert a.test == b.test and a.verdicts == b.verdicts, a.test
    # Acceptance bar: the memory rules discharge real corpus queries and
    # the encoder drops real aliasing case-splits; off runs stay silent.
    assert _rule_hits(on_c) >= 1
    assert on_c.get("memdf.narrowed", 0) >= 1
    assert on_c.get("memdf.block_skips", 0) >= 1
    assert _rule_hits(off_c) == 0
    assert off_c.get("memdf.narrowed", 0) == 0

    baseline_wall = None
    if BASELINE_PATH.exists():
        engine = json.loads(BASELINE_PATH.read_text())
        baseline_wall = (
            engine.get("configs", {}).get("jobs=1 cache=off", {}).get("wall_s")
        )

    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "memdf",
                "corpus_tests": len(corpus),
                "cpu_count": os.cpu_count(),
                "tally": _tally_key(on),
                "configs": {
                    label: {
                        "wall_s": round(wall_s, 3),
                        "memdf_rule_hits": _rule_hits(outcome.tally.counters),
                        "memdf_narrowed": outcome.tally.counters.get(
                            "memdf.narrowed", 0
                        ),
                        "memdf_block_skips": outcome.tally.counters.get(
                            "memdf.block_skips", 0
                        ),
                        "by_rule": {
                            r: outcome.tally.counters.get(f"prescreen.{r}", 0)
                            for r in prescreen.MEMDF_RULES
                        },
                        "solver_checks": outcome.tally.counters.get(
                            "smt.checks", 0
                        ),
                    }
                    for label, (wall_s, outcome) in results.items()
                },
                "speedup_on_vs_off": round(off_wall / on_wall, 2)
                if on_wall
                else None,
                "pr2_sequential_baseline_wall_s": baseline_wall,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
