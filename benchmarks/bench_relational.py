"""E16 — relational abstract interpretation: product-CFG GVN ablation.

The relational layer (``repro.analysis.relational`` / ``.align``) adds
three consumers on top of the PR 9 pipeline: the R-relational-equal
prescreen rules (discharge before encoding), cross-function witness
seeds for the e-graph and CEGAR rungs (replacing the lone-forall-var
pairing heuristic), and alignment-aware counterexample notes.  This
benchmark runs the 49-test corpus with the analysis on and off, checks
the two configurations produce byte-identical verdicts (the CEGAR
iteration ceiling is pinned high enough that seeds may only accelerate
convergence, never change a definitive answer), asserts the acceptance
bar — the relational rules discharge or seed at least 15% of the
baseline's solver checks — and records wall-clock plus the counters in
``BENCH_relational.json`` alongside the PR 9 (memdf) baseline numbers.
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

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_relational.json"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_memdf.json"


def _rule_hits(counters, rules):
    return sum(counters.get(f"prescreen.{r}", 0) for r in rules)


def _tally_key(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


def test_bench_relational(benchmark):
    corpus = build_corpus(generated=8)

    def run():
        results = {}
        for label, enabled in [
            ("relational=on", True),
            ("relational=off", False),
        ]:
            opts = VerifyOptions(
                timeout_s=10.0, relational=enabled, max_ef_iterations=256
            )
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
                "rule_hits": _rule_hits(c, prescreen.RELATIONAL_RULES),
                "seeded_queries": c.get("relational.seeded_queries", 0),
                "seed_pairs": c.get("relational.seed_pairs", 0),
                "aligned": c.get("relational.aligned_blocks", 0),
                "solver_checks": c.get("smt.checks", 0),
            }
        )
    print_table("E16: relational ablation", rows)

    on_wall, on = results["relational=on"]
    off_wall, off = results["relational=off"]
    on_c, off_c = on.tally.counters, off.tally.counters
    # Soundness: byte-identical verdicts with and without the layer.
    assert _tally_key(on) == _tally_key(off)
    for a, b in zip(on.records, off.records):
        assert a.test == b.test and a.verdicts == b.verdicts, a.test
    # The off configuration must not touch any relational machinery.
    assert _rule_hits(off_c, prescreen.RELATIONAL_RULES) == 0
    assert off_c.get("relational.aligned_blocks", 0) == 0
    assert off_c.get("relational.seeded_queries", 0) == 0

    # Acceptance bar: discharged-or-seeded >= 15% of the baseline's
    # remaining solver checks.  "Discharged" are queries the prescreen
    # rules answered outright; "seeded" are solver checks that carried a
    # relational witness seed into the e-graph/CEGAR rungs.
    baseline_checks = off_c.get("smt.checks", 0)
    discharged = _rule_hits(on_c, prescreen.RELATIONAL_RULES)
    touched = discharged + on_c.get("relational.seeded_queries", 0)
    assert baseline_checks > 0
    assert touched >= 0.15 * baseline_checks, (
        touched,
        baseline_checks,
    )

    pr9_baseline = None
    if BASELINE_PATH.exists():
        memdf_bench = json.loads(BASELINE_PATH.read_text())
        pr9_baseline = {
            label: {
                "wall_s": cfg.get("wall_s"),
                "solver_checks": cfg.get("solver_checks"),
            }
            for label, cfg in memdf_bench.get("configs", {}).items()
        }

    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "relational",
                "corpus_tests": len(corpus),
                "cpu_count": os.cpu_count(),
                "tally": _tally_key(on),
                "configs": {
                    label: {
                        "wall_s": round(wall_s, 3),
                        "relational_rule_hits": _rule_hits(
                            outcome.tally.counters, prescreen.RELATIONAL_RULES
                        ),
                        "relational_seed_pairs": outcome.tally.counters.get(
                            "relational.seed_pairs", 0
                        ),
                        "relational_aligned_blocks": outcome.tally.counters.get(
                            "relational.aligned_blocks", 0
                        ),
                        "seeded_queries": outcome.tally.counters.get(
                            "relational.seeded_queries", 0
                        ),
                        "by_rule": {
                            r: outcome.tally.counters.get(f"prescreen.{r}", 0)
                            for r in prescreen.RELATIONAL_RULES
                        },
                        "solver_checks": outcome.tally.counters.get(
                            "smt.checks", 0
                        ),
                    }
                    for label, (wall_s, outcome) in results.items()
                },
                "discharged_or_seeded": touched,
                "baseline_solver_checks": baseline_checks,
                "discharged_or_seeded_fraction": round(
                    touched / baseline_checks, 3
                ),
                "speedup_on_vs_off": round(off_wall / on_wall, 2)
                if on_wall
                else None,
                "pr9_memdf_baseline": pr9_baseline,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
