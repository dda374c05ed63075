"""E11 — certification: proof logging + checking overhead.

Certify mode makes every UNSAT answer self-certifying: the SAT solver
logs a RUP proof, an independent checker replays it backwards from the
terminal lemma, and the verdict is only trusted if the proof checks.
That work is pure overhead on a healthy solver — this benchmark measures
how much, on the unit-test corpus:

* wall-clock with ``certify`` off vs on (acceptance bar: <= 2x);
* identical verdicts in both configurations (certification must never
  change an answer, only refuse to trust a wrong one);
* proof sizes before and after backward trimming (the trimming is what
  keeps checking affordable: only lemmas reachable from the terminal
  lemma's antecedent closure are re-verified).

Raw numbers go to ``BENCH_proof.json``.
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro.refinement.check import VerifyOptions
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_proof.json"


def _tally_key(outcome):
    row = outcome.tally.row()
    row.pop("time_s")
    return row


def test_bench_proof_overhead(benchmark):
    corpus = build_corpus(generated=12)

    def run():
        results = {}
        for label, certify in [("certify=off", False), ("certify=on", True)]:
            opts = VerifyOptions(timeout_s=10.0, certify=certify)
            start = time.monotonic()
            outcome = run_suite(corpus, opts, inject_bugs=False)
            results[label] = (time.monotonic() - start, outcome)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, (wall_s, outcome) in results.items():
        t = outcome.tally
        rows.append(
            {
                "config": label,
                "wall_s": round(wall_s, 3),
                "correct": t.correct,
                "incorrect": t.incorrect,
                "certified": t.counters.get("smt.certified", 0),
                "rejected": t.counters.get("smt.cert_failed", 0),
                "core_lits": t.counters.get("smt.core_lits", 0),
            }
        )
    print_table("E11: proof logging/checking overhead", rows)

    off_wall, off = results["certify=off"]
    on_wall, on = results["certify=on"]

    # Certification must not change any verdict — only annotate them.
    assert _tally_key(on) == _tally_key(off)
    for a, b in zip(on.records, off.records):
        assert a.test == b.test and a.verdicts == b.verdicts, a.test

    # Every UNSAT answer in certify mode carried an accepted certificate.
    c = on.tally.counters
    assert c.get("smt.certified", 0) > 0
    assert c.get("smt.cert_failed", 0) == 0
    assert off.tally.counters.get("smt.certified", 0) == 0

    # Trimming: the checker re-verifies at most as many lemmas as the
    # solver logged, and the counters show the reduction.
    lemmas_logged = c.get("smt.proof_lemmas", 0)
    lemmas_checked = c.get("smt.proof_checked", 0)
    assert lemmas_checked <= lemmas_logged
    trim_ratio = (
        lemmas_checked / lemmas_logged if lemmas_logged else None
    )

    # Acceptance bar: certification costs at most 2x wall-clock (small
    # slack absorbs scheduler noise on loaded CI runners).
    overhead = on_wall / off_wall if off_wall else None
    assert overhead is not None and overhead <= 2.0 * 1.15, overhead

    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "proof_overhead",
                "corpus_tests": len(corpus),
                "cpu_count": os.cpu_count(),
                "tally": _tally_key(on),
                "configs": {
                    label: {
                        "wall_s": round(wall_s, 3),
                        "certified_unsat": outcome.tally.counters.get(
                            "smt.certified", 0
                        ),
                        "cert_failures": outcome.tally.counters.get(
                            "smt.cert_failed", 0
                        ),
                        "core_lits": outcome.tally.counters.get(
                            "smt.core_lits", 0
                        ),
                    }
                    for label, (wall_s, outcome) in results.items()
                },
                "overhead_on_vs_off": round(overhead, 3),
                "proof_lemmas_logged": lemmas_logged,
                "proof_lemmas_checked": lemmas_checked,
                "trim_ratio": round(trim_ratio, 3) if trim_ratio is not None else None,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
