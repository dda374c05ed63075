"""The validator's benchmark: time to verdict, throughput, set-up time and
memory on four fixed workloads, with every verdict checked against a
known answer.

Run from the repository root:

    python3 perfbench/run.py --workload unittests --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no span wrappers
installed; every time but ``setup_s`` is stated at the nominal host
speed of ``hostspeed.py``.  ``--trace 1`` alternates untraced and traced rounds and
reports per-layer self times and counts instead (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say the same for a human.  The exit code is 1 when any verdict
contradicts its known answer, 2 when the validator's sources are absent,
and 3 when a traced run misses a traced callable or its named layers
cover less than 95% of the traced wall-clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

import timing
from tracing import Recorder, self_times, span_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for pooled rounds (query caches, worker measurement
#: files); removed when the run ends.
WORKDIR = ROOT / ".perfbench_work"
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 8
#: Share of traced wall-clock the named layers must account for.
COVERAGE_FLOOR = 0.95
WORKLOADS = ("unittests", "apps", "wide-certify", "pooled")

#: Per-layer self-time metrics: metric name -> span layer.
SELF_METRICS = {
    "ir.parse_s": "ir.parse",
    "ir.clone_s": "ir.clone",
    "opt.passes_self_s": "opt.passes",
    "tv.plugin_self_s": "tv.plugin",
    "harness.self_s": "harness",
    "analysis.lint_s": "analysis.lint",
    "refinement.self_s": "refinement",
    "ir.unroll_s": "ir.unroll",
    "analysis.memdf_s": "analysis.memdf",
    "analysis.relational_s": "analysis.relational",
    "semantics.encode_s": "semantics.encode",
    "analysis.prescreen_s": "analysis.prescreen",
    "egraph.screen_s": "egraph.screen",
    "engine.qcache_s": "engine.qcache",
    "smt.ef_s": "smt.ef",
    "smt.check_self_s": "smt.check",
    "smt.bitblast_s": "smt.bitblast",
    "sat.solve_s": "sat.solve",
    "sat.certify_s": "sat.certify",
}
#: Per-layer call counts: metric name -> span layer.
CALL_METRICS = {
    "ir.clone_calls": "ir.clone",
    "smt.solver_checks": "smt.check",
    "sat.solve_calls": "sat.solve",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import the validator, build the inputs."""
    t0 = time.perf_counter()
    import workloads

    workloads.build_inputs(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int, probes: int) -> List[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def collect_pairs(rec, rnd, samples: Dict[str, List[float]]) -> None:
    """Add the round's job times, at the host speed of the moment each
    job ran, to ``samples``."""
    jobs = rec.pair_samples + [p for entry in rnd.worker_entries for p in entry["pairs"]]
    rec.pair_samples = []
    for pair, seconds in jobs:
        scale = rnd.local_scale.get(pair.rpartition("#")[0], 1.0)
        samples[pair].append(seconds * scale)


def throughput(rnd) -> float:
    """Pairs that reached a verdict per wall-clock second of the round."""
    return (rnd.pairs - rnd.failed) / rnd.wall_s


def pairs_per_s(rounds) -> float:
    """The ``pairs_per_s`` metric: the rounds' verdicts on the inputs the
    seed does not change over the rounds' seconds on that part of the
    pass (see :meth:`workloads.Round.pass_s`).  Not a median of rounds:
    on ``wide-certify`` fast and slow rounds alternate, so a median
    jumps with the parity of the round count."""
    return sum(r.fixed_verdicts for r in rounds) / sum(r.pass_s() for r in rounds)


def another_round(deadline: float, last) -> bool:
    """Whether a round like ``last`` would end less than half a round
    past the deadline, so a run measures about ``--seconds`` seconds."""
    return time.perf_counter() + last.wall_s / 2 < deadline


def end_to_end(args, workloads, inputs, rec) -> tuple:
    # Half the set-up probes before the rounds and half after, so the
    # median is not taken from one moment of the host's load.
    setups = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    rec.calibrate = True
    # One round before the clock starts fills the caches a long-running
    # validator keeps warm; its verdicts are checked and counted too.
    warmup = workloads.run_round(args.workload, inputs, rec, str(WORKDIR), 0)
    rec.pair_samples = []
    samples: Dict[str, List[float]] = defaultdict(list)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or another_round(deadline, rounds[-1]):
        rnd = workloads.run_round(args.workload, inputs, rec, str(WORKDIR), len(rounds) + 1)
        collect_pairs(rec, rnd, samples)
        rounds.append(rnd)
    rec.calibrate = False
    setups += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    # Every figure is taken over the inputs the seed does not change (the
    # handwritten tests): over random seeds the 24 generated tests alone
    # move the corpus-wide p50 by about a third of its median, and one
    # slow generated test can halve a pass's throughput.
    rate = pairs_per_s(rounds)
    # A job's time to verdict is its CPU time (see tracing.py) at the
    # nominal host speed, and its median over the run's rounds stands for
    # it; p50 and the tail are order statistics over the jobs.  On pooled
    # only the cold pass's jobs count: whether the query cache serves a
    # warm job depends on which worker runs it (each worker reads only its
    # own shards), so warm jobs near the median flip between a hit and a
    # miss from run to run.  The cache's effect shows in pairs_per_s.
    fixed = set(workloads.fixed_inputs(args.workload, inputs))
    pairs_ms = [
        1000.0 * statistics.median(times)
        for job, times in samples.items()
        if not job.startswith("warm:")
        and job.rpartition(":")[2].rpartition("#")[0] in fixed
    ]
    pct = timing.tail_percentile(len(pairs_ms))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
        r.child_rss_kb for r in rounds
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pairs_per_s": (rate, "1/s"),
        "pair_p50_ms": (timing.percentile(pairs_ms, 50), "ms"),
        "pair_tail_ms": (timing.percentile(pairs_ms, pct), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(f"rounds: {len(rounds)} after one warm-up; all pairs/s per round as measured: "
          + " ".join(f"{throughput(r):.2f}" for r in rounds))
    print("host speed per round (nominal kernel wall-clock time / measured): "
          + " ".join(f"{r.wall_scale:.2f}" for r in rounds))
    print("fixed-input pairs/s per round at nominal speed (as measured): " + " ".join(
        f"{r.fixed_verdicts / r.pass_s():.2f} ({r.fixed_verdicts * r.wall_scale / r.pass_s():.2f})"
        for r in rounds))
    print("setup probes (s): " + " ".join(f"{s:.3f}" for s in setups))
    print(f"pair_p50_ms and pair_tail_ms (p{pct:g}) over the median CPU time at "
          f"nominal speed of each of {len(pairs_ms)} jobs on {len(fixed)} inputs "
          "the seed does not change")
    return [warmup] + rounds, metrics, []


def layer_metrics(rec, rnd) -> Dict[str, float]:
    """Per-layer figures of one traced round: the parent's spans plus
    what the pool workers reported."""
    selfs = Counter(self_times(rec.spans))
    calls = Counter(span_calls(rec.spans))
    counts = Counter(rec.counts)
    worker_s = 0.0
    for entry in rnd.worker_entries:
        selfs.update(entry.get("self", {}))
        calls.update(entry.get("calls", {}))
        counts.update(entry.get("counts", {}))
        worker_s += entry["test_s"]
    # The parent waits in the pool while workers run the tests; the
    # workers' test time replaces that wait on the traced timeline.
    pool_wait = selfs.pop("engine.pool", 0.0)
    timeline = rnd.wall_s - pool_wait + worker_s
    attributed = sum(selfs.values())
    out = {name: selfs.get(layer, 0.0) for name, layer in SELF_METRICS.items()}
    out.update({name: calls.get(layer, 0) for name, layer in CALL_METRICS.items()})
    out.update({
        "smt.ef_iterations": counts["smt.ef_iterations"],
        "sat.conflicts": counts["sat.conflicts"],
        "analysis.prescreen_discharge_ratio": _ratio(
            counts["prescreen.discharged"], counts["prescreen.attempts"]),
        "egraph.proved_ratio": _ratio(counts["egraph.proved"], counts["egraph.attempts"]),
        "engine.qcache_hit_ratio": _ratio(rnd.warm_hits, rnd.warm_lookups),
        "engine.worker_busy_frac": rnd.busy_s / (rnd.workers * rnd.wall_s),
        "engine.pool_wait_s": pool_wait,
        "trace.wall_s": timeline,
        "unattributed_s": timeline - attributed,
        "trace.coverage": attributed / timeline,
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger_gate(missing: List[str], coverage: float) -> List[str]:
    """What keeps a traced run from counting: a traced callable that was
    not found, or named layers that cover less than
    :data:`COVERAGE_FLOOR` of the traced wall-clock."""
    problems = []
    if missing:
        problems.append("callables not found, their layers read 0: " + ", ".join(missing))
    if coverage < COVERAGE_FLOOR:
        problems.append(f"named layers cover {coverage:.1%} of traced wall-clock, "
                        f"below {COVERAGE_FLOOR:.0%}")
    return problems


def traced(args, workloads, inputs, rec) -> tuple:
    """Alternate untraced and traced rounds; per-layer figures are medians
    over the traced rounds."""
    plain, spans = [], []
    per_round: Dict[str, List[float]] = defaultdict(list)
    missing: List[str] = []
    deadline = time.perf_counter() + args.seconds
    while not (plain and spans) or another_round(deadline, rnd):
        index = len(plain) + len(spans)
        if len(plain) <= len(spans):
            rnd = workloads.run_round(args.workload, inputs, rec, str(WORKDIR), index)
            plain.append(rnd)
            continue
        missing = rec.start_tracing()
        try:
            rnd = workloads.run_round(args.workload, inputs, rec, str(WORKDIR), index)
        finally:
            rec.stop_tracing()
        spans.append(rnd)
        for name, value in layer_metrics(rec, rnd).items():
            per_round[name].append(value)
        rec.spans = []
    rec.pair_samples = []
    metrics = {name: (statistics.median(v), _unit(name)) for name, v in per_round.items()}
    metrics["trace.overhead_pairs_per_s"] = (
        pairs_per_s(spans) - pairs_per_s(plain),
        "1/s",
    )
    print(f"rounds: {len(plain)} untraced, {len(spans)} traced")
    gate = ledger_gate(missing, metrics["trace.coverage"][0])
    wall = metrics["trace.wall_s"][0]
    shares = sorted(
        ((metrics[m][0] / wall, m) for m in SELF_METRICS), reverse=True
    )
    print("self-time shares of traced wall-clock: " + ", ".join(
        f"{m} {100 * share:.1f}%" for share, m in shares if share >= 0.005))
    return plain + spans, metrics, gate


def _unit(name: str) -> str:
    if name.endswith(("_ratio", "_frac", ".coverage")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no validator sources under {SRC}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed)
    rec = Recorder()
    rec.install_probes()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        measure = traced if args.trace else end_to_end
        rounds, metrics, gate = measure(args, workloads, inputs, rec)
    finally:
        rec.remove_probes()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(r.pairs for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sorted({name for r in rounds for name in r.wrong})
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {failed}/{attempted} pairs (TIMEOUT+OOM+CRASH+SOLVER_UNSOUND)")
    print(f"wrong_verdicts: {len(wrong)}")
    if wrong:
        print("verdicts contradicting the known answer: " + ", ".join(wrong),
              file=sys.stderr)
    for problem in gate:
        print(f"trace gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    if wrong:
        return 1
    return 3 if gate else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
