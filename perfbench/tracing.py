"""Measurement from outside the validator: reversible wrappers around the
public callables each layer calls into.

Two kinds of wrapper exist:

* **probes** stay installed for the whole run.  One times every
  refinement job at ``harness.isolation.run_verification_job`` (the
  per-pair time to verdict, in CPU time); one names the test in flight by wrapping
  ``harness.faults.current_test``, so pair times get stable ids.
* **spans** are installed only for a traced pass and removed right after
  it.  Each records ``[layer, start, end, parent, pair id]`` in memory;
  a layer's self time is its spans' durations minus their child spans.

Every wrapper replaces the name where the caller looks it up (for
example ``repro.refinement.check.unroll_function``), never code under
``src/``.  Pool workers are forked with the wrappers in place; at the
end of each test a worker appends what it measured to a JSON-lines file
in the pass's directory, which the parent reads after the pass.

While ``calibrate`` is set, each test starts with one call of the
reference kernel (see ``hostspeed.py``) in the process that runs it,
which states that process's speed at that moment.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed

perf_counter = time.perf_counter
#: A job runs in one thread of one process, so its CPU time is its time to
#: verdict less what the hypervisor stole: up to a fifth of a busy vCPU
#: on a shared 2-vCPU host, and varying from run to run.
process_time = time.process_time


def vmrss_kb() -> int:
    """This process's resident set size now, from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


class Patches:
    """Attribute replacements that can be undone exactly, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def resolve(path: str) -> Tuple[object, str]:
    """``"repro.ir.module:Module.clone"`` -> (``Module`` class, ``"clone"``)."""
    module_name, _, attr_path = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the callable is gone
    return owner, attr


# Post-call hooks: count work at the boundary where it happens.
def _ef_iterations(rec, args, result, before) -> None:
    rec.counts["smt.ef_iterations"] += result.iterations


def _sat_conflicts_before(args):
    return args[0].stats.conflicts


def _sat_conflicts(rec, args, result, before) -> None:
    rec.counts["sat.conflicts"] += args[0].stats.conflicts - before


def _prescreen_outcome(rec, args, result, before) -> None:
    rec.counts["prescreen.attempts"] += 1
    rec.counts["prescreen.discharged"] += bool(result)


def _egraph_outcome(rec, args, result, before) -> None:
    rec.counts["egraph.attempts"] += 1
    rec.counts["egraph.proved"] += bool(result[0])


#: (layer, callable as "module:attribute", pre hook, post hook).  The
#: module part is where the caller looks the name up.
SPAN_TABLE: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("ir.parse", "repro.suite.runner:parse_module", None, None),
    ("ir.clone", "repro.ir.module:Module.clone", None, None),
    ("opt.passes", "repro.opt.passmanager:PassManager.run", None, None),
    ("tv.plugin", "repro.suite.runner:validate_pipeline", None, None),
    ("tv.plugin", "workloads:validate_pipeline", None, None),
    ("harness", "repro.suite.runner:run_verification_job", None, None),
    ("harness", "repro.tv.plugin:run_verification_job", None, None),
    ("analysis.lint", "repro.harness.isolation:lint_gate", None, None),
    ("refinement", "repro.harness.isolation:verify_refinement", None, None),
    ("ir.unroll", "repro.refinement.check:unroll_function", None, None),
    ("analysis.memdf", "repro.refinement.check:analyze_memdf", None, None),
    ("analysis.relational", "repro.refinement.check:analyze_relational", None, None),
    ("semantics.encode", "repro.semantics.encoder:_Encoder.encode", None, None),
    ("analysis.prescreen", "repro.analysis.prescreen:Prescreener.__init__", None, None),
    ("analysis.prescreen", "repro.analysis.prescreen:Prescreener.screen_sat", None, _prescreen_outcome),
    ("analysis.prescreen", "repro.analysis.prescreen:Prescreener.screen_query", None, _prescreen_outcome),
    ("analysis.prescreen", "repro.analysis.prescreen:Prescreener.screen_memory", None, _prescreen_outcome),
    ("egraph.screen", "repro.egraph.simplify:EgraphSimplifier.simplify", None, None),
    ("egraph.screen", "repro.egraph.simplify:EgraphSimplifier.screen_query", None, _egraph_outcome),
    ("engine.qcache", "repro.engine.qcache:canonical_fingerprint", None, None),
    ("engine.qcache", "repro.engine.qcache:QueryCache.lookup", None, None),
    ("engine.qcache", "repro.engine.qcache:QueryCache.store", None, None),
    ("engine.pool", "repro.engine.pool:run_parallel", None, None),
    ("smt.ef", "repro.refinement.check:solve_exists_forall", None, _ef_iterations),
    ("smt.check", "repro.smt.solver:SmtSolver.check", None, None),
    ("smt.bitblast", "repro.smt.bitblast:BitBlaster.assert_term", None, None),
    ("sat.solve", "repro.sat.solver:SatSolver.solve", _sat_conflicts_before, _sat_conflicts),
    ("sat.certify", "repro.smt.solver:check_events", None, None),
]


class Recorder:
    """What one benchmark process measures: pair times always, spans and
    counts while tracing.  Forked pool workers inherit a copy."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self.flush_dir: Optional[str] = None
        self.phase = ""  # distinguishes the passes of one pooled round
        self.test: Optional[str] = None
        self.ordinal = 0
        self.pair: Optional[str] = None
        self.pair_samples: List[Tuple[str, float]] = []  # (pair id, CPU s)
        self.tracing = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        #: Run the reference kernel at each test's start (untraced runs).
        self.calibrate = False
        #: (pass prefix + test, CPU s, wall-clock s) of each reference-kernel call.
        self.ref_samples: List[Tuple[str, float, float]] = []
        self._test_start = 0.0
        #: A pool worker's resident set at its first test: what the fork
        #: shared with the parent, left out of the worker's own peak.
        self._rss_base_kb: Optional[int] = None
        self._probes = Patches()
        self._spans = Patches()

    # -- probes -------------------------------------------------------------
    def install_probes(self) -> None:
        rec = self
        for path in (
            "repro.suite.runner:run_verification_job",
            "repro.tv.plugin:run_verification_job",
        ):
            self._probes.replace(*resolve(path), self._timed_job)

        def scope(original):
            @contextlib.contextmanager
            def current_test(name):
                rec.begin_test(name)
                try:
                    with original(name):
                        yield
                finally:
                    rec.end_test()

            return current_test

        self._probes.replace(*resolve("repro.harness.faults:current_test"), scope)

    def remove_probes(self) -> None:
        self._probes.restore()

    def _timed_job(self, original):
        rec = self

        @functools.wraps(original)
        def job(*args, **kwargs):
            rec.ordinal += 1
            pair = f"{rec.phase}{rec.test}#{rec.ordinal}"
            rec.pair = pair
            t0 = process_time()
            try:
                return original(*args, **kwargs)
            finally:
                rec.pair_samples.append((pair, process_time() - t0))
                rec.pair = None

        return job

    def begin_test(self, name: str) -> None:
        self.test, self.ordinal = name, 0
        if self.in_worker():
            # Drop whatever the fork copied from the parent.
            self.pair_samples = []
            self.spans, self.stack = [], []
            self.counts = Counter()
            self.ref_samples = []
            if self._rss_base_kb is None:
                self._rss_base_kb = vmrss_kb()
        if self.calibrate:
            self.ref_samples.append((f"{self.phase}{name}", *hostspeed.kernel()))
        self._test_start = perf_counter()

    def end_test(self) -> None:
        if self.in_worker():
            self.flush_worker()

    def in_worker(self) -> bool:
        return os.getpid() != self.parent_pid

    def flush_worker(self) -> None:
        """Append this worker's measurements for the test just finished."""
        entry = {
            "pid": os.getpid(),
            "pairs": self.pair_samples,
            "rss_growth_kb": max(
                0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self._rss_base_kb
            ),
            "test_s": perf_counter() - self._test_start,
            "ref": self.ref_samples,
        }
        if self.tracing:
            entry["self"] = self_times(self.spans)
            entry["calls"] = span_calls(self.spans)
            entry["counts"] = dict(self.counts)
        path = os.path.join(self.flush_dir, f"w-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        self.pair_samples, self.ref_samples = [], []

    # -- spans --------------------------------------------------------------
    def start_tracing(self) -> List[str]:
        """Install every span wrapper; returns the callables not found,
        whose layers then read zero (the coverage figure shows the loss)."""
        self.spans, self.stack = [], []
        self.counts = Counter()
        missing = []
        for layer, path, pre, post in SPAN_TABLE:
            try:
                owner, attr = resolve(path)
            except (ImportError, AttributeError):
                missing.append(path)
                continue
            self._spans.replace(
                owner, attr, functools.partial(self._span, layer, pre, post)
            )
        self.tracing = True
        return missing

    def stop_tracing(self) -> None:
        self._spans.restore()
        self.tracing = False

    def _span(self, layer, pre, post, original):
        rec = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans, stack = rec.spans, rec.stack
            idx = len(spans)
            entry = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, rec.pair]
            spans.append(entry)
            stack.append(idx)
            before = pre(args) if pre is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(rec, args, result, before)
            return result

        return traced


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per layer: span durations minus the durations of their children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for i, (layer, start, end, _, _) in enumerate(spans):
        out[layer] += (end - start) - child[i]
    return dict(out)


def span_calls(spans: List[list]) -> Dict[str, int]:
    return dict(Counter(span[0] for span in spans))


def read_worker_files(directory: str) -> List[dict]:
    """Every entry the pool workers of one pass appended, oldest first."""
    entries: List[dict] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("w-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                entries.extend(json.loads(line) for line in fh if line.strip())
    return entries
