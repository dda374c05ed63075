"""Aggregation of validation outcomes into the paper's outcome classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.prescreen import MEMDF_RULES, RELATIONAL_RULES
from repro.harness.counters import add as add_counters
from repro.refinement.check import RefinementResult, Verdict


@dataclass
class ValidationRecord:
    """One validated (source, target) pair."""

    function: str
    pass_name: str
    result: RefinementResult


@dataclass
class Tally:
    """The outcome columns of Figure 7."""

    correct: int = 0
    incorrect: int = 0
    timeout: int = 0
    oom: int = 0
    unsupported: int = 0
    approx: int = 0
    crash: int = 0  # validator failures contained by the harness
    solver_unsound: int = 0  # UNSAT claims the proof checker rejected
    skipped_unchanged: int = 0
    total_time_s: float = 0.0
    # What every layer did, summed over the results (see
    # repro.harness.counters), plus the query-cache tier's load cost.
    counters: Dict[str, int] = field(default_factory=dict)
    phase_time_s: Dict[str, float] = field(default_factory=dict)

    def add(self, result: RefinementResult) -> None:
        self.add_verdict(result.verdict, result.elapsed_s)
        for phase, seconds in result.phase_times.items():
            self.phase_time_s[phase] = self.phase_time_s.get(phase, 0.0) + seconds
        add_counters(self.counters, result.counters)

    def add_verdict(self, verdict: Verdict, elapsed_s: float = 0.0) -> None:
        """Count one outcome; used directly when replaying journal entries."""
        self.total_time_s += elapsed_s
        if verdict is Verdict.CORRECT:
            self.correct += 1
        elif verdict is Verdict.INCORRECT:
            self.incorrect += 1
        elif verdict is Verdict.TIMEOUT:
            self.timeout += 1
        elif verdict is Verdict.OOM:
            self.oom += 1
        elif verdict is Verdict.APPROX:
            self.approx += 1
        elif verdict is Verdict.CRASH:
            self.crash += 1
        elif verdict is Verdict.SOLVER_UNSOUND:
            self.solver_unsound += 1
        else:
            self.unsupported += 1

    @property
    def qcache_hits(self) -> int:
        return self.counters.get("qcache.hits", 0)

    @property
    def qcache_misses(self) -> int:
        return self.counters.get("qcache.misses", 0)

    @property
    def analyzed(self) -> int:
        return (
            self.correct
            + self.incorrect
            + self.timeout
            + self.oom
            + self.unsupported
            + self.approx
            + self.crash
            + self.solver_unsound
        )

    def row(self) -> Dict[str, object]:
        return {
            "pairs": self.analyzed + self.skipped_unchanged,
            "diff": self.analyzed,
            "correct": self.correct,
            "incorrect": self.incorrect,
            "timeout": self.timeout,
            "oom": self.oom,
            "crash": self.crash,
            "solver_unsound": self.solver_unsound,
            "unsupported": self.unsupported + self.approx,
            "time_s": round(self.total_time_s, 2),
        }


@dataclass
class ValidationReport:
    records: List[ValidationRecord] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def add(self, record: ValidationRecord) -> None:
        self.records.append(record)
        self.tally.add(record.result)

    def failures(self) -> List[ValidationRecord]:
        return [
            r for r in self.records if r.result.verdict is Verdict.INCORRECT
        ]

    def summary(self) -> str:
        t = self.tally
        text = (
            f"{t.analyzed} analyzed ({t.skipped_unchanged} unchanged skipped): "
            f"{t.correct} correct, {t.incorrect} incorrect, "
            f"{t.timeout} timeout, {t.oom} OOM, {t.crash} crash, "
            f"{t.unsupported + t.approx} unsupported/approx "
            f"[{t.total_time_s:.1f}s]"
        )
        if t.solver_unsound:
            text += f" [SOLVER UNSOUND: {t.solver_unsound}]"
        text += "".join(f" [{line}]" for line in counter_lines(t.counters))
        if t.phase_time_s:
            phases = ", ".join(
                f"{k}={v:.2f}s"
                for k, v in sorted(t.phase_time_s.items())
            )
            text += f" [phases: {phases}]"
        return text


def _rate(hits: int, misses: int) -> str:
    return f"{hits / (hits + misses):.0%}" if hits + misses else "0%"


def counter_lines(counters: Dict[str, int]) -> List[str]:
    """One summary line per layer that did anything, for the CLI and
    :meth:`ValidationReport.summary` alike."""
    c = counters.get
    lines = []
    hits, misses = c("qcache.hits", 0), c("qcache.misses", 0)
    if hits or misses:
        lines.append(
            f"query cache: {hits} hits / {misses} misses "
            f"({_rate(hits, misses)} hit rate)"
        )
    loaded = (c("qcache.load_entries", 0), c("qcache.load_bytes", 0))
    if any(loaded) or c("qcache.evictions"):
        lines.append(
            f"cache tier: {loaded[0]} entries / {loaded[1]} bytes loaded "
            f"across workers, {c('qcache.evictions', 0)} LRU evictions"
        )
    hits, misses = c("prescreen.discharged", 0), c("prescreen.passed", 0)
    if hits or misses:
        lines.append(
            f"prescreen: {hits} discharged / {misses} passed to solver "
            f"({_rate(hits, misses)} hit rate)"
        )
    if c("lint.errors") or c("lint.warnings"):
        lines.append(
            f"lint: {c('lint.errors', 0)} errors, "
            f"{c('lint.warnings', 0)} warnings"
        )
    egraph = [c(f"egraph.{k}", 0) for k in ("proved", "shrunk", "unchanged")]
    if any(egraph):
        lines.append(
            f"egraph: {egraph[0]} proved without solver, {egraph[1]} shrunk, "
            f"{egraph[2]} unchanged"
        )
    memdf = sum(c(f"prescreen.{rule}", 0) for rule in MEMDF_RULES)
    narrowed, skips = c("memdf.narrowed", 0), c("memdf.block_skips", 0)
    if memdf or narrowed or skips:
        lines.append(
            f"memdf: {memdf} queries discharged by memory rules, "
            f"{narrowed} accesses narrowed, {skips} block case-splits pruned"
        )
    relational = sum(c(f"prescreen.{rule}", 0) for rule in RELATIONAL_RULES)
    seeds, aligned = c("relational.seed_pairs", 0), c("relational.aligned_blocks", 0)
    if relational or seeds or aligned:
        lines.append(
            f"relational: {relational} queries discharged by "
            f"R-relational-equal, {seeds} witness pairs seeded, "
            f"{aligned} certified block pairs aligned"
        )
    if c("smt.certified") or c("smt.cert_failed"):
        lines.append(
            f"certified: {c('smt.certified', 0)} UNSAT proofs accepted, "
            f"{c('smt.cert_failed', 0)} rejected, "
            f"{c('smt.core_lits', 0)} core lits"
        )
    return lines
