"""The refinement check (§5) and its query sequence (§5.3).

Given a (source, target) pair, we encode both functions over *shared*
input variables and check the final refinement formula of §5.2 by a
sequence of simpler exists-forall queries — the same decomposition the
paper uses to produce precise error messages and to help the solver:

1. a precondition is unsatisfiable (encoding bug / limitation),
2. the target triggers UB only when the source does,
3. the return/noreturn domains agree (unless the source is UB),
4. the target returns poison only when the source does,
5+6. the target's return value refines the source's (our per-reading
   undef encoding folds the paper's separate undef query into this one),
7. final memory refines.

Each query is solved by CEGAR over the source-side nondeterminism
(:mod:`repro.smt.exists_forall`); both verdicts are sound, and resource
exhaustion is reported as TIMEOUT / OOM, mirroring the paper's outcome
classes.
"""

from __future__ import annotations

import copy as _copy
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.memdf import analyze_memdf
from repro.analysis.relational import analyze_relational
from repro.analysis.prescreen import Prescreener
from repro.engine import qcache
from repro.harness import counters
from repro.harness.deadline import Deadline, DeadlineExceeded
from repro.harness.faults import maybe_fault
from repro.ir.function import Function
from repro.ir.instructions import Alloca
from repro.ir.module import Module
from repro.ir.types import PointerType
from repro.ir.unroll import UnrollError, unroll_function
from repro.semantics.encoder import (
    CallRecord,
    EncodedFunction,
    EncodeError,
    _Encoder,
)
from repro.semantics.libfuncs import pair_class_of
from repro.semantics.memory import MemoryConfig, build_layout
from repro.semantics.value import SymAggregate, SymValue
from repro.smt.exists_forall import EFOutcome, EFResult, QuantVar, solve_exists_forall
from repro.smt.solver import CheckResult, ResourceLimits, SmtSolver
from repro.smt.terms import (
    FALSE,
    TRUE,
    BoolTerm,
    Term,
    bool_and,
    bool_implies,
    bool_not,
    bool_or,
    bool_var,
    bv_const,
    bv_eq,
    bv_ule,
    bv_var,
    fresh_name,
    substitute,
    term_vars,
)


class Verdict(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    TIMEOUT = "timeout"
    OOM = "oom"
    UNSUPPORTED = "unsupported"
    APPROX = "approx"  # a counterexample touched an over-approximated feature
    EMPTY_PRE = "empty-pre"  # a precondition is unsatisfiable (check #1)
    CRASH = "crash"  # the validator itself failed; contained by the harness
    # An UNSAT the solver claimed but the independent proof checker
    # rejected (certify mode): never reported as VERIFIED.
    SOLVER_UNSOUND = "solver-unsound"


@dataclass(frozen=True)
class VerifyOptions:
    """Verification knobs mirroring the paper's command-line options."""

    unroll_factor: int = 4
    timeout_s: Optional[float] = 30.0
    max_conflicts: Optional[int] = None
    max_learned_lits: Optional[int] = 2_000_000
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    check_memory: bool = True
    max_ef_iterations: int = 32
    # Static-analysis prescreen (repro.analysis): discharge queries whose
    # outcome dataflow facts already prove, and fold known-constant bits
    # in the encoder before bit-blasting.  Sound both ways (it may only
    # prove, never refute); --no-prescreen ablates it.
    prescreen: bool = True
    # E-graph equality saturation (repro.egraph): the solver-ladder rung
    # between the prescreen and CEGAR.  Saturating the certified rewrite
    # rules can prove a query outright (psi == TRUE / phi == FALSE, no
    # SAT call) or shrink the terms fed to the bit-blaster.  Sound both
    # ways for the same reason the prescreen is: rules are exact
    # equivalences, so it may only prove, never refute.  --no-egraph
    # ablates it; the degradation ladder halves egraph_max_nodes on
    # TIMEOUT retries.
    egraph: bool = True
    egraph_max_nodes: int = 512
    egraph_max_iterations: int = 8
    # Memory-aware static analysis (repro.analysis.pointsto/memdf):
    # points-to provenance + store/load dataflow facts feeding the
    # R-alias-disjoint / R-load-forward / R-oob-ub prescreen rules, the
    # encoder's aliasing-case-split pruning, and the memory-refinement
    # block skip.  Prove-only and encoding-shrinking — never changes a
    # verdict; --no-memdf ablates it and the degradation ladder turns it
    # off under MEMOUT (the memo tables cost memory).
    memdf: bool = True
    # Relational analysis (repro.analysis.relational): product-CFG block
    # alignment + relational value numbering across the (src, tgt) pair.
    # Feeds the R-relational-equal prescreen rule, cross-function
    # witness seeds and candidate ranking for the e-graph/CEGAR rungs,
    # and alignment-aware counterexample notes.  Prove-only and seed-only — never changes a verdict;
    # --no-relational ablates it and the degradation ladder turns it off
    # under MEMOUT.
    relational: bool = True
    # Self-certifying mode (--certify): every UNSAT the solver stack
    # claims must carry a proof the independent RUP checker accepts; a
    # rejected proof downgrades the verdict to SOLVER_UNSOUND instead of
    # VERIFIED, and only certified UNSAT entries replay from the query
    # cache.
    certify: bool = False

    def limits(self) -> ResourceLimits:
        return ResourceLimits(
            timeout_s=self.timeout_s,
            max_conflicts=self.max_conflicts,
            max_learned_lits=self.max_learned_lits,
        )

    # -- wire format (repro.serve) ------------------------------------------
    def to_json(self) -> dict:
        """A JSON-serializable snapshot; the verification service ships
        options over its line-delimited protocol with this."""
        return {
            "unroll_factor": self.unroll_factor,
            "timeout_s": self.timeout_s,
            "max_conflicts": self.max_conflicts,
            "max_learned_lits": self.max_learned_lits,
            "memory": {
                "off_bits": self.memory.off_bits,
                "arg_block_bytes": self.memory.arg_block_bytes,
                "max_blocks": self.memory.max_blocks,
            },
            "check_memory": self.check_memory,
            "max_ef_iterations": self.max_ef_iterations,
            "prescreen": self.prescreen,
            "egraph": self.egraph,
            "egraph_max_nodes": self.egraph_max_nodes,
            "egraph_max_iterations": self.egraph_max_iterations,
            "memdf": self.memdf,
            "relational": self.relational,
            "certify": self.certify,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VerifyOptions":
        """Inverse of :meth:`to_json`; unknown keys are ignored and missing
        keys take the dataclass defaults, so old clients keep working."""
        defaults = cls()
        mem_data = data.get("memory") or {}
        memory = MemoryConfig(
            off_bits=int(mem_data.get("off_bits", defaults.memory.off_bits)),
            arg_block_bytes=int(
                mem_data.get("arg_block_bytes", defaults.memory.arg_block_bytes)
            ),
            max_blocks=int(mem_data.get("max_blocks", defaults.memory.max_blocks)),
        )
        timeout_s = data.get("timeout_s", defaults.timeout_s)
        max_conflicts = data.get("max_conflicts", defaults.max_conflicts)
        max_learned = data.get("max_learned_lits", defaults.max_learned_lits)
        return cls(
            unroll_factor=int(data.get("unroll_factor", defaults.unroll_factor)),
            timeout_s=None if timeout_s is None else float(timeout_s),
            max_conflicts=None if max_conflicts is None else int(max_conflicts),
            max_learned_lits=None if max_learned is None else int(max_learned),
            memory=memory,
            check_memory=bool(data.get("check_memory", defaults.check_memory)),
            max_ef_iterations=int(
                data.get("max_ef_iterations", defaults.max_ef_iterations)
            ),
            prescreen=bool(data.get("prescreen", defaults.prescreen)),
            egraph=bool(data.get("egraph", defaults.egraph)),
            egraph_max_nodes=int(
                data.get("egraph_max_nodes", defaults.egraph_max_nodes)
            ),
            egraph_max_iterations=int(
                data.get("egraph_max_iterations", defaults.egraph_max_iterations)
            ),
            memdf=bool(data.get("memdf", defaults.memdf)),
            relational=bool(data.get("relational", defaults.relational)),
            certify=bool(data.get("certify", defaults.certify)),
        )


@dataclass
class RefinementResult:
    verdict: Verdict
    failed_check: Optional[str] = None
    counterexample: Dict[str, object] = field(default_factory=dict)
    approx_features: List[str] = field(default_factory=list)
    unsupported_feature: Optional[str] = None
    elapsed_s: float = 0.0
    # Degradation-ladder steps taken before this verdict was reached.
    degradations: List[str] = field(default_factory=list)
    # Structured crash record when the harness contained a failure.
    diagnostic: Optional[Dict[str, object]] = None
    # Certify mode: proof certificates gathered across the query sequence
    # (one per UNSAT answer) and human-readable notes such as the unsat-
    # core classification of a confirmed counterexample.
    certificates: List[object] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # Wall-clock seconds per pipeline phase (prescreen/egraph/encode/
    # solve), for perf attribution; never part of --verdicts-out.
    phase_times: Dict[str, float] = field(default_factory=dict)
    # What each layer did for this verdict (prescreen discharges, solver
    # checks, certified proofs, ...), collected by repro.harness.counters;
    # never part of --verdicts-out.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.CORRECT

    def to_json(self, full_certificates: bool = False) -> dict:
        """A JSON-serializable summary for the verification service.

        Counterexample values may be rich objects (symbolic aggregates);
        anything that is not already a JSON scalar is stringified.  Proof
        certificates default to a summary (validity + core size): the
        full record would dwarf the verdict.  ``full_certificates=True``
        (the serve protocol's ``certificates=full`` request field) ships
        every :class:`repro.sat.proof.Certificate` field — query name,
        CNF digest, rejection reason, lemma/deletion/checked counts and
        the unsat-core literals — so a client can audit which queries
        were proof-checked and reconstruct core-based diagnostics.
        """

        def scalar(v: object) -> object:
            return v if isinstance(v, (int, float, str, bool, type(None))) else str(v)

        def cert_json(c: object) -> dict:
            out = {
                "valid": bool(getattr(c, "valid", False)),
                "core_lits": len(getattr(c, "core", ()) or ()),
            }
            if full_certificates:
                out.update(
                    {
                        "query": getattr(c, "query", ""),
                        "digest": getattr(c, "digest", ""),
                        "reason": getattr(c, "reason", ""),
                        "lemmas": int(getattr(c, "lemmas", 0)),
                        "deletions": int(getattr(c, "deletions", 0)),
                        "checked_lemmas": int(getattr(c, "checked_lemmas", 0)),
                        "core": [int(l) for l in getattr(c, "core", ()) or ()],
                    }
                )
            return out

        return {
            "verdict": self.verdict.value,
            "failed_check": self.failed_check,
            "counterexample": {k: scalar(v) for k, v in self.counterexample.items()},
            "approx_features": list(self.approx_features),
            "unsupported_feature": self.unsupported_feature,
            "elapsed_s": self.elapsed_s,
            "degradations": list(self.degradations),
            "diagnostic": self.diagnostic,
            "certificates": [cert_json(c) for c in self.certificates],
            "notes": list(self.notes),
            "phase_times": {k: round(v, 6) for k, v in self.phase_times.items()},
            "counters": dict(self.counters),
        }

    def describe(self) -> str:
        if self.verdict is Verdict.CORRECT:
            text = "Transformation seems to be correct!"
            certified = [c for c in self.certificates if getattr(c, "valid", False)]
            if certified:
                text += f" ({len(certified)} UNSAT answers certified)"
            return text
        if self.verdict is Verdict.SOLVER_UNSOUND:
            reason = (self.diagnostic or {}).get("reason", "proof rejected")
            return (
                "SOLVER UNSOUND: the solver claimed UNSAT "
                f"(check: {self.failed_check}) but the independent proof "
                f"checker rejected the certificate ({reason})"
            )
        if self.verdict is Verdict.INCORRECT:
            lines = [
                f"Transformation doesn't verify! (check: {self.failed_check})",
                "Counterexample:",
            ]
            for name in sorted(self.counterexample):
                lines.append(f"  {name} = {self.counterexample[name]}")
            lines.extend(self.notes)
            return "\n".join(lines)
        if self.verdict is Verdict.APPROX:
            feats = ", ".join(self.approx_features) or "unknown"
            return f"Couldn't verify: depends on over-approximated features ({feats})"
        if self.verdict is Verdict.UNSUPPORTED:
            return f"Skipped: unsupported feature ({self.unsupported_feature})"
        if self.verdict is Verdict.CRASH:
            what = (self.diagnostic or {}).get("type", "unknown")
            return f"Validator crashed ({what}); contained by the harness"
        return f"Gave up: {self.verdict.value}"


def verify_refinement(
    src: Function,
    tgt: Function,
    module_src: Module,
    module_tgt: Optional[Module] = None,
    options: Optional[VerifyOptions] = None,
) -> RefinementResult:
    """Check that ``tgt`` refines ``src`` (the core Alive2 operation).

    ``options.timeout_s`` bounds the *whole job*: a single
    :class:`Deadline` covers deepcopy, unroll, encode, and every solver
    query, with cooperative checkpoints inside the unroller and the
    encoder.  A job whose pre-solver phases exceed the budget returns
    ``Verdict.TIMEOUT`` instead of running unbounded.
    """
    options = options or VerifyOptions()
    start = time.monotonic()
    deadline = Deadline.start(options.timeout_s)
    module_tgt = module_tgt if module_tgt is not None else module_src

    def done(result: RefinementResult) -> RefinementResult:
        result.elapsed_s = time.monotonic() - start
        return result

    with counters.collect() as collected:
        try:
            result = _verify_with_deadline(
                src, tgt, module_src, module_tgt, options, deadline
            )
        except DeadlineExceeded as exc:
            result = RefinementResult(Verdict.TIMEOUT, failed_check=exc.phase)
    result.counters = collected
    return done(result)


def _verify_with_deadline(
    src: Function,
    tgt: Function,
    module_src: Module,
    module_tgt: Module,
    options: VerifyOptions,
    deadline: Deadline,
) -> RefinementResult:
    def done(result: RefinementResult) -> RefinementResult:
        return result

    if src.is_declaration or tgt.is_declaration:
        return done(
            RefinementResult(Verdict.UNSUPPORTED, unsupported_feature="declaration")
        )
    if [(
        a.type
    ) for a in src.args] != [a.type for a in tgt.args] or src.return_type != tgt.return_type:
        return done(
            RefinementResult(
                Verdict.UNSUPPORTED, unsupported_feature="signature-mismatch"
            )
        )

    # Unroll copies up front so both functions share one memory layout.
    # Everything from deepcopy through encoding counts as the "encode"
    # phase for per-phase attribution.
    encode_start = time.monotonic()
    try:
        maybe_fault("unroll", deadline=deadline, unroll_factor=options.unroll_factor)
        deadline.check("deepcopy")
        src_unrolled = _copy.deepcopy(src)
        deadline.check("deepcopy")
        tgt_unrolled = _copy.deepcopy(tgt)
        unroll_function(src_unrolled, options.unroll_factor, deadline=deadline)
        unroll_function(tgt_unrolled, options.unroll_factor, deadline=deadline)
    except UnrollError:
        return done(
            RefinementResult(Verdict.UNSUPPORTED, unsupported_feature="irreducible-loop")
        )
    pointer_args = [a.name for a in src.args if isinstance(a.type, PointerType)]
    num_allocas = max(
        sum(1 for i in src_unrolled.instructions() if isinstance(i, Alloca)),
        sum(1 for i in tgt_unrolled.instructions() if isinstance(i, Alloca)),
    )
    globals_ = dict(module_src.globals)
    globals_.update(module_tgt.globals)
    try:
        maybe_fault("encode", deadline=deadline, unroll_factor=options.unroll_factor)
        deadline.check("layout")
        layout = build_layout(globals_, pointer_args, num_allocas, options.memory)
        memdf_src = memdf_tgt = None
        if options.memdf:
            deadline.check("memdf")
            memdf_src = analyze_memdf(src_unrolled, layout)
            memdf_tgt = analyze_memdf(tgt_unrolled, layout)
        enc_src = _Encoder(
            src_unrolled,
            module_src,
            "src",
            layout,
            deadline=deadline,
            fold_known_bits=options.prescreen,
            memdf=memdf_src,
        ).encode()
        enc_tgt = _Encoder(
            tgt_unrolled,
            module_tgt,
            "tgt",
            layout,
            deadline=deadline,
            fold_known_bits=options.prescreen,
            memdf=memdf_tgt,
        ).encode()
    except EncodeError as exc:
        return done(
            RefinementResult(Verdict.UNSUPPORTED, unsupported_feature=exc.feature)
        )
    except ValueError as exc:
        return done(
            RefinementResult(Verdict.UNSUPPORTED, unsupported_feature=str(exc))
        )

    maybe_fault("solve", deadline=deadline, unroll_factor=options.unroll_factor)
    deadline.check("solve")
    relational = None
    if options.relational:
        deadline.check("relational")
        try:
            relational = analyze_relational(
                src_unrolled, tgt_unrolled, memdf_src, memdf_tgt
            )
        except (RecursionError, OverflowError):
            relational = None  # prove-only layer: degrade silently
    prescreener = (
        Prescreener(
            src_unrolled, tgt_unrolled, memdf_src, memdf_tgt, relational
        )
        if options.prescreen
        else None
    )
    checker = _RefinementChecker(
        enc_src,
        enc_tgt,
        options,
        deadline=deadline,
        prescreener=prescreener,
        memdf_src=memdf_src,
        memdf_tgt=memdf_tgt,
        relational=relational,
    )
    checker.phase_times["encode"] = time.monotonic() - encode_start
    return done(checker.run())


class _RefinementChecker:
    def __init__(
        self,
        src: EncodedFunction,
        tgt: EncodedFunction,
        options: VerifyOptions,
        deadline: Optional[Deadline] = None,
        prescreener: Optional[Prescreener] = None,
        memdf_src=None,
        memdf_tgt=None,
        relational=None,
    ) -> None:
        self.src = src
        self.tgt = tgt
        self.options = options
        self.prescreener = prescreener
        self.memdf_src = memdf_src
        self.memdf_tgt = memdf_tgt
        self.relational = relational if options.relational else None
        # The whole-job deadline; standalone construction (benchmarks)
        # falls back to a fresh budget from the options.
        self.deadline = deadline if deadline is not None else Deadline.start(
            options.timeout_s
        )
        # Rename the source's nondeterminism for the inner (forall) copy.
        self._prime_map: Dict[str, Term] = {}
        self.forall_vars: List[QuantVar] = []
        for qv in src.nondet_all:
            primed = f"{qv.name}'"
            self.forall_vars.append(QuantVar(primed, qv.width))
            if qv.width == 0:
                self._prime_map[qv.name] = bool_var(primed)
            else:
                self._prime_map[qv.name] = bv_var(primed, qv.width)
        self.pairing_src, self.pairing_tgt, self.tgt_call_ub = _pair_calls(
            src, tgt
        )
        self.env_consistency = self._cross_copy_axioms()
        self._rel_seed_pairs = 0
        self.seeds = self._build_seeds()
        # Certify mode: certificates and notes gathered across the query
        # sequence, attached to whatever result ends the run.
        self._certs: List[object] = []
        self._notes: List[str] = []
        # Per-phase wall clock; "encode" is filled in by the caller.
        self.phase_times: Dict[str, float] = {
            "prescreen": 0.0,
            "egraph": 0.0,
            "solve": 0.0,
        }
        # The e-graph rung: bounded equality saturation between the
        # prescreen and CEGAR.  The deadline threads through so a slow
        # saturation can never outlive the job budget.
        self.simplifier = None
        if options.egraph:
            from repro.egraph.simplify import EgraphSimplifier

            self.simplifier = EgraphSimplifier(
                max_nodes=options.egraph_max_nodes,
                max_iterations=options.egraph_max_iterations,
                should_stop=self.deadline.expired,
            )
        self.union_seeds = self._build_union_seeds()

    def _attach(self, result: RefinementResult) -> RefinementResult:
        result.certificates = list(self._certs)
        result.phase_times = {
            k: v for k, v in self.phase_times.items() if v > 0.0
        }
        notes = list(self._notes)
        if result.phase_times:
            timing = " ".join(
                f"{k}={result.phase_times[k] * 1000:.1f}ms"
                for k in ("prescreen", "egraph", "encode", "solve")
                if k in result.phase_times
            )
            notes.append(f"phase-times: {timing}")
        result.notes = notes
        return result

    def _reject_unsound(
        self, check_name: str, bad_certs: List[object]
    ) -> RefinementResult:
        """A claimed UNSAT whose proof the checker rejected: report the
        solver, not the transformation."""
        cert = bad_certs[0]
        return self._attach(
            RefinementResult(
                Verdict.SOLVER_UNSOUND,
                failed_check=check_name,
                diagnostic={
                    "type": "solver-unsound",
                    "reason": getattr(cert, "reason", "proof rejected"),
                    "query": getattr(cert, "query", "?"),
                    "digest": getattr(cert, "digest", ""),
                    "rejected": len(bad_certs),
                },
            )
        )

    def _cross_copy_axioms(self) -> BoolTerm:
        """Environment consistency between the two source copies.

        Unknown functions are *functions*: calling f on equal inputs yields
        equal outputs.  The refinement formula re-quantifies the source's
        nondeterminism on its right-hand side, so without these axioms the
        re-chosen execution could pretend the environment answered
        differently — masking bugs like 'load of a call-clobbered global
        replaced by a constant' (§8.5's escaped-to-global tweak).
        """
        axioms: List[BoolTerm] = []
        for c in self.src.calls:
            # Relate call c in the original copy with the same call in the
            # primed copy; their arguments are syntactically the primed
            # versions of each other.
            same_inputs = TRUE
            for arg in c.args:
                arg_primed_expr = self._prime(arg.expr)
                arg_primed_poison = self._prime(arg.poison)
                same_poison = bool_not(
                    bool_or(
                        bool_and(arg.poison, bool_not(arg_primed_poison)),
                        bool_and(bool_not(arg.poison), arg_primed_poison),
                    )
                )
                same_inputs = bool_and(
                    same_inputs,
                    bool_not(arg.varies),
                    same_poison,
                    bool_or(arg.poison, bv_eq(arg.expr, arg_primed_expr)),
                )
            same_outputs = TRUE
            if c.result is not None:
                primed_poison = self._prime(c.result.poison)
                same_outputs = bool_and(
                    same_outputs,
                    bool_not(
                        bool_or(
                            bool_and(c.result.poison, bool_not(primed_poison)),
                            bool_and(bool_not(c.result.poison), primed_poison),
                        )
                    ),
                    bool_or(
                        c.result.poison,
                        bv_eq(c.result.expr, self._prime(c.result.expr)),
                    ),
                )
            for (bid, off), (v_name, p_name) in c.havoc.items():
                value = bv_var(v_name, 8)
                poison = bool_var(p_name)
                primed_value = self._prime(value)
                primed_poison = self._prime(poison)
                same_outputs = bool_and(
                    same_outputs,
                    bool_not(
                        bool_or(
                            bool_and(poison, bool_not(primed_poison)),
                            bool_and(bool_not(poison), primed_poison),
                        )
                    ),
                    bool_or(poison, bv_eq(value, primed_value)),
                )
            if same_outputs is not TRUE:
                axioms.append(bool_implies(same_inputs, same_outputs))
        return bool_and(*axioms) if axioms else TRUE

    def _build_seeds(self) -> List[Dict[str, Term]]:
        """Symbolic instantiations for the source-side universals.

        Three heuristics (all sound — any instantiation of a universal is):

        * *match*: pair each source nondet variable with the target
          variable of the same origin (same argument's undef expansion,
          same freeze/call site) — the analogue of the paper's syntactic
          instantiation trick (§3.3);
        * *identity*: reuse the outer existential copy of the source's
          own nondeterminism;
        * *defined*: send argument-undef expansions to the argument's
          defined value.
        """

        def var_term(name: str, width: int) -> Term:
            return bool_var(name) if width == 0 else bv_var(name, width)

        tgt_by_origin: Dict[str, List[Tuple[str, int]]] = {}
        for qv in self.tgt.nondet_all:
            origin = self.tgt.origin.get(qv.name)
            if origin is not None:
                tgt_by_origin.setdefault(origin, []).append((qv.name, qv.width))

        from repro.ir.fpformat import float_to_bits
        from repro.ir.types import FLOAT_TYPES
        import math

        def nan_const(width: int) -> Optional[Term]:
            for fmt in FLOAT_TYPES.values():
                if fmt.bit_width == width:
                    return bv_const(float_to_bits(math.nan, fmt), width)
            return None

        # The target's scalar return expression: the natural instantiation
        # for NaN-payload variables in identity folds (fmul x, 1.0 -> x).
        tgt_ret_expr = None
        if isinstance(self.tgt.ret_value, SymValue):
            tgt_ret_expr = self.tgt.ret_value.expr

        match_seed: Dict[str, Term] = {}
        match_last_seed: Dict[str, Term] = {}
        identity_seed: Dict[str, Term] = {}
        defined_seed: Dict[str, Term] = {}
        origin_position: Dict[str, int] = {}
        for qv in self.src.nondet_all:
            primed = f"{qv.name}'"
            identity_seed[primed] = var_term(qv.name, qv.width)
            origin = self.src.origin.get(qv.name)
            if origin is None:
                continue
            # Pair positionally: the i-th source variable of an origin maps
            # to the i-th target variable of the same origin (so identical
            # code maps to syntactically identical formulas).
            pos = origin_position.get(origin, 0)
            origin_position[origin] = pos + 1
            hits = tgt_by_origin.get(origin, [])
            if not hits and origin.rsplit("_", 1)[-1].isdigit():
                # A call-site origin with no positional twin (the target
                # deduplicated the call): fall back to any call site of the
                # same callee, which is exactly the dedup justification.
                prefix = origin.rsplit("_", 1)[0]
                for other, entries in tgt_by_origin.items():
                    if other.rsplit("_", 1)[0] == prefix and entries:
                        hits = entries
                        break
            hit = hits[min(pos, len(hits) - 1)] if hits else None
            if hit is not None and hit[1] == qv.width:
                match_seed[primed] = var_term(hit[0], qv.width)
            # Positional pairing maps same-site readings onto each other,
            # but value flow can connect a source reading to a *different*
            # use site in the target — e.g. a store-to-load forward makes
            # the source return its store-site reading while the target
            # returns its ret-site reading.  Pair every reading with the
            # target's last reading of the same origin as a second guess.
            last = hits[-1] if hits else None
            if last is not None and last[1] == qv.width:
                match_last_seed[primed] = var_term(last[0], qv.width)
            if origin.startswith("argundef_") and qv.width > 0:
                arg = origin[len("argundef_") :]
                defined_seed[primed] = bv_var(f"arg_{arg}", qv.width)
                match_seed.setdefault(primed, defined_seed[primed])
                match_last_seed.setdefault(primed, defined_seed[primed])
            if origin.startswith(("fpnan_", "nanbits_")) and qv.width > 0:
                # These variables are constrained to be NaN patterns; a zero
                # completion would falsify the precondition and void the
                # whole seed, so default them to the canonical NaN, and try
                # tracking the target's return bits.
                nan = nan_const(qv.width)
                if nan is None:
                    continue
                value: Term = nan
                if tgt_ret_expr is not None and tgt_ret_expr.width == qv.width:
                    # Track the target's return bits when they are a NaN
                    # (otherwise keep the canonical pattern so the NaN
                    # constraint — and thus the whole seed — stays alive).
                    from repro.semantics import softfloat as sf
                    from repro.smt.terms import bv_ite

                    for fmt in FLOAT_TYPES.values():
                        if fmt.bit_width == qv.width:
                            value = bv_ite(
                                sf.fp_is_nan(fmt, tgt_ret_expr), tgt_ret_expr, nan
                            )
                            break
                for seed in (
                    match_seed,
                    match_last_seed,
                    identity_seed,
                    defined_seed,
                ):
                    if primed not in seed:
                        seed[primed] = value
        seeds = [match_seed, identity_seed, defined_seed]
        if match_last_seed and match_last_seed != match_seed:
            seeds.insert(1, match_last_seed)
        # Relational seed: same positional pairing, but *across renamed
        # registers* — the relational analysis pairs src/tgt nondet sites
        # (freezes with congruent operands) whose registers the optimizer
        # renamed, which the same-origin match above cannot see.
        omap = (
            self.relational.origin_map() if self.relational is not None else {}
        )
        if omap:
            translated: Dict[str, Term] = {}
            position: Dict[str, int] = {}
            for qv in self.src.nondet_all:
                origin = self.src.origin.get(qv.name)
                if origin is None or origin not in omap:
                    continue
                pos = position.get(origin, 0)
                position[origin] = pos + 1
                hits = tgt_by_origin.get(omap[origin], [])
                hit = hits[min(pos, len(hits) - 1)] if hits else None
                if hit is not None and hit[1] == qv.width:
                    translated[f"{qv.name}'"] = var_term(hit[0], qv.width)
            if translated:
                relational_seed = dict(match_seed)
                relational_seed.update(translated)
                if relational_seed not in seeds:
                    seeds.insert(0, relational_seed)
                self._rel_seed_pairs = len(translated)
                counters.bump("relational.seed_pairs", len(translated))
        return [s for s in seeds if s]

    def _build_union_seeds(self) -> List[Tuple[Term, Term]]:
        """Term-level (src, tgt) equalities the e-graph may assume.

        The relational analysis marks a congruent register pair
        *unconditional* when its derivation is purely structural over
        shared inputs — no load forwarding, freeze pairing, phi matching
        or call adoption, whose claims only hold under the witness.  If
        additionally neither encoded term mentions a nondeterministic
        reading (so the forall-copy renaming is a no-op on both), the two
        terms are semantically equal functions of the shared argument and
        global variables, and merging them in the e-graph is ordinary
        ground congruence closure: verdict-sound in every query.
        """
        if self.relational is None or self.simplifier is None:
            return []
        src_nondet = {qv.name for qv in self.src.nondet_all}
        tgt_nondet = {qv.name for qv in self.tgt.nondet_all}
        out: List[Tuple[Term, Term]] = []
        seen = set()
        for s_name, t_name in self.relational.unconditional_pairs():
            sv = self.src.regs.get(s_name)
            tv = self.tgt.regs.get(t_name)
            if not isinstance(sv, SymValue) or not isinstance(tv, SymValue):
                continue  # aggregates: element seeds not worth the churn
            for a, b in ((sv.expr, tv.expr), (sv.poison, tv.poison)):
                if a == b or (a, b) in seen:
                    continue  # identical terms: the merge is a no-op
                if term_vars(a) & src_nondet or term_vars(b) & tgt_nondet:
                    continue
                seen.add((a, b))
                out.append((a, b))
                if len(out) >= 32:
                    return out
        return out

    def _prime(self, term: Term) -> Term:
        return substitute(term, self._prime_map)

    def _limits(self) -> ResourceLimits:
        timeout = self.deadline.remaining()
        return ResourceLimits(
            timeout_s=timeout,
            max_conflicts=self.options.max_conflicts,
            max_learned_lits=self.options.max_learned_lits,
        )

    # -- the query sequence (§5.3) ------------------------------------------------
    def run(self) -> RefinementResult:
        src, tgt = self.src, self.tgt
        pre_src = bool_and(src.pre, bool_not(src.sink), self.pairing_src)
        pre_tgt = bool_and(
            tgt.pre, bool_not(tgt.sink), self.pairing_tgt, self.pairing_src
        )
        ub_tgt = bool_or(tgt.ub, self.tgt_call_ub)

        # Check 1: preconditions must be satisfiable.
        sat_check = self._is_satisfiable(bool_and(pre_src, pre_tgt))
        if sat_check is not None:
            return sat_check

        phi_base = bool_and(pre_src, pre_tgt)
        pre_src_primed = self._prime(pre_src)
        ub_src_primed = self._prime(src.ub)

        # Check 2: target is UB only when the source is.
        result = self._query(
            "ub",
            phi=bool_and(phi_base, ub_tgt),
            psi=bool_and(pre_src_primed, ub_src_primed),
        )
        if result is not None:
            return result

        # Check 3: return domain (incl. noreturn) matches unless source is UB.
        domains_agree = bool_and(
            bool_not(
                bool_or(
                    bool_and(self._prime(src.ret_domain), bool_not(tgt.ret_domain)),
                    bool_and(bool_not(self._prime(src.ret_domain)), tgt.ret_domain),
                )
            ),
            bool_not(
                bool_or(
                    bool_and(self._prime(src.noreturn), bool_not(tgt.noreturn)),
                    bool_and(bool_not(self._prime(src.noreturn)), tgt.noreturn),
                )
            ),
        )
        result = self._query(
            "return-domain",
            phi=bool_and(phi_base, bool_not(ub_tgt)),
            psi=bool_and(
                pre_src_primed, bool_or(ub_src_primed, domains_agree)
            ),
        )
        if result is not None:
            return result

        # Checks 4-6: the return value refines.
        if src.ret_value is not None and tgt.ret_value is not None:
            # Check 4 (separately reported): poison refinement.
            tgt_poison = _value_poison(tgt.ret_value)
            src_poison_primed = self._prime(_value_poison(src.ret_value))
            result = self._query(
                "return-poison",
                phi=bool_and(phi_base, bool_not(ub_tgt), tgt.ret_domain, tgt_poison),
                psi=bool_and(
                    pre_src_primed,
                    bool_or(
                        ub_src_primed,
                        bool_and(self._prime(src.ret_domain), src_poison_primed),
                    ),
                ),
            )
            if result is not None:
                return result

            # Checks 5+6: value refinement (covers undef per-reading).
            refines = self._prime_refines_value(src.ret_value, tgt.ret_value)
            result = self._query(
                "return-value",
                phi=bool_and(phi_base, bool_not(ub_tgt), tgt.ret_domain),
                psi=bool_and(
                    pre_src_primed,
                    bool_or(
                        ub_src_primed,
                        bool_and(self._prime(src.ret_domain), refines),
                    ),
                ),
            )
            if result is not None:
                return result

        # Check 7: memory refinement over caller-visible blocks.  The
        # R-alias-disjoint prescreen rule runs first: when both sides'
        # clobber sets avoid every caller-visible writable block, the
        # check holds without building a single byte-comparison clause.
        if self.options.check_memory:
            if self.prescreener is not None and self.prescreener.screen_memory(
                self.src, self.tgt
            ):
                mem_ref = TRUE
            else:
                mem_ref = self._memory_refines()
            if mem_ref is not TRUE:
                result = self._query(
                    "memory",
                    phi=bool_and(phi_base, bool_not(ub_tgt), tgt.ret_domain),
                    psi=bool_and(
                        pre_src_primed,
                        bool_or(
                            ub_src_primed,
                            bool_and(self._prime(src.ret_domain), mem_ref),
                        ),
                    ),
                )
                if result is not None:
                    return result

        return self._attach(RefinementResult(Verdict.CORRECT))

    # -- helpers ----------------------------------------------------------------------
    @staticmethod
    def _collect_var_terms(term: Term) -> List[Term]:
        """Every distinct variable term in ``term``, first-occurrence order."""
        seen = set()
        out: List[Term] = []
        stack = [term]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            if t.op == "var":
                out.append(t)
            else:
                stack.extend(reversed(t.args))
        return out

    def _seeded_psis(self, psi: BoolTerm) -> List[BoolTerm]:
        """ψ under each symbolic seed, universals completed with zeros.

        Mirrors :func:`solve_exists_forall`'s seed handling: a seed is a
        witness-function candidate N := f(O), so if any substituted ψ is
        a tautology the ∀-obligation holds for every candidate O and the
        e-graph rung may discharge the query without a solver.
        """
        names = term_vars(psi)
        relevant = [qv for qv in self.forall_vars if qv.name in names]
        if not relevant:
            return []

        def zero(qv: QuantVar) -> Term:
            return FALSE if qv.width == 0 else bv_const(0, qv.width)

        out: List[BoolTerm] = []
        for seed in list(self.seeds) + self._query_seeds(psi):
            if not any(qv.name in seed for qv in relevant):
                continue
            mapping = {qv.name: seed.get(qv.name, zero(qv)) for qv in relevant}
            out.append(substitute(psi, mapping))
        return out

    def _query_seeds(self, psi: BoolTerm) -> List[Dict[str, Term]]:
        """Analysis-backed witness candidates for the live ∀-vars of ψ.

        One single-var candidate seed per live ∀-var (up to four) and
        same-width free variable of ψ, plus one combined seed; candidates
        are ranked by the relational origin pairing, so a tgt nondet
        reading whose site the analysis paired with the src reading's
        site comes first.  Every candidate is a total substitution of
        universals, hence sound.  Shared by the e-graph rung and the ∃∀
        solver so both discharge the same queries.  Without the
        relational analysis, candidates are ranked by same-origin only.
        """
        names = term_vars(psi)
        relevant = [qv for qv in self.forall_vars if qv.name in names]
        if not relevant or len(relevant) > 4:
            return []
        forall_names = {q.name for q in self.forall_vars}
        frees = [
            free
            for free in self._collect_var_terms(psi)
            if free.payload not in forall_names
        ]
        omap = self.relational.origin_map() if self.relational is not None else {}
        out: List[Dict[str, Term]] = []
        combined: Dict[str, Term] = {}
        for qv in relevant:
            base = qv.name[:-1] if qv.name.endswith("'") else qv.name
            src_origin = self.src.origin.get(base)
            want = omap.get(src_origin, src_origin)
            candidates = [f for f in frees if f.width == qv.width]
            if want is not None:
                candidates.sort(
                    key=lambda f: 0 if self.tgt.origin.get(f.payload) == want else 1
                )
            for free in candidates[:8]:
                out.append({qv.name: free})
            if candidates:
                combined[qv.name] = candidates[0]
        if len(combined) > 1:
            out.append(combined)
        return out[:24]

    def _cache_items(self, phi: BoolTerm, psi: BoolTerm) -> list:
        """The tagged term sequence whose canonical hash keys this query.

        Besides (phi, psi) it must pin down which variables are universal
        and what the symbolic seeds are: two structurally equal formula
        pairs with a different quantifier split are different queries.
        """
        items = [("phi", phi), ("psi", psi)]
        widths = {qv.name: qv.width for qv in self.forall_vars}
        psi_names = term_vars(psi)
        for i, qv in enumerate(self.forall_vars):
            if qv.name not in psi_names:
                continue  # solve_exists_forall ignores it too
            var = bool_var(qv.name) if qv.width == 0 else bv_var(qv.name, qv.width)
            items.append((f"A{i}", var))
        for i, seed in enumerate(self.seeds):
            for j, name in enumerate(sorted(seed)):
                width = widths.get(name)
                if width is None:
                    continue
                var = bool_var(name) if width == 0 else bv_var(name, width)
                items.append((f"s{i}.{j}k", var))
                items.append((f"s{i}.{j}v", seed[name]))
        return items

    def _is_satisfiable(self, formula: BoolTerm) -> Optional[RefinementResult]:
        # A concrete satisfying witness settles this plain SAT probe
        # without a solver (and without touching the query cache).
        if self.prescreener is not None:
            t0 = time.monotonic()
            hit = self.prescreener.screen_sat(formula)
            self.phase_times["prescreen"] += time.monotonic() - t0
            if hit:
                return None
        if self.simplifier is not None:
            # Saturation can only rewrite to an equivalent formula, so a
            # TRUE extraction is a satisfiability proof; anything else
            # still feeds the (possibly smaller) formula to the solver.
            t0 = time.monotonic()
            formula = self.simplifier.simplify(formula)
            self.phase_times["egraph"] += time.monotonic() - t0
            if formula is TRUE:
                return None
        solve_start = time.monotonic()
        try:
            cache = qcache.active()
            certify = self.options.certify
            digest = None
            res = None
            if cache is not None:
                digest, _ = qcache.canonical_fingerprint([("satcheck", formula)])
                hit = cache.lookup(digest, require_certified_unsat=certify)
                if hit is not None:
                    res = CheckResult(hit["result"])
            if res is None:
                solver = SmtSolver(certify=certify)
                solver.assert_term(formula)
                res = solver.check(self._limits())
                self._certs.extend(solver.certificates)
                bad = [c for c in solver.certificates if not c.valid]
                if bad:
                    return self._reject_unsound("precondition", bad)
                if cache is not None:
                    # Exhaustion verdicts are dropped by the cache itself:
                    # they reflect this test's remaining deadline, not the query.
                    cache.store(
                        digest,
                        res.value,
                        certified=bool(solver.certificates)
                        and all(c.valid for c in solver.certificates),
                    )
            if res is CheckResult.UNSAT:
                return self._attach(
                    RefinementResult(Verdict.EMPTY_PRE, failed_check="precondition")
                )
            if res is CheckResult.TIMEOUT:
                return self._attach(
                    RefinementResult(Verdict.TIMEOUT, failed_check="precondition")
                )
            if res is CheckResult.MEMOUT:
                return self._attach(
                    RefinementResult(Verdict.OOM, failed_check="precondition")
                )
            return None
        finally:
            self.phase_times["solve"] += time.monotonic() - solve_start

    def _query(self, name: str, phi: BoolTerm, psi: BoolTerm) -> Optional[RefinementResult]:
        """Run one exists-forall query; None means the check passed."""
        psi = bool_and(self.env_consistency, psi)
        if self.prescreener is not None:
            t0 = time.monotonic()
            hit = self.prescreener.screen_query(name, phi, psi, self.src, self.tgt)
            self.phase_times["prescreen"] += time.monotonic() - t0
            if hit:
                return None
        if self.simplifier is not None:
            # E-graph rung: saturating the certified rules either proves
            # the query outright (psi is a tautology / phi is vacuous —
            # the forall obligation holds with no SAT call) or yields
            # equivalent, usually smaller terms for the bit-blaster.  The
            # query-cache fingerprint below hashes these post-extraction
            # canonical terms, so semantically equal queries share entries.
            t0 = time.monotonic()
            proved, phi, psi = self.simplifier.screen_query(
                phi,
                psi,
                seeded_psis=self._seeded_psis(psi),
                union_seeds=self.union_seeds,
            )
            self.phase_times["egraph"] += time.monotonic() - t0
            if proved:
                return None
        solve_start = time.monotonic()
        outcome = self._solve_cached(phi, psi)
        self.phase_times["solve"] += time.monotonic() - solve_start
        self._certs.extend(outcome.certificates)
        bad = [c for c in outcome.certificates if not getattr(c, "valid", True)]
        if bad:
            return self._reject_unsound(name, bad)
        if outcome.result is EFResult.UNSAT:
            return None
        if outcome.result is EFResult.TIMEOUT:
            return self._attach(RefinementResult(Verdict.TIMEOUT, failed_check=name))
        if outcome.result is EFResult.MEMOUT:
            return self._attach(RefinementResult(Verdict.OOM, failed_check=name))
        if outcome.core_names:
            self._notes.append(_describe_core(name, outcome.core_names))
        # Counterexample found; filter for over-approximation (§3.8).
        approx = sorted(
            (self.src.approx_vars | self.tgt.approx_vars)
            & set(outcome.model.keys())
        )
        if approx:
            return self._attach(
                RefinementResult(
                    Verdict.APPROX, failed_check=name, approx_features=approx
                )
            )
        cex = {
            k: v
            for k, v in outcome.model.items()
            if k.startswith(("arg_", "isundef_", "ispoison_", "glob_", "argmem_"))
        }
        if self.relational is not None:
            divergence = self.relational.describe_divergence()
            if divergence is not None:
                self._notes.append(divergence)
        return self._attach(
            RefinementResult(
                Verdict.INCORRECT,
                failed_check=name,
                counterexample=cex or dict(outcome.model),
            )
        )

    def _solve_cached(self, phi: BoolTerm, psi: BoolTerm) -> EFOutcome:
        """The exists-forall solve, short-circuited by the query cache.

        A hit replays the recorded verdict without constructing a solver;
        the stored model is keyed by canonical variable names and gets
        translated back through this query's renaming.
        """
        cache = qcache.active()
        certify = self.options.certify
        # phi/psi are already post-extraction canonical forms (the e-graph
        # rung ran before this); re-saturating every CEGAR instantiation
        # costs far more than the CNF it would save, so the per-clause
        # simplify hook stays off.
        simplify = None
        query_seeds = self._query_seeds(psi)
        if self.relational is not None and (self._rel_seed_pairs or query_seeds):
            counters.bump("relational.seeded_queries")
        seeds = list(self.seeds) + query_seeds
        if cache is None:
            return solve_exists_forall(
                phi,
                psi,
                self.forall_vars,
                limits=self._limits(),
                max_iterations=self.options.max_ef_iterations,
                symbolic_seeds=seeds,
                certify=certify,
                simplify=simplify,
            )
        digest, rename = qcache.canonical_fingerprint(self._cache_items(phi, psi))
        hit = cache.lookup(digest, require_certified_unsat=certify)
        if hit is not None:
            unrename = {canon: real for real, canon in rename.items()}
            model = {
                unrename[canon]: value
                for canon, value in hit.get("model", {}).items()
                if canon in unrename
            }
            return EFOutcome(
                EFResult(hit["result"]),
                model=model,
                iterations=int(hit.get("iterations", 0)),
            )
        outcome = solve_exists_forall(
            phi,
            psi,
            self.forall_vars,
            limits=self._limits(),
            max_iterations=self.options.max_ef_iterations,
            symbolic_seeds=seeds,
            certify=certify,
            simplify=simplify,
        )
        canon_model = {
            rename[name]: value
            for name, value in outcome.model.items()
            if name in rename
        }
        if all(getattr(c, "valid", True) for c in outcome.certificates):
            # A verdict whose proof the checker rejected is suspect; never
            # let it replay into later tests or non-certify runs.
            cache.store(
                digest,
                outcome.result.value,
                model=canon_model,
                iterations=outcome.iterations,
                certified=bool(outcome.certificates)
                and all(c.valid for c in outcome.certificates),
            )
        return outcome

    def _prime_refines_value(self, src_value, tgt_value) -> BoolTerm:
        """src' ⊒ tgt for return values (Figure 4 rules, element-wise)."""
        if isinstance(src_value, SymAggregate) or isinstance(tgt_value, SymAggregate):
            src_elems = src_value.elems if isinstance(src_value, SymAggregate) else None
            tgt_elems = tgt_value.elems if isinstance(tgt_value, SymAggregate) else None
            if src_elems is None or tgt_elems is None or len(src_elems) != len(tgt_elems):
                return FALSE
            return bool_and(
                *[
                    self._prime_refines_value(s, t)
                    for s, t in zip(src_elems, tgt_elems)
                ]
            )
        assert isinstance(src_value, SymValue) and isinstance(tgt_value, SymValue)
        s_poison = self._prime(src_value.poison)
        s_expr = self._prime(src_value.expr)
        return bool_or(
            s_poison,
            bool_and(
                bool_not(tgt_value.poison), bv_eq(s_expr, tgt_value.expr)
            ),
        )

    def _memory_refines(self) -> BoolTerm:
        src_mem = self.src.final_memory
        tgt_mem = self.tgt.final_memory
        if src_mem is None or tgt_mem is None:
            return TRUE
        # Clobber facts let us skip whole blocks: when neither side's
        # stores can touch shared bid b (both clobber sets are finite and
        # exclude b), b's final bytes equal its initial bytes in every
        # UB-free execution, so the per-byte clauses are valid exactly
        # where the query evaluates them (the ``dom' ∧ mem_ref`` branch
        # is only reachable with ``¬ub'``, and ``φ ⊇ ¬ub_tgt``).
        untouched: FrozenSet[int] = frozenset()
        if self.memdf_src is not None and self.memdf_tgt is not None:
            s_clob = self.memdf_src.clobbered
            t_clob = self.memdf_tgt.clobbered
            if (
                s_clob is not None
                and t_clob is not None
                and not self.memdf_src.has_calls
                and not self.memdf_tgt.has_calls
            ):
                untouched = (
                    frozenset(src_mem.non_local_bids()) - s_clob - t_clob
                )
        clauses: List[BoolTerm] = []
        for bid in src_mem.non_local_bids():
            s_bytes = src_mem.blocks.get(bid)
            t_bytes = tgt_mem.blocks.get(bid)
            if s_bytes is None or t_bytes is None:
                continue
            info = src_mem.infos[bid]
            if not info.writable:
                continue  # read-only blocks cannot change
            if bid in untouched:
                continue
            for sb, tb in zip(s_bytes, t_bytes):
                s_poison = self._prime(sb.poison)
                s_value = self._prime(sb.value)
                s_tag = self._prime(sb.is_ptr)
                clause = bool_or(
                    s_poison,
                    bool_and(
                        bool_not(tb.poison),
                        bv_eq(s_value, tb.value),
                        bool_not(
                            bool_or(
                                bool_and(s_tag, bool_not(tb.is_ptr)),
                                bool_and(bool_not(s_tag), tb.is_ptr),
                            )
                        ),
                    ),
                )
                if clause is not TRUE:
                    clauses.append(clause)
        if not clauses:
            return TRUE
        return bool_and(*clauses)


def _classify_core_name(name: str) -> str:
    """Bucket one unsat-core variable by what it encodes.

    Core variables come from the inner CEGAR solver's assumption literals,
    which pin existentials to the candidate model: function inputs
    (``arg_``), UB/poison/undef shadow variables, memory contents and the
    encoder's nondeterminism variables (``src.freeze_x!1`` etc.; a
    trailing ``'`` marks the primed source copy).
    """
    base = name.rstrip("'")
    leaf = base.split(".")[-1]
    low = leaf.lower()
    if "poison" in low or low.startswith(("callp_", "hvp")):
        return "poison"
    if "undef" in low:
        return "undef"
    if low.startswith("arg_"):
        return "input"
    if low.startswith(("glob_", "argmem_", "hv_")):
        return "memory"
    if low.startswith(("freeze_", "call", "fpnan_", "nanbits_", "nsz_", "nd")):
        return "nondet"
    return "value"


def _describe_core(check_name: str, core_names: List[str]) -> str:
    """Human-readable unsat-core summary for ``RefinementResult.notes``."""
    buckets: Dict[str, List[str]] = {}
    for name in core_names:
        buckets.setdefault(_classify_core_name(name), []).append(name)
    parts = [
        f"{kind}={len(buckets[kind])}" for kind in sorted(buckets)
    ]
    shown = ", ".join(core_names[:6])
    if len(core_names) > 6:
        shown += ", ..."
    return (
        f"unsat core ({check_name}): {' '.join(parts)} [{shown}]"
    )


def _value_poison(value) -> BoolTerm:
    if isinstance(value, SymAggregate):
        return bool_or(*[_value_poison(e) for e in value.elems])
    return value.poison


# ---------------------------------------------------------------------------
# Call pairing (§6)
# ---------------------------------------------------------------------------


def _args_equal(a: CallRecord, b: CallRecord) -> BoolTerm:
    """Exact input equality for source-source dedup axioms (§6).

    Possibly-undef arguments disable the axiom (the two reads may have
    resolved differently), which only makes the source *more*
    nondeterministic — sound for the zero-false-alarm goal.
    """
    if len(a.args) != len(b.args):
        return FALSE
    clauses = []
    for x, y in zip(a.args, b.args):
        if x.expr.width != y.expr.width:
            return FALSE
        same_poison = bool_not(
            bool_or(
                bool_and(x.poison, bool_not(y.poison)),
                bool_and(bool_not(x.poison), y.poison),
            )
        )
        clauses.append(
            bool_and(
                bool_not(x.varies),
                bool_not(y.varies),
                same_poison,
                bool_or(x.poison, bv_eq(x.expr, y.expr)),
            )
        )
    return bool_and(*clauses)


def _args_refined(src_call: CallRecord, tgt_call: CallRecord) -> BoolTerm:
    """Each src arg ⊒ tgt arg (Fig. 5).

    An undef source argument (``varies``) refines *any* target argument —
    the value-level rule of Figure 4, which a per-reading equality would
    miss and then misreport as an introduced call.
    """
    if len(src_call.args) != len(tgt_call.args):
        return FALSE
    clauses = []
    for s, t in zip(src_call.args, tgt_call.args):
        if s.expr.width != t.expr.width:
            return FALSE
        clauses.append(
            bool_or(
                s.poison,
                s.varies,
                bool_and(bool_not(t.poison), bv_eq(s.expr, t.expr)),
            )
        )
    return bool_and(*clauses)


def _compatible(a: CallRecord, b: CallRecord) -> bool:
    if a.callee == b.callee:
        same = True
    else:
        ca, cb = pair_class_of(a.callee), pair_class_of(b.callee)
        same = ca is not None and ca == cb
    if not same:
        return False
    if not (a.reads_memory or b.reads_memory):
        # Memory-oblivious callees: prior calls cannot influence them.
        return True
    # §6 pruning: ranges of prior-call counts must overlap (a call with
    # strictly more preceding calls may have observed different memory).
    return not (a.max_prior < b.min_prior or b.max_prior < a.min_prior)


def _pair_calls(
    src: EncodedFunction, tgt: EncodedFunction
) -> Tuple[BoolTerm, BoolTerm, BoolTerm]:
    """Build (source-side axioms, target-side axioms, target no-match UB)."""
    src_axioms: List[BoolTerm] = []
    # Source-source: same function, equal inputs => equal outputs.  Only for
    # calls that do not read memory (we do not relate memory inputs).
    for i, c1 in enumerate(src.calls):
        for c2 in src.calls[i + 1 :]:
            if c1.callee != c2.callee or c1.reads_memory or c2.reads_memory:
                continue
            if not _compatible(c1, c2):
                continue
            if c1.result is None or c2.result is None:
                continue
            cond = bool_and(c1.dom, c2.dom, _args_equal(c1, c2))
            same_out = bool_and(
                bool_not(
                    bool_or(
                        bool_and(c1.result.poison, bool_not(c2.result.poison)),
                        bool_and(bool_not(c1.result.poison), c2.result.poison),
                    )
                ),
                bool_or(c1.result.poison, bv_eq(c1.result.expr, c2.result.expr)),
            )
            src_axioms.append(bool_implies(cond, same_out))

    tgt_axioms: List[BoolTerm] = []
    tgt_ub = FALSE
    for t in tgt.calls:
        candidates = [s for s in src.calls if _compatible(s, t)]
        if not candidates:
            # A call the source never makes: introducing calls is illegal.
            tgt_ub = bool_or(tgt_ub, t.dom)
            continue
        sel_width = max(1, len(candidates).bit_length())
        sel = bv_var(fresh_name("tgt.callsel"), sel_width)
        # sel <= len(candidates); == len means "no source call matches".
        tgt_axioms.append(bv_ule(sel, bv_const(len(candidates), sel_width)))
        matches: List[BoolTerm] = []
        for j, s in enumerate(candidates):
            is_j = bv_eq(sel, bv_const(j, sel_width))
            match = bool_and(s.dom, _args_refined(s, t))
            matches.append(match)
            tgt_axioms.append(bool_implies(is_j, match))
            if t.result is not None and s.result is not None:
                out_ref = bool_or(
                    s.result.poison,
                    bool_and(
                        bool_not(t.result.poison),
                        bv_eq(s.result.expr, t.result.expr),
                    ),
                )
                tgt_axioms.append(bool_implies(is_j, out_ref))
            elif t.result is not None and s.result is None:
                tgt_axioms.append(bool_implies(is_j, FALSE))
            # Fig. 5: the memory output of the paired calls must be related
            # too (M_o ⊒ M'_o); tie the target's havoc bytes to the source
            # call's havoc bytes.
            for key, (t_val, t_poison) in t.havoc.items():
                hit = s.havoc.get(key)
                if hit is None:
                    continue
                s_val, s_poison = hit
                byte_ref = bool_or(
                    bool_var(s_poison),
                    bool_and(
                        bool_not(bool_var(t_poison)),
                        bv_eq(bv_var(s_val, 8), bv_var(t_val, 8)),
                    ),
                )
                tgt_axioms.append(bool_implies(is_j, byte_ref))
        # §6: i = |C| holds iff NO source call is refined by this call —
        # without this direction the solver could simply "choose" no-match
        # and fabricate target UB.
        no_match = bv_eq(sel, bv_const(len(candidates), sel_width))
        tgt_axioms.append(
            bool_implies(no_match, bool_and(*[bool_not(m) for m in matches]))
        )
        tgt_ub = bool_or(tgt_ub, bool_and(t.dom, no_match))

    src_pre = bool_and(*src_axioms) if src_axioms else TRUE
    tgt_pre = bool_and(*tgt_axioms) if tgt_axioms else TRUE
    return src_pre, tgt_pre, tgt_ub
