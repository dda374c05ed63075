"""Solver-bypass prescreening of refinement queries.

Each refinement check is an exists-forall query ``∃O. φ ∧ ∀N. ¬ψ`` whose
UNSAT outcome means "check passed".  Cheap static facts can decide many
of them without bit-blasting:

* **R-phi-false** — φ is false for every assignment (term-level
  known-bits, :mod:`repro.analysis.termfacts`): no candidate
  counterexample exists, the check passes.
* **R-psi-true** — ψ is valid: ``¬ψ`` is unsatisfiable for every choice
  of the universals, the check passes.  This also covers the
  "known-bits prove ``bv_eq`` of matching defs" case: the abstract
  evaluator folds ``bveq`` of two fully-determined equal values to True.
* **R-poison-free** — for the *return-poison* check, the IR poison
  taint proves every ``ret`` operand of the unrolled target poison-free.
  φ of that check conjoins ``¬ub_tgt``, and the taint transfer relation
  mirrors the encoder's poison semantics under ``¬ub`` (``noundef``
  arguments add ``isundef ∨ ispoison`` to the UB terms, flagged
  arithmetic is never proven, shifts need an in-range amount), so
  φ's ``tgt_poison`` conjunct is unsatisfiable.
* **R-const-ret** — for the *return-value* check, both sides provably
  return the same constant and the target is poison-free; with trivial
  source precondition/domain and no calls, ψ holds for every universal
  choice.
* **R-sat-witness** — for the check-1 satisfiability probe (a plain SAT
  call, not exists-forall), concretely evaluating the preconditions
  under an all-zeros or all-ones assignment yields True: the formula is
  satisfiable by witness, so the preconditions are not vacuous.

Three rules consume :mod:`repro.analysis.memdf` facts (gated behind
``VerifyOptions.memdf``; the facts are absent when it is off):

* **R-oob-ub** — the source's entry block contains a load/store that is
  provably out of bounds for *every* candidate (bid, offset), so with no
  calls the source is UB on every input: ``ub_src'`` is valid under φ's
  precondition and ψ's ``ub'`` disjunct discharges any exists-forall
  check.
* **R-load-forward** — both sides' (unique) return value resolves to the
  same constant or the same argument reading through store-to-load
  forwarding chains, reducing the *return-value* memory query to a value
  fact: choosing the primed undef reading equal to the target's makes
  the refinement clause valid (UB-free executions read the forwarded
  bytes; all failure paths land in ψ's ``ub'`` disjunct).
* **R-alias-disjoint** — for the *memory* check: neither side's stores
  can touch a caller-visible writable block (their clobber sets are
  disjoint from the shared blocks — e.g. all stores hit local allocas),
  so both final memories equal the initial one and the per-byte
  refinement clauses are valid; the witness that passed the
  return-domain check (which always precedes the memory check in the
  query sequence) satisfies ψ.

Every rule may only *prove* (discharge a query the solver would have
answered UNSAT, or witness SAT for the satcheck); none may refute, so a
prescreen hit can never flip a FAIL verdict to a pass.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import termfacts
from repro.analysis.poison import returns_poison_free
from repro.harness.counters import bump
from repro.ir.function import Function
from repro.ir.instructions import Ret
from repro.ir.values import ConstantInt
from repro.smt import terms
from repro.smt.terms import FALSE, TRUE, BoolTerm, Term


#: The rules driven by memory-dataflow facts; the summary totals their
#: hits separately to show memdf leverage.
MEMDF_RULES = ("oob-ub", "load-forward", "alias-disjoint")

#: The rules driven by the relational product-CFG analysis.
RELATIONAL_RULES = ("relational-equal", "relational-equal-mem")


def _hit(rule: str) -> bool:
    """Count a discharge by ``rule``; returns True for the caller to return."""
    bump("prescreen.discharged")
    bump(f"prescreen.{rule}")
    return True


def _all_ones_env(term: Term) -> Dict[str, int]:
    """name → all-ones/True for every variable of ``term``.

    All-ones satisfies the NaN-pattern preconditions that argument-undef
    seeds produce, which an all-zeros witness falsifies.
    """
    env: Dict[str, int] = {}
    stack = [term]
    seen = set()
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if t.op == "var":
            env[t.payload] = True if t.is_bool else (1 << t.width) - 1
        else:
            stack.extend(t.args)
    return env


class Prescreener:
    """Per-verification fact holder consulted by the refinement checker.

    IR analyses run lazily on the *unrolled* functions (the ones that
    were encoded), at most once per verification job.
    """

    def __init__(
        self,
        src_unrolled: Function,
        tgt_unrolled: Function,
        memdf_src=None,
        memdf_tgt=None,
        relational=None,
    ) -> None:
        self.src = src_unrolled
        self.tgt = tgt_unrolled
        # Memory-dataflow facts (repro.analysis.memdf.MemDF) for the same
        # unrolled functions; None when VerifyOptions.memdf is off.
        self.memdf_src = memdf_src
        self.memdf_tgt = memdf_tgt
        # Relational congruence facts (repro.analysis.relational) for the
        # same pair; None when VerifyOptions.relational is off.
        self.relational = relational
        self._tgt_ret_poison_free: Optional[bool] = None
        self._const_rets: Optional[tuple] = None  # (src_const, tgt_const)

    # -- lazy IR facts -------------------------------------------------------
    def tgt_returns_poison_free(self) -> bool:
        if self._tgt_ret_poison_free is None:
            self._tgt_ret_poison_free = returns_poison_free(self.tgt)
        return self._tgt_ret_poison_free

    def _ret_constant(self, fn: Function, kb_facts) -> Optional[int]:
        """The single constant every ``ret`` of ``fn`` returns, if any."""
        value: Optional[int] = None
        saw_ret = False
        for block in fn.blocks.values():
            term = block.terminator
            if not isinstance(term, Ret) or term.value is None:
                continue
            saw_ret = True
            if isinstance(term.value, ConstantInt):
                const: Optional[int] = term.value.value
            else:
                name = getattr(term.value, "name", None)
                fact = kb_facts.get(name) if name is not None else None
                const = fact.value if fact is not None else None
            if const is None or (value is not None and const != value):
                return None
            value = const
        return value if saw_ret else None

    def const_rets(self) -> tuple:
        if self._const_rets is None:
            from repro.analysis.knownbits import analyze_known_bits

            self._const_rets = (
                self._ret_constant(self.src, analyze_known_bits(self.src)),
                self._ret_constant(self.tgt, analyze_known_bits(self.tgt)),
            )
        return self._const_rets

    # -- rules ---------------------------------------------------------------
    def screen_sat(self, formula: BoolTerm) -> bool:
        """True iff ``formula`` is proven satisfiable (check 1 passes)."""
        try:
            if terms.evaluate(formula, {}):
                return _hit("sat-witness")
            if terms.evaluate(formula, _all_ones_env(formula)):
                return _hit("sat-witness")
        except (RecursionError, OverflowError):
            pass
        bump("prescreen.passed")
        return False

    def screen_query(
        self,
        name: str,
        phi: BoolTerm,
        psi: BoolTerm,
        src_enc=None,
        tgt_enc=None,
    ) -> bool:
        """True iff the query is discharged (the check provably passes).

        ``psi`` must already include the environment-consistency axioms —
        validity of the full right-hand side is what makes ``∀N.¬ψ``
        unsatisfiable regardless of the quantifier split.
        """
        try:
            if phi is FALSE or termfacts.must_false(phi):
                return _hit("phi-false")
            if self._screen_oob_ub(src_enc, tgt_enc):
                return _hit("oob-ub")
            if psi is TRUE or termfacts.must_true(psi):
                return _hit("psi-true")
            if name == "return-poison" and self.tgt_returns_poison_free():
                return _hit("poison-free")
            if name == "return-value" and self._screen_const_ret(
                src_enc, tgt_enc
            ):
                return _hit("const-ret")
            if name == "return-value" and self._screen_load_forward(
                src_enc, tgt_enc
            ):
                return _hit("load-forward")
            if name in ("return-value", "return-poison") and (
                self._screen_relational_equal(src_enc, tgt_enc)
            ):
                return _hit("relational-equal")
        except (RecursionError, OverflowError):
            pass
        bump("prescreen.passed")
        return False

    def _screen_const_ret(self, src_enc, tgt_enc) -> bool:
        """R-const-ret; see the module docstring for the soundness argument.

        Guards: trivial source precondition/sink/return-domain (so the
        primed ψ prefix is the literal TRUE), no calls on either side (so
        pairing and environment-consistency are trivial), and both sides
        return one proven-equal integer constant with the target
        poison-free under φ's ``¬ub_tgt``.
        """
        if src_enc is None or tgt_enc is None:
            return False
        if src_enc.pre is not TRUE or src_enc.sink is not FALSE:
            return False
        if src_enc.ret_domain is not TRUE:
            return False
        if src_enc.calls or tgt_enc.calls:
            return False
        src_const, tgt_const = self.const_rets()
        if src_const is None or src_const != tgt_const:
            return False
        return self.tgt_returns_poison_free()

    # -- memdf-driven rules (PR 9) -------------------------------------------
    def _no_calls(self, src_enc, tgt_enc) -> bool:
        """No calls on either side: call pairing and the environment
        consistency axioms are the literal TRUE, so ψ reduces to
        ``pre' ∧ ¬sink' ∧ (ub' ∨ ...)`` over shared and primed vars."""
        if src_enc is None or tgt_enc is None:
            return False
        if src_enc.calls or tgt_enc.calls:
            return False
        return not (
            self.memdf_src is None
            or self.memdf_tgt is None
            or self.memdf_src.has_calls
            or self.memdf_tgt.has_calls
        )

    def _screen_oob_ub(self, src_enc, tgt_enc) -> bool:
        """R-oob-ub; see the module docstring.

        Guards: an entry-block access of the source is provably OOB for
        every candidate block (its UB term is valid: a poison/undef
        pointer trips the access's own UB disjunct, and a defined pointer
        lands in the abstract location, every member of which rejects the
        access), no calls (entry instructions then execute on every
        path), and no unroll sinks (``¬sink'`` is the literal TRUE).
        φ of every check implies the shared-variable precondition that
        the points-to facts rely on, so ψ's ``ub'`` disjunct is valid.
        """
        if not self._no_calls(src_enc, tgt_enc):
            return False
        if src_enc.sink is not FALSE:
            return False
        return bool(self.memdf_src.entry_oob)

    def _screen_load_forward(self, src_enc, tgt_enc) -> bool:
        """R-load-forward; see the module docstring.

        Guards: no calls, trivial source sink/return-domain (the primed
        domain conjunct of ψ is the literal TRUE), and both sides resolve
        their unique return to the *same* symbol — a constant, or the
        same integer argument — through must-alias store-to-load
        forwarding chains.  For an argument symbol the primed undef
        reading is set equal to the target's reading (a legal witness:
        the primed reading variables occur existentially); forwarded
        bytes equal the stored reading in every UB-free execution, so
        the value-refinement clause holds, and executions where any
        involved access misbehaves satisfy ψ through ``ub'``.
        """
        if not self._no_calls(src_enc, tgt_enc):
            return False
        if src_enc.sink is not FALSE or src_enc.ret_domain is not TRUE:
            return False
        src_sym = self.memdf_src.resolve_return()
        if src_sym is None:
            return False
        return src_sym == self.memdf_tgt.resolve_return()

    def screen_memory(self, src_enc, tgt_enc) -> bool:
        """Discharge the whole memory check before ``mem_ref`` is built.

        Invoked by the refinement checker ahead of the per-byte clause
        construction: when it fires, the memory check is proven without
        encoding a single byte comparison.  Only hits are counted — a
        miss falls through to the normal query path, which does its own
        hit/miss accounting.
        """
        if self._screen_alias_disjoint(src_enc, tgt_enc):
            return _hit("alias-disjoint")
        if self._screen_relational_mem(src_enc, tgt_enc):
            return _hit("relational-equal-mem")
        return False

    # -- relational rules (PR 10) ----------------------------------------------
    def _relational_guards(self, src_enc, tgt_enc) -> bool:
        """Shared guards for the R-relational-equal family.

        Trivial source precondition/sink/return-domain (the primed ψ
        prefix is the literal TRUE and ``dom'`` holds), a trivial target
        sink, and no calls on either side (call pairing and environment
        consistency are trivial, and call results would be opaque
        anyway).  Under these, a congruence claim "tgt value sits in
        src's class" licenses the witness that maps every primed src
        nondet reading onto its paired tgt reading, making value *and*
        poison coincide; executions where the facts' UB-freedom caveat
        fails satisfy ψ through its ``ub'`` disjunct (src side) or
        contradict φ's ``¬ub_tgt`` (tgt side).
        """
        if self.relational is None or src_enc is None or tgt_enc is None:
            return False
        if src_enc.pre is not TRUE or src_enc.sink is not FALSE:
            return False
        if tgt_enc.sink is not FALSE:
            return False
        if src_enc.ret_domain is not TRUE:
            return False
        return not (src_enc.calls or tgt_enc.calls)

    def _screen_relational_equal(self, src_enc, tgt_enc) -> bool:
        """R-relational-equal: every return site pairs with an aligned,
        congruent target return.  Congruence is value- and poison-exact
        under the witness pairing, so the return-poison implication
        (``t_poison → s_poison'``) and the value-refinement clause
        (``s_poison' ∨ (¬t_poison ∧ s_val' = t_val)``) are both valid."""
        if not self._relational_guards(src_enc, tgt_enc):
            return False
        return self.relational.ret_congruent()

    def _screen_relational_mem(self, src_enc, tgt_enc) -> bool:
        """R-relational-equal-mem: the caller-visible store sequences are
        congruent pairwise in the (unconditionally executed) entry
        blocks, so both sides leave byte-identical shared memory under
        the witness pairing and the per-byte refinement clauses hold
        without encoding them.  Needs memdf points-to facts to separate
        caller-visible stores from local ones."""
        if not self._relational_guards(src_enc, tgt_enc):
            return False
        if self.memdf_src is None or self.memdf_tgt is None:
            return False
        if self.memdf_src.has_calls or self.memdf_tgt.has_calls:
            return False
        if not (self.memdf_src.clobbered or self.memdf_tgt.clobbered):
            return False  # no stores at all: R-alias-disjoint territory
        return self.relational.store_effects_congruent(
            self.memdf_src, self.memdf_tgt
        )

    def _screen_alias_disjoint(self, src_enc, tgt_enc) -> bool:
        """R-alias-disjoint; see the module docstring.

        Guards: no calls, and both sides' abstract clobber sets are
        disjoint from the caller-visible writable blocks.  Then every
        store in an UB-free execution hits a local (or null ⇒ UB) block,
        final shared memory equals initial shared memory on both sides,
        and the per-byte refinement clauses compare a shared variable
        with itself.  The memory check runs only after the return-domain
        check passed, whose witness supplies ψ's ``pre' ∧ (ub' ∨ dom')``
        prefix for every φ model.
        """
        if not self._no_calls(src_enc, tgt_enc):
            return False
        if not (self.memdf_src.clobbered or self.memdf_tgt.clobbered):
            # No stores anywhere: ψ is trivial for cheaper reasons, and
            # crediting this rule would just inflate its counter.
            return False
        src_clobber = self.memdf_src.clobbered_shared_writable()
        tgt_clobber = self.memdf_tgt.clobbered_shared_writable()
        return src_clobber == frozenset() and tgt_clobber == frozenset()
