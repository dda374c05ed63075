"""Independent RUP proof checker with backward trimming.

This module certifies UNSAT claims made by :class:`repro.sat.solver
.SatSolver` without trusting it: it has its own clause store, its own
two-watched-literal unit propagation, and shares nothing with the
solver beyond the DIMACS literal encoding.  A lemma is accepted iff it
is a reverse-unit-propagation (RUP) consequence of the clauses alive at
the point it was logged: asserting the negation of every lemma literal
and propagating exhaustively must yield a conflict.

Checking runs *backward* from the final lemma (DRAT-trim style): only
lemmas reachable through antecedent marking from the terminal conflict
are verified, so certification cost is proportional to the useful part
of the proof rather than to everything the search ever learned.  The
watch structures are maintained incrementally along the backward walk —
clauses are detached at their addition events and re-attached at their
deletion events — so the whole pass is a single traversal of the log,
and it stops once no needed lemma is left to check.

Root closure: unit propagation of the attached clauses from the empty
assignment (the *root closure*) is shared by every RUP check instead of
being re-derived per lemma (MiniSat's persistent level 0; DRAT-trim does
the same).  Each lemma check propagates the lemma's negation on top of a
copy of it.  The closure is sound because it is always derived from the
clauses attached *now*: every root literal carries the attached clause
that implied it, and detaching such a reason clause (or a clause of a
root refutation) marks the closure stale, so it is recomputed before the
next check.  Attaching a clause can only grow the closure: a clause that
is unit under it extends it in place, one that is false under it records
a root refutation, and any other clause changes nothing.  Detaching a
clause that is not a reason leaves every derivation in place.  So each
check sees exactly the propagation closure of the clauses alive at that
lemma, and a later-attached clause can only shrink what RUP has to find,
never make a lemma pass that fresh propagation would reject.

Assumption support: an UNSAT under assumptions terminates the log with
the clause ``¬core``.  The checker verifies both that this final lemma
only negates declared assumption literals and that it is RUP with
respect to the clause database alone, which together certify that the
formula conjoined with the core is unsatisfiable.

Tolerated log artifacts (each only ever weakens the claim being
checked, never strengthens it): tautological clauses are ignored,
duplicate literals are merged, and a deletion that matches no live
clause is skipped — the clause simply stays in the database, which can
only make later RUP checks easier against a still-entailed set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sat.proof import ADD, DELETE, INPUT


@dataclass
class RupOutcome:
    """Result of checking one proof log."""

    valid: bool
    reason: str = ""
    total_lemmas: int = 0
    checked_lemmas: int = 0
    needed_inputs: int = 0


_INT_ONLY = frozenset({int})


def _normalize(lits: Iterable[int]) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Dedup literals; returns (lits, is_tautology).  ``None`` on a bad lit."""
    lits = tuple(lits)
    # Fast path, every clause the solver logs: nonzero ints, distinct vars.
    if (
        set(map(type, lits)) <= _INT_ONLY
        and 0 not in lits
        and len(set(map(abs, lits))) == len(lits)
    ):
        return lits, False
    seen: Dict[int, int] = {}
    out: List[int] = []
    taut = False
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            return None, False
        prev = seen.get(abs(lit))
        if prev is None:
            seen[abs(lit)] = lit
            out.append(lit)
        elif prev != lit:
            taut = True
    return tuple(out), taut


class _ClauseDb:
    """Clause store + two-watched-literal propagation (checker-private).

    The root closure (``_root_*``) is the unit-propagation closure of the
    attached clauses: the set of true literals, each with its reason
    clause, or, when propagation alone refutes the attached clauses, the
    antecedent closure of that conflict.  Watches obey the root
    invariant: a watched literal that is false at the root has a partner
    that is true at the root.
    """

    def __init__(self) -> None:
        self.clauses: List[Tuple[int, ...]] = []
        self.taut: List[bool] = []
        self._watch: Dict[int, List[int]] = {}  # lit -> cids watching lit
        self._pair: Dict[int, List[int]] = {}  # cid -> its two watched lits
        self._units: Dict[int, int] = {}  # cid -> the unit literal
        self._empties: Set[int] = set()
        self._attached: Set[int] = set()
        self._root_true: Set[int] = set()
        self._root_reason: Dict[int, int] = {}  # var -> cid
        self._root_conflict: Optional[Set[int]] = None
        # Stale: recompute the closure before it is next used.
        self._root_stale = True

    def new_clause(self, lits: Tuple[int, ...], taut: bool) -> int:
        cid = len(self.clauses)
        self.clauses.append(lits)
        self.taut.append(taut)
        return cid

    # -- attach / detach ---------------------------------------------------
    def attach(self, cid: int) -> None:
        if cid in self._attached or self.taut[cid]:
            # A tautology is satisfied under every assignment: it can never
            # become unit or conflicting, so it never participates in RUP.
            return
        self._attached.add(cid)
        lits = self.clauses[cid]
        live = not self._root_stale and self._root_conflict is None
        if not lits:
            self._empties.add(cid)
            return
        if len(lits) == 1:
            self._units[cid] = lits[0]
            if live:
                self._extend_root(lits[0], cid)
            return
        unit = None
        if live:
            # Watch two literals that are not false at the root; when the
            # clause has one, it is true or unit, and the second watch is
            # a false literal whose partner is (or is about to be) true.
            true = self._root_true
            free = [lit for lit in lits if -lit not in true]
            if len(free) >= 2:
                pair = free[:2]
            elif free:
                pair = [free[0], lits[0] if lits[0] != free[0] else lits[1]]
                if free[0] not in true:
                    unit = free[0]
            else:
                pair = [lits[0], lits[1]]
                self._root_conflict = self._closure([cid], {})
        else:
            pair = [lits[0], lits[1]]
        self._pair[cid] = pair
        self._watch.setdefault(pair[0], []).append(cid)
        self._watch.setdefault(pair[1], []).append(cid)
        if unit is not None:
            self._extend_root(unit, cid)

    def detach(self, cid: int) -> None:
        if cid not in self._attached:
            return
        self._attached.discard(cid)
        self._empties.discard(cid)
        if not self._root_stale:
            # The closure survives losing any clause it was not derived
            # from; losing a reason (or part of a root refutation) voids it.
            conflict = self._root_conflict
            reason = self._root_reason
            if (conflict is not None and cid in conflict) or any(
                reason.get(abs(lit)) == cid for lit in self.clauses[cid]
            ):
                self._root_stale = True
        if self._units.pop(cid, None) is not None:
            return
        pair = self._pair.pop(cid, None)
        if pair is None:
            return
        for lit in pair:
            self._watch[lit].remove(cid)

    # -- root closure ------------------------------------------------------
    def _recompute_root(self) -> None:
        """Rebuild the closure from the empty assignment, under which any
        watch pair is valid."""
        self._root_stale = False
        true: Set[int] = set()
        reason: Dict[int, int] = {}
        self._root_true = true
        self._root_reason = reason
        self._root_conflict = None
        trail: List[int] = []
        for cid, lit in self._units.items():
            if lit in true:
                continue
            if -lit in true:
                self._root_conflict = self._closure([cid, reason[abs(lit)]], {})
                return
            true.add(lit)
            reason[abs(lit)] = cid
            trail.append(lit)
        conflict = self._propagate(true, reason, trail)
        if conflict is not None:
            self._root_conflict = self._closure([conflict], {})

    def _extend_root(self, lit: int, cid: int) -> None:
        """A newly attached clause ``cid`` is unit on ``lit`` at the root."""
        true = self._root_true
        if lit in true:
            return
        if -lit in true:
            self._root_conflict = self._closure(
                [cid, self._root_reason[abs(lit)]], {}
            )
            return
        true.add(lit)
        self._root_reason[abs(lit)] = cid
        conflict = self._propagate(true, self._root_reason, [lit])
        if conflict is not None:
            self._root_conflict = self._closure([conflict], {})

    # -- RUP ---------------------------------------------------------------
    def rup(self, lemma: Sequence[int]) -> Tuple[bool, Set[int]]:
        """Is ``lemma`` a RUP consequence of the attached clauses?

        Returns ``(valid, antecedent cids)``.  Propagation starts from a
        copy of the root closure; the lemma's own assignment is local to
        the call.  Watches it moves stay on literals that are not false
        at the root, so the root invariant survives the call.
        """
        if len({abs(lit) for lit in lemma}) < len(lemma):
            return True, set()  # tautological lemma: vacuously entailed
        if self._empties:
            return True, {next(iter(self._empties))}
        if self._root_stale:
            self._recompute_root()
        if self._root_conflict is not None:
            return True, self._root_conflict
        root_true = self._root_true
        true = set(root_true)
        trail: List[int] = []
        for lit in lemma:
            if lit in root_true:
                return True, self._closure([self._root_reason[abs(lit)]], {})
            if -lit not in root_true:
                true.add(-lit)
                trail.append(-lit)
        reason: Dict[int, int] = {}
        conflict = self._propagate(true, reason, trail)
        if conflict is None:
            return False, set()
        return True, self._closure([conflict], reason)

    def _propagate(
        self, true: Set[int], reason: Dict[int, int], trail: List[int]
    ) -> Optional[int]:
        """Propagate the literals of ``trail`` (already in ``true``) to a
        fixpoint, recording each implied literal's reason clause; returns
        a conflicting clause, or None."""
        watch = self._watch
        pairs = self._pair
        clauses = self.clauses
        qhead = 0
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watch.get(false_lit)
            if not watchers:
                continue
            kept: List[int] = []
            i = 0
            n = len(watchers)
            while i < n:
                cid = watchers[i]
                i += 1
                pair = pairs[cid]
                other = pair[0]
                if other == false_lit:
                    other = pair[1]
                    pair[0] = other
                    pair[1] = false_lit
                if other in true:
                    kept.append(cid)
                    continue
                for cand in clauses[cid]:
                    if cand != other and cand != false_lit and -cand not in true:
                        pair[1] = cand
                        moved = watch.get(cand)
                        if moved is None:
                            watch[cand] = [cid]
                        else:
                            moved.append(cid)
                        break
                else:
                    kept.append(cid)
                    if -other in true:
                        kept.extend(watchers[i:])
                        watch[false_lit] = kept
                        return cid
                    true.add(other)
                    reason[abs(other)] = cid
                    trail.append(other)
            watch[false_lit] = kept
        return None

    def _closure(self, start: List[int], reason: Dict[int, int]) -> Set[int]:
        """Antecedent closure: the conflicting clauses plus, transitively,
        the reason clause of every variable they mention (from ``reason``
        for the lemma's own assignment, else from the root closure)."""
        clauses = self.clauses
        root_reason = self._root_reason
        marked = set(start)
        stack = list(marked)
        seen_vars: Set[int] = set()
        while stack:
            for lit in clauses[stack.pop()]:
                var = abs(lit)
                if var in seen_vars:
                    continue
                seen_vars.add(var)
                rcid = reason.get(var)
                if rcid is None:
                    rcid = root_reason.get(var)
                if rcid is not None and rcid not in marked:
                    marked.add(rcid)
                    stack.append(rcid)
        return marked


def check_events(
    events: Sequence[Tuple[str, Tuple[int, ...]]],
    assumptions: Sequence[int] = (),
    trim: bool = True,
) -> RupOutcome:
    """Check a :class:`~repro.sat.proof.ProofLog` event stream.

    The last ``ADD`` event is the UNSAT claim: it must consist solely of
    negated ``assumptions`` literals (hence be the empty clause when no
    assumptions were given) and every lemma it transitively depends on
    must be RUP at its point in the log.  ``trim=False`` checks every
    lemma instead of the needed subset.
    """
    db = _ClauseDb()
    norm: List[Tuple[str, Optional[int]]] = []
    # Live clauses by literal set, built at the first deletion: most logs
    # have none, and then nothing needs matching.
    by_key: Optional[Dict[FrozenSet[int], List[int]]] = None
    deleted: Set[int] = set()
    lemmas: Set[int] = set()
    last_add = -1
    for tag, raw in events:
        if tag == INPUT or tag == ADD:
            lits, taut = _normalize(raw)
            if lits is None:
                return RupOutcome(False, f"malformed clause {raw!r}")
            cid = db.new_clause(lits, taut)
            if by_key is not None:
                by_key.setdefault(frozenset(lits), []).append(cid)
            norm.append((tag, cid))
            if tag == ADD:
                lemmas.add(cid)
                last_add = len(norm) - 1
        elif tag == DELETE:
            lits, _ = _normalize(raw)
            if lits is None:
                return RupOutcome(False, f"malformed deletion {raw!r}")
            if by_key is None:
                by_key = {}
                for cid, clause in enumerate(db.clauses):
                    by_key.setdefault(frozenset(clause), []).append(cid)
            stack = by_key.get(frozenset(lits))
            cid = stack.pop() if stack else None
            if cid is not None:
                deleted.add(cid)
            norm.append((DELETE, cid))
        else:
            return RupOutcome(False, f"unknown event tag {tag!r}")
    total_lemmas = len(lemmas)
    if last_add < 0:
        return RupOutcome(False, "no lemma to certify", total_lemmas)

    terminal_cid = norm[last_add][1]
    allowed = {-lit for lit in assumptions}
    stray = set(db.clauses[terminal_cid]) - allowed
    if stray:
        return RupOutcome(
            False,
            "final lemma mentions non-assumption literals "
            f"{sorted(stray)}",
            total_lemmas,
        )

    for cid in range(len(db.clauses)):
        if cid not in deleted:
            db.attach(cid)
    needed: Set[int] = set(lemmas) if not trim else {terminal_cid}
    # Needed lemmas not yet checked.  Antecedents are attached clauses,
    # which were all added earlier in the log, so once none is pending
    # the rest of the walk has nothing to check.
    pending = len(needed)
    checked = 0
    for tag, cid in reversed(norm):
        if not pending:
            break
        if tag == DELETE:
            if cid is not None:
                db.attach(cid)
            continue
        db.detach(cid)
        if tag == INPUT or cid not in needed:
            continue
        pending -= 1
        ok, antecedents = db.rup(db.clauses[cid])
        checked += 1
        if not ok:
            return RupOutcome(
                False,
                f"lemma {list(db.clauses[cid])} is not RUP",
                total_lemmas,
                checked,
            )
        fresh = antecedents - needed
        if fresh:
            needed |= fresh
            pending += len(fresh & lemmas)
    needed_inputs = len(needed) - len(needed & lemmas)
    return RupOutcome(True, "", total_lemmas, checked, needed_inputs)
