"""Tseitin bit-blasting of SMT terms into CNF.

Every boolean term maps to one SAT literal; every bitvector term maps to
a list of SAT literals, LSB first.  Gates are hash-consed so shared
sub-DAGs produce shared circuitry.  Division and remainder are encoded
relationally (fresh quotient/remainder variables constrained by the
division algorithm), which is equisatisfiable and far smaller than a
restoring-divider circuit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from repro.sat.solver import SatSolver
from repro.smt.terms import Term


class BitBlaster:
    """Incrementally blasts terms into a :class:`SatSolver`."""

    def __init__(self, solver: SatSolver) -> None:
        self.solver = solver
        self._true = solver.new_var()
        solver.add_clause([self._true])
        self._bool_cache: Dict[Term, int] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._gate_cache: Dict[Tuple, int] = {}
        # name -> list of literals (bitvector) or single literal (bool)
        self.var_bits: Dict[str, object] = {}

    def certificate_digest(self) -> str:
        """Content hash of the CNF + variable map a certificate is about.

        Hashes the name -> SAT-literal map and the input-clause stream of
        the attached proof log (when one is active), so a certificate is
        pinned to the exact CNF the UNSAT claim was made for — replaying
        it against a different blast of "the same" query is detectable.
        """
        h = hashlib.sha256()
        for name in sorted(self.var_bits):
            bits = self.var_bits[name]
            encoded = bits if isinstance(bits, int) else list(bits)
            h.update(json.dumps([name, encoded]).encode("utf-8"))
        h.update(str(self.solver.num_vars).encode("utf-8"))
        proof = getattr(self.solver, "proof", None)
        if proof is not None:
            from repro.sat.proof import INPUT

            # The bytes json.dumps gives a list of ints, built directly.
            h.update(
                "".join(
                    "[" + ", ".join(map(str, lits)) + "]"
                    for tag, lits in proof.events
                    if tag == INPUT
                ).encode("utf-8")
            )
        return h.hexdigest()

    # -- primitive literals -------------------------------------------------
    @property
    def lit_true(self) -> int:
        return self._true

    @property
    def lit_false(self) -> int:
        return -self._true

    def _const_lit(self, value: bool) -> int:
        return self._true if value else -self._true

    def _is_const(self, lit: int) -> bool:
        return lit == self._true or lit == -self._true

    # -- gates ---------------------------------------------------------------
    def gate_and(self, lits: List[int]) -> int:
        out: List[int] = []
        for lit in lits:
            if lit == -self._true:
                return -self._true
            if lit == self._true:
                continue
            if -lit in out:
                return -self._true
            if lit not in out:
                out.append(lit)
        if not out:
            return self._true
        if len(out) == 1:
            return out[0]
        key = ("and", tuple(sorted(out)))
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        g = self.solver.new_var()
        for lit in out:
            self.solver.add_clause([-g, lit])
        self.solver.add_clause([g] + [-lit for lit in out])
        self._gate_cache[key] = g
        return g

    def gate_or(self, lits: List[int]) -> int:
        return -self.gate_and([-lit for lit in lits])

    def gate_xor(self, a: int, b: int) -> int:
        if a == self._true:
            return -b
        if a == -self._true:
            return b
        if b == self._true:
            return -a
        if b == -self._true:
            return a
        if a == b:
            return -self._true
        if a == -b:
            return self._true
        key = ("xor", (a, b) if a < b else (b, a))
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        g = self.solver.new_var()
        self.solver.add_clause([-g, a, b])
        self.solver.add_clause([-g, -a, -b])
        self.solver.add_clause([g, -a, b])
        self.solver.add_clause([g, a, -b])
        self._gate_cache[key] = g
        return g

    def gate_ite(self, c: int, t: int, e: int) -> int:
        if c == self._true:
            return t
        if c == -self._true:
            return e
        if t == e:
            return t
        if t == self._true and e == -self._true:
            return c
        if t == -self._true and e == self._true:
            return -c
        if t == self._true:
            return self.gate_or([c, e])
        if t == -self._true:
            return self.gate_and([-c, e])
        if e == self._true:
            return self.gate_or([-c, t])
        if e == -self._true:
            return self.gate_and([c, t])
        key = ("ite", (c, t, e))
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        g = self.solver.new_var()
        self.solver.add_clause([-g, -c, t])
        self.solver.add_clause([-g, c, e])
        self.solver.add_clause([g, -c, -t])
        self.solver.add_clause([g, c, -e])
        self._gate_cache[key] = g
        return g

    def gate_iff(self, a: int, b: int) -> int:
        return -self.gate_xor(a, b)

    def gate_maj(self, a: int, b: int, c: int) -> int:
        return self.gate_or(
            [self.gate_and([a, b]), self.gate_and([a, c]), self.gate_and([b, c])]
        )

    # -- arithmetic circuits ---------------------------------------------------
    def _add_bits(self, a: List[int], b: List[int], carry_in: int) -> List[int]:
        out = []
        carry = carry_in
        for x, y in zip(a, b):
            s = self.gate_xor(self.gate_xor(x, y), carry)
            carry = self.gate_maj(x, y, carry)
            out.append(s)
        return out

    def _neg_bits(self, a: List[int]) -> List[int]:
        zeros = [-self._true] * len(a)
        return self._add_bits(zeros, [-x for x in a], self._true)

    def _mul_bits(self, a: List[int], b: List[int]) -> List[int]:
        w = len(a)
        acc = [-self._true] * w
        for i in range(w):
            bi = b[i]
            if bi == -self._true:
                continue
            addend = [-self._true] * i + [self.gate_and([bi, a[j]]) for j in range(w - i)]
            acc = self._add_bits(acc, addend, -self._true)
        return acc

    def _ult_bits(self, a: List[int], b: List[int]) -> int:
        lt = -self._true
        for x, y in zip(a, b):  # LSB to MSB: later bits dominate
            lt = self.gate_ite(self.gate_xor(x, y), self.gate_and([-x, y]), lt)
        return lt

    def _eq_bits(self, a: List[int], b: List[int]) -> int:
        return self.gate_and([self.gate_iff(x, y) for x, y in zip(a, b)])

    def _shift_bits(self, a: List[int], amount: List[int], kind: str) -> List[int]:
        """Barrel shifter.  kind in {'shl', 'lshr', 'ashr'}."""
        w = len(a)
        bits = list(a)
        fill = a[-1] if kind == "ashr" else -self._true
        stage = 0
        while (1 << stage) < w:
            sh = 1 << stage
            c = amount[stage]
            new_bits = []
            for i in range(w):
                if kind == "shl":
                    src = bits[i - sh] if i - sh >= 0 else -self._true
                else:
                    src = bits[i + sh] if i + sh < w else fill
                new_bits.append(self.gate_ite(c, src, bits[i]))
            bits = new_bits
            stage += 1
        # Shift amounts >= w: result is 0 (shl/lshr) or sign fill (ashr).
        max_stage_bits = amount[stage:]
        # Also handle amounts within [w, 2^stage) representable below `stage`.
        big = self.gate_or(list(max_stage_bits))
        if (1 << stage) > w:
            # amounts in [w, 2^stage) use low bits only; compare amount >= w.
            wconst = [
                self._const_lit(bool((w >> i) & 1)) for i in range(len(amount))
            ]
            big = self.gate_or([big, -self._ult_bits(amount, wconst)])
        out = [self.gate_ite(big, fill, bit) for bit in bits]
        return out

    # -- term translation -----------------------------------------------------
    def blast_bool(self, term: Term) -> int:
        cached = self._bool_cache.get(term)
        if cached is not None:
            return cached
        lit = self._blast_bool(term)
        self._bool_cache[term] = lit
        return lit

    def _blast_bool(self, term: Term) -> int:
        op = term.op
        if op == "const":
            return self._const_lit(term.payload)
        if op == "var":
            lit = self.var_bits.get(term.payload)
            if lit is None:
                lit = self.solver.new_var()
                self.var_bits[term.payload] = lit
            assert isinstance(lit, int)
            return lit
        if op == "not":
            return -self.blast_bool(term.args[0])
        if op == "and":
            return self.gate_and([self.blast_bool(a) for a in term.args])
        if op == "or":
            return self.gate_or([self.blast_bool(a) for a in term.args])
        if op == "xor":
            return self.gate_xor(self.blast_bool(term.args[0]), self.blast_bool(term.args[1]))
        if op == "ite":
            return self.gate_ite(
                self.blast_bool(term.args[0]),
                self.blast_bool(term.args[1]),
                self.blast_bool(term.args[2]),
            )
        if op == "bveq":
            return self._eq_bits(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == "bvult":
            return self._ult_bits(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == "bvslt":
            a = self.blast_bv(term.args[0])
            b = self.blast_bv(term.args[1])
            # Flip sign bits, then unsigned compare.
            a2 = a[:-1] + [-a[-1]]
            b2 = b[:-1] + [-b[-1]]
            return self._ult_bits(a2, b2)
        raise NotImplementedError(f"bool op {op}")

    def blast_bv(self, term: Term) -> List[int]:
        cached = self._bv_cache.get(term)
        if cached is not None:
            return cached
        bits = self._blast_bv(term)
        assert len(bits) == term.width, (term.op, len(bits), term.width)
        self._bv_cache[term] = bits
        return bits

    def _blast_bv(self, term: Term) -> List[int]:
        op = term.op
        w = term.width
        if op == "const":
            return [self._const_lit(bool((term.payload >> i) & 1)) for i in range(w)]
        if op == "var":
            bits = self.var_bits.get(term.payload)
            if bits is None:
                bits = [self.solver.new_var() for _ in range(w)]
                self.var_bits[term.payload] = bits
            assert isinstance(bits, list) and len(bits) == w
            return list(bits)
        if op == "bvite":
            c = self.blast_bool(term.args[0])
            t = self.blast_bv(term.args[1])
            e = self.blast_bv(term.args[2])
            return [self.gate_ite(c, x, y) for x, y in zip(t, e)]
        if op == "bvnot":
            return [-x for x in self.blast_bv(term.args[0])]
        if op == "bvneg":
            return self._neg_bits(self.blast_bv(term.args[0]))
        if op == "sext":
            bits = self.blast_bv(term.args[0])
            return bits + [bits[-1]] * (w - len(bits))
        if op == "concat":
            hi = self.blast_bv(term.args[0])
            lo = self.blast_bv(term.args[1])
            return lo + hi
        if op == "extract":
            hi_i, lo_i = term.payload
            bits = self.blast_bv(term.args[0])
            return bits[lo_i : hi_i + 1]
        if op in ("bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor"):
            a = self.blast_bv(term.args[0])
            b = self.blast_bv(term.args[1])
            if op == "bvadd":
                return self._add_bits(a, b, -self._true)
            if op == "bvsub":
                return self._add_bits(a, [-x for x in b], self._true)
            if op == "bvmul":
                return self._mul_bits(a, b)
            if op == "bvand":
                return [self.gate_and([x, y]) for x, y in zip(a, b)]
            if op == "bvor":
                return [self.gate_or([x, y]) for x, y in zip(a, b)]
            return [self.gate_xor(x, y) for x, y in zip(a, b)]
        if op in ("bvshl", "bvlshr", "bvashr"):
            a = self.blast_bv(term.args[0])
            amount = self.blast_bv(term.args[1])
            kind = {"bvshl": "shl", "bvlshr": "lshr", "bvashr": "ashr"}[op]
            return self._shift_bits(a, amount, kind)
        if op in ("bvudiv", "bvurem"):
            return self._blast_udiv(term)
        if op in ("bvsdiv", "bvsrem"):
            return self._blast_sdiv(term)
        raise NotImplementedError(f"bv op {op}")

    def _div_pair(self, a_bits: List[int], b_bits: List[int]) -> Tuple[List[int], List[int]]:
        """Fresh (q, r) constrained so that a = q*b + r with r < b (b != 0)."""
        w = len(a_bits)
        q = [self.solver.new_var() for _ in range(w)]
        r = [self.solver.new_var() for _ in range(w)]
        ext = [-self._true] * w
        a2 = a_bits + ext
        b2 = b_bits + ext
        q2 = q + ext
        r2 = r + ext
        prod = self._mul_bits(q2, b2)
        total = self._add_bits(prod, r2, -self._true)
        eq = self._eq_bits(total, a2)
        rem_lt = self._ult_bits(r, b_bits)
        b_zero = self._eq_bits(b_bits, [-self._true] * w)
        # b != 0  =>  a == q*b + r  and  r < b
        self.solver.add_clause([b_zero, eq])
        self.solver.add_clause([b_zero, rem_lt])
        # b == 0  =>  q == all-ones, r == a   (SMT-LIB semantics)
        for bit in q:
            self.solver.add_clause([-b_zero, bit])
        for rb, ab in zip(r, a_bits):
            self.solver.add_clause([-b_zero, -rb, ab])
            self.solver.add_clause([-b_zero, rb, -ab])
        return q, r

    def _blast_udiv(self, term: Term) -> List[int]:
        # Share q/r between udiv and urem of the same operands.
        a_t, b_t = term.args
        key = ("udivrem", a_t, b_t)
        pair = self._gate_cache.get(key)
        if pair is None:
            a = self.blast_bv(a_t)
            b = self.blast_bv(b_t)
            pair = self._div_pair(a, b)
            self._gate_cache[key] = pair
        q, r = pair  # type: ignore[misc]
        return list(q) if term.op == "bvudiv" else list(r)

    def _blast_sdiv(self, term: Term) -> List[int]:
        a_t, b_t = term.args
        key = ("sdivrem", a_t, b_t)
        pair = self._gate_cache.get(key)
        if pair is None:
            a = self.blast_bv(a_t)
            b = self.blast_bv(b_t)
            sa, sb = a[-1], b[-1]
            abs_a = [self.gate_ite(sa, n, p) for n, p in zip(self._neg_bits(a), a)]
            abs_b = [self.gate_ite(sb, n, p) for n, p in zip(self._neg_bits(b), b)]
            q_u, r_u = self._div_pair(abs_a, abs_b)
            q_sign = self.gate_xor(sa, sb)
            q = [self.gate_ite(q_sign, n, p) for n, p in zip(self._neg_bits(q_u), q_u)]
            r = [self.gate_ite(sa, n, p) for n, p in zip(self._neg_bits(r_u), r_u)]
            # Division by zero: q = all-ones, r = a (match term-level folding).
            w = len(a)
            b_zero = self._eq_bits(b, [-self._true] * w)
            q = [self.gate_ite(b_zero, self._true, bit) for bit in q]
            r = [self.gate_ite(b_zero, ab, bit) for ab, bit in zip(a, r)]
            pair = (q, r)
            self._gate_cache[key] = pair
        q, r = pair  # type: ignore[misc]
        return list(q) if term.op == "bvsdiv" else list(r)

    # -- assertions ------------------------------------------------------------
    def assert_term(self, term: Term) -> None:
        """Assert a boolean term as a top-level constraint."""
        assert term.is_bool
        lit = self.blast_bool(term)
        self.solver.add_clause([lit])
