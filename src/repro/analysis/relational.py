"""Relational value numbering over the product of the src/tgt CFGs.

Every other analysis in the repo (known-bits, points-to, memdf, the
prescreen) is single-function; refinement is decided per (src, tgt)
pair, so the facts that actually discharge queries are *relational*:
"this tgt value always equals that src value".  This module computes
them with a relational form of global value numbering:

* Block alignment (``repro.analysis.align``) pairs the two unrolled
  CFGs in lockstep.  Alignment needs value congruence (to match branch
  conditions) and value congruence needs alignment (to match phis), so
  the two are iterated to a fixpoint — the unrolled CFGs are acyclic
  and both maps only grow, so a few rounds converge.

* Value numbers are *affine*: ``VN = (base class, offset)``, meaning
  ``value = base + offset (mod 2^width)``.  The offset component is the
  relational range/offset pass: it propagates equalities *and constant
  offsets* between src and tgt values (``%s = %t + 4``) through
  flag-free add/sub chains, mirroring the certified e-graph rules
  (commutativity, constant folding, identity elements, inverted icmp
  predicates).  Classes are seeded from the shared arguments, globals
  and alloca slots, closed under identical opcodes, and extended with
  memdf must-forwarding facts (a load joins the class of the value the
  unique dominating store wrote).

Soundness contract: ``VN(src value) == VN(tgt value)`` asserts that the
two derivation trees are identical up to the certified normalisations,
with a position-wise bijection between their nondeterministic leaves
(per-use undef readings, freeze choices).  Choosing the primed src
readings equal to tgt's paired readings is then a legal CEGAR witness
under which the values — including their poison bits — coincide.  This
is why folds that *delete or duplicate* nondet leaves (``sub x, x -> 0``,
``select c, x, x -> x``, ``mul x, 0 -> 0``) are deliberately absent:
they hold for each evaluation of ``x`` separately but not across the
distinct per-use readings the encoder emits.  Freeze instructions pair
one-to-one across the functions when their operands are congruent;
paired freezes share a class, unpaired ones stay opaque.

Consumers: the ``R-relational-equal`` prescreen rule (discharge before
encoding), relational witness seeds for the e-graph and CEGAR rungs
(replacing the lone-forall-var heuristic of PR 7), and alignment-aware
counterexample notes naming the first diverging value pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.align import Alignment, align_blocks
from repro.harness.counters import bump
from repro.ir.cfg import predecessors, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    ExtractElement,
    ExtractValue,
    FCmp,
    Freeze,
    Gep,
    ICmp,
    InsertElement,
    InsertValue,
    Load,
    Phi,
    Ret,
    Select,
    ShuffleVector,
    Store,
)
from repro.ir.types import IntType
from repro.ir.values import (
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalRef,
    PoisonValue,
    Register,
    UndefValue,
    Value,
)


# A value number: (interned base class id, additive offset).  The pair
# asserts value == base + offset mod 2^width of the value's type.
VN = Tuple[int, int]

_ROUNDS = 3  # alignment <-> VN fixpoint iterations (acyclic: converges fast)

# Identity folds that return the *surviving* operand, so the nondet
# leaves of the result are exactly those of that operand (poison-exact
# even with nsw/nuw/exact flags: the neutral element never overflows or
# drops bits).  Folds that discard a non-constant operand (and x, 0;
# mul x, 0; urem x, 1) are intentionally excluded — they forget poison.
_RIGHT_IDENTITY = {
    "add": 0,
    "sub": 0,
    "or": 0,
    "xor": 0,
    "shl": 0,
    "lshr": 0,
    "ashr": 0,
    "mul": 1,
    "udiv": 1,
    "sdiv": 1,
}
_COMMUTATIVE = {"add", "mul", "and", "or", "xor"}
# icmp predicates canonicalised by swapping operands.
_SWAPPED_PRED = {
    "sgt": "slt",
    "sge": "sle",
    "ugt": "ult",
    "uge": "ule",
}


class _Numbering:
    """Interned congruence classes shared by both sides of the pair."""

    def __init__(self) -> None:
        self._classes: Dict[Tuple, int] = {}
        self._next = 0
        self.vn: Dict[Tuple[str, str], VN] = {}  # (side, reg) -> VN
        # Registers whose class membership is *unconditional at the term
        # level*: derived purely through opcode signatures and certified
        # folds (no load forwarding, freeze pairing, or phi matching,
        # whose claims only hold under the witness / UB-freedom caveat).
        # Such pairs may be unioned in an e-graph outright — provided
        # their encoded terms contain no nondet readings, which the
        # consumer checks on the SMT side.
        self.uncond: set = set()  # (side, reg)

    def intern(self, key: Tuple) -> int:
        cid = self._classes.get(key)
        if cid is None:
            cid = self._next
            self._next += 1
            self._classes[key] = cid
        return cid

    def fresh(self, tag: str, side: str, name: str) -> int:
        # Opaque class: never merges with anything else.
        return self.intern((tag, side, name))

    def const_base(self, width: int) -> int:
        return self.intern(("const", width))


@dataclass
class RelationalResult:
    """Congruence facts for one (src, tgt) unrolled function pair."""

    src: Function
    tgt: Function
    alignment: Alignment
    numbering: _Numbering
    nondet_pairs: Tuple[Tuple[str, str], ...] = ()  # (src reg, tgt reg)

    # -- core queries ---------------------------------------------------------
    def value_vn(self, side: str, value: Value) -> Optional[VN]:
        return _value_vn(self.numbering, side, value)

    def congruent(self, src_value: Value, tgt_value: Value) -> bool:
        """Known-equal (value and poison) under the witness pairing."""
        a = self.value_vn("src", src_value)
        b = self.value_vn("tgt", tgt_value)
        return a is not None and a == b

    def offset_between(self, src_value: Value, tgt_value: Value) -> Optional[int]:
        """``src - tgt`` when both sit on the same affine base."""
        a = self.value_vn("src", src_value)
        b = self.value_vn("tgt", tgt_value)
        if a is None or b is None or a[0] != b[0]:
            return None
        return a[1] - b[1]

    # -- consumer: R-relational-equal -----------------------------------------
    def ret_congruent(self) -> bool:
        """Every return site pairs with a congruent, aligned partner."""
        cert = dict(self.alignment.certified)
        src_rets = _ret_blocks(self.src)
        tgt_rets = _ret_blocks(self.tgt)
        if not src_rets or len(src_rets) != len(tgt_rets):
            return False
        matched_tgt = set()
        for label, ret in src_rets.items():
            partner = cert.get(label)
            if partner is None or partner not in tgt_rets:
                return False
            other = tgt_rets[partner]
            if (ret.value is None) != (other.value is None):
                return False
            if ret.value is not None and not self.congruent(ret.value, other.value):
                return False
            matched_tgt.add(partner)
        return matched_tgt == set(tgt_rets)

    def store_effects_congruent(self, memdf_src, memdf_tgt) -> bool:
        """Caller-visible stores match pairwise in the entry blocks.

        Requires every store that may touch a shared writable block to
        sit in the (unconditionally executed) entry block, with the two
        entry sequences congruent store-by-store — same pointer class,
        same value class, same stored type.  Untouched shared bytes are
        the same initial-memory terms on both sides, so congruent store
        sequences leave byte-identical caller-visible memory under the
        witness pairing.
        """
        if memdf_src is None or memdf_tgt is None:
            return False
        src_stores = _shared_entry_stores(self.src, memdf_src)
        tgt_stores = _shared_entry_stores(self.tgt, memdf_tgt)
        if src_stores is None or tgt_stores is None:
            return False
        if len(src_stores) != len(tgt_stores):
            return False
        for s, t in zip(src_stores, tgt_stores):
            if str(s.value.type) != str(t.value.type):
                return False
            if not self.congruent(s.pointer, t.pointer):
                return False
            if not self.congruent(s.value, t.value):
                return False
        return True

    # -- consumer: witness seeds ----------------------------------------------
    def origin_map(self) -> Dict[str, str]:
        """src nondet origin tag -> the paired tgt origin tag."""
        return {
            f"freeze_{s}": f"freeze_{t}" for s, t in self.nondet_pairs
        }

    def congruent_register_pairs(self) -> List[Tuple[str, str]]:
        """Cross-function (src reg, tgt reg) pairs with equal VN."""
        by_vn: Dict[VN, List[str]] = {}
        for (side, name), vn in self.numbering.vn.items():
            if side == "src":
                by_vn.setdefault(vn, []).append(name)
        out = []
        for (side, name), vn in self.numbering.vn.items():
            if side == "tgt":
                for src_name in by_vn.get(vn, ()):
                    out.append((src_name, name))
        return out

    def unconditional_pairs(self) -> List[Tuple[str, str]]:
        """Congruent pairs whose membership proof is term-unconditional."""
        uncond = self.numbering.uncond
        return [
            (s, t)
            for s, t in self.congruent_register_pairs()
            if ("src", s) in uncond and ("tgt", t) in uncond
        ]

    # -- consumer: counterexample reports -------------------------------------
    def first_divergence(self) -> Optional[Tuple[str, str, str, str]]:
        """First aligned value pair whose classes diverge.

        Returns ``(src_block, tgt_block, src_reg, tgt_reg)`` for the
        first position (src RPO, instruction order) where two aligned
        instructions compute provably-different-looking values, or
        ``None`` when everything aligned is congruent.
        """
        for a, b in self.alignment.pairs:
            src_insts = [
                i for i in self.src.blocks[a].instructions if getattr(i, "name", None)
            ]
            tgt_insts = [
                i for i in self.tgt.blocks[b].instructions if getattr(i, "name", None)
            ]
            for s, t in zip(src_insts, tgt_insts):
                va = self.numbering.vn.get(("src", s.name))
                vb = self.numbering.vn.get(("tgt", t.name))
                if va is not None and vb is not None and va != vb:
                    return (a, b, s.name, t.name)
        return None

    def describe_divergence(self) -> Optional[str]:
        div = self.first_divergence()
        if div is None:
            return None
        a, b, s, t = div
        detail = ""
        sv = self.numbering.vn.get(("src", s))
        tv = self.numbering.vn.get(("tgt", t))
        if sv is not None and tv is not None and sv[0] == tv[0]:
            detail = f" (same base, offsets differ by {sv[1] - tv[1]})"
        return (
            f"relational: first diverging value pair %{s} (src block {a})"
            f" vs %{t} (tgt block {b}){detail}"
        )


def analyze_relational(
    src: Function,
    tgt: Function,
    memdf_src=None,
    memdf_tgt=None,
) -> RelationalResult:
    """Run the alignment <-> value-numbering fixpoint on one pair."""
    result = None
    alignment = Alignment()
    for _ in range(_ROUNDS):
        numbering = _Numbering()
        pairs: List[Tuple[str, str]] = []
        _number_side(numbering, "src", src, memdf_src, alignment, None, pairs)
        _number_side(numbering, "tgt", tgt, memdf_tgt, alignment, src, pairs)

        def congruent(sv: Value, tv: Value) -> bool:
            a = _value_vn(numbering, "src", sv)
            b = _value_vn(numbering, "tgt", tv)
            return a is not None and a == b

        new_alignment = align_blocks(src, tgt, congruent)
        result = RelationalResult(
            src, tgt, new_alignment, numbering, tuple(pairs)
        )
        if new_alignment.pairs == alignment.pairs and (
            new_alignment.certified == alignment.certified
        ):
            break
        alignment = new_alignment

    bump("relational.analyses")
    bump("relational.aligned_blocks", len(result.alignment.certified))
    return result


# -- value numbering ----------------------------------------------------------


def _width_of(value_type) -> Optional[int]:
    if isinstance(value_type, IntType):
        return value_type.width
    return None


def _mask(vn_off: int, width: Optional[int]) -> int:
    if width is None:
        return vn_off
    return vn_off & ((1 << width) - 1)


def _value_vn(num: _Numbering, side: str, value: Value) -> Optional[VN]:
    if isinstance(value, Register):
        return num.vn.get((side, value.name))
    if isinstance(value, ConstantInt):
        return (num.const_base(value.type.width), value.value)
    if isinstance(value, GlobalRef):
        return (num.intern(("global", value.name)), 0)
    if isinstance(value, ConstantNull):
        return (num.intern(("null",)), 0)
    if isinstance(value, UndefValue):
        return (num.intern(("undef", str(value.type))), 0)
    if isinstance(value, PoisonValue):
        return (num.intern(("poison", str(value.type))), 0)
    if isinstance(value, ConstantFloat):
        return (num.intern(("cfloat", str(value.type), value.bits)), 0)
    if isinstance(value, ConstantAggregate):
        return (num.intern(("cagg", str(value.type), str(value))), 0)
    return None


def _is_const(num: _Numbering, vn: VN, width: Optional[int]) -> Optional[int]:
    if width is not None and vn[0] == num.const_base(width):
        return _mask(vn[1], width)
    return None


def _fold_const(opcode: str, width: int, a: int, b: int) -> Optional[int]:
    """Exact flag-free constant folding; ``None`` when not total."""
    m = (1 << width) - 1
    if opcode == "add":
        return (a + b) & m
    if opcode == "sub":
        return (a - b) & m
    if opcode == "mul":
        return (a * b) & m
    if opcode == "and":
        return a & b
    if opcode == "or":
        return a | b
    if opcode == "xor":
        return a ^ b
    if opcode in ("shl", "lshr", "ashr") and b < width:
        if opcode == "shl":
            return (a << b) & m
        if opcode == "lshr":
            return a >> b
        sa = a - (1 << width) if a >= 1 << (width - 1) else a
        return (sa >> b) & m
    return None


def _number_side(
    num: _Numbering,
    side: str,
    fn: Function,
    memdf,
    alignment: Alignment,
    src_fn: Optional[Function],
    nondet_pairs: List[Tuple[str, str]],
) -> None:
    """Assign a VN to every register of one side, in RPO."""
    preds = predecessors(fn)
    src_preds = predecessors(src_fn) if src_fn is not None else {}
    # Seed the shared inputs: the encoder gives same-named arguments the
    # same shared SMT variable on both sides, so name-keyed classes are
    # exactly the "meets on the same inputs" contract.  Arguments count
    # as unconditional: any residual nondeterminism (per-use undef
    # readings of an undef argument) manifests as nondet vars in the
    # encoded term, which the union-seed consumer filters on its side.
    for arg in fn.args:
        num.vn[(side, arg.name)] = (num.intern(("arg", arg.name)), 0)
        num.uncond.add((side, arg.name))
    # Freeze pairing state: src freezes available for tgt adoption.
    free_freezes: List[Tuple[VN, str, int]] = []
    if side == "src":
        num._src_freezes = free_freezes  # type: ignore[attr-defined]
    else:
        free_freezes = list(getattr(num, "_src_freezes", []))
    taken = set()

    for label in reverse_postorder(fn):
        block = fn.blocks.get(label)
        if block is None:
            continue
        for inst in block.instructions:
            name = getattr(inst, "name", None)
            if not name:
                continue
            vn = _instruction_vn(
                num,
                side,
                fn,
                label,
                inst,
                memdf,
                alignment,
                src_fn,
                preds,
                src_preds,
                free_freezes,
                taken,
                nondet_pairs,
            )
            if vn is None:
                vn = (num.fresh("opaque", side, name), 0)
            num.vn[(side, name)] = vn
            if _derivation_unconditional(num, side, inst):
                num.uncond.add((side, name))


# Pure value operators whose encoded term is a total function of the
# operand terms.  Load (memory state), Freeze (fresh choice), Phi (path
# condition), Call (havoc) and Alloca (per-side layout address) are
# excluded: their congruence claims are witness-conditional, so they
# must never flow into unconditional e-graph unions.
_PURE_OPS = (
    BinOp,
    ICmp,
    FCmp,
    Select,
    Cast,
    Gep,
    ExtractElement,
    InsertElement,
    ExtractValue,
    InsertValue,
    ShuffleVector,
)


def _value_unconditional(num: _Numbering, side: str, value: Value) -> bool:
    if isinstance(value, Register):
        return (side, value.name) in num.uncond
    if isinstance(value, (ConstantInt, ConstantFloat, ConstantNull, GlobalRef)):
        return True
    if isinstance(value, ConstantAggregate):
        return all(_value_unconditional(num, side, e) for e in value.elems)
    # Undef/Poison literals encode to fresh per-use readings.
    return False


def _pure_operands(inst) -> List[Value]:
    if isinstance(inst, (BinOp, ICmp, FCmp)):
        return [inst.lhs, inst.rhs]
    if isinstance(inst, Select):
        return [inst.cond, inst.on_true, inst.on_false]
    if isinstance(inst, Cast):
        return [inst.operand]
    if isinstance(inst, Gep):
        return [inst.pointer, *inst.indices]
    if isinstance(inst, ExtractElement):
        return [inst.vector, inst.index]
    if isinstance(inst, InsertElement):
        return [inst.vector, inst.element, inst.index]
    if isinstance(inst, ExtractValue):
        return [inst.aggregate]
    if isinstance(inst, InsertValue):
        return [inst.aggregate, inst.element]
    if isinstance(inst, ShuffleVector):
        return [inst.v1, inst.v2]
    return []


def _derivation_unconditional(num: _Numbering, side: str, inst) -> bool:
    """True when the register's term is a pure function of uncond terms."""
    if not isinstance(inst, _PURE_OPS):
        return False
    return all(
        _value_unconditional(num, side, v) for v in _pure_operands(inst)
    )


def _instruction_vn(
    num: _Numbering,
    side: str,
    fn: Function,
    label: str,
    inst,
    memdf,
    alignment: Alignment,
    src_fn: Optional[Function],
    preds: Dict[str, List[str]],
    src_preds: Dict[str, List[str]],
    free_freezes: List[Tuple[VN, str, int]],
    taken: set,
    nondet_pairs: List[Tuple[str, str]],
) -> Optional[VN]:
    look = lambda v: _value_vn(num, side, v)  # noqa: E731

    if isinstance(inst, BinOp):
        width = _width_of(inst.type)
        a, b = look(inst.lhs), look(inst.rhs)
        if a is None or b is None or width is None:
            return None
        ca = _is_const(num, a, width)
        cb = _is_const(num, b, width)
        flags = tuple(sorted(inst.flags)) if inst.flags else ()
        if not flags and ca is not None and cb is not None:
            folded = _fold_const(inst.opcode, width, ca, cb)
            if folded is not None:
                return (num.const_base(width), folded)
        # Identity element: result *is* the surviving operand.
        allones = (1 << width) - 1
        identity = allones if inst.opcode == "and" else _RIGHT_IDENTITY.get(
            inst.opcode
        )
        if cb is not None and identity == cb:
            return a
        if ca is not None and identity == ca and inst.opcode in _COMMUTATIVE:
            return b
        if not flags and inst.opcode == "add":
            # Affine: (x + i) + (y + j) = (x + y) + (i + j).
            if cb is not None:
                return (a[0], _mask(a[1] + cb, width))
            if ca is not None:
                return (b[0], _mask(b[1] + ca, width))
            lo, hi = sorted((a[0], b[0]))
            base = num.intern(("add", width, lo, hi))
            return (base, _mask(a[1] + b[1], width))
        if not flags and inst.opcode == "sub":
            if cb is not None:
                return (a[0], _mask(a[1] - cb, width))
            # (x + i) - (y + j) = (x - y) + (i - j); the sub node is
            # kept even when the bases coincide (no x - x -> 0 fold:
            # per-use undef readings differ).
            base = num.intern(("sub", width, a[0], b[0]))
            return (base, _mask(a[1] - b[1], width))
        ops = [a, b]
        if inst.opcode in _COMMUTATIVE:
            ops.sort()
        return (
            num.intern(("bin", inst.opcode, width, flags, ops[0], ops[1])),
            0,
        )

    if isinstance(inst, ICmp):
        a, b = look(inst.lhs), look(inst.rhs)
        if a is None or b is None:
            return None
        pred = inst.pred
        if pred in _SWAPPED_PRED:
            pred = _SWAPPED_PRED[pred]
            a, b = b, a
        elif pred in ("eq", "ne") and b < a:
            a, b = b, a
        return (num.intern(("icmp", pred, str(inst.lhs.type), a, b)), 0)

    if isinstance(inst, FCmp):
        a, b = look(inst.lhs), look(inst.rhs)
        if a is None or b is None:
            return None
        fmf = tuple(sorted(getattr(inst, "fmf", ()) or ()))
        return (num.intern(("fcmp", inst.pred, fmf, a, b)), 0)

    if isinstance(inst, Select):
        c, t, f = look(inst.cond), look(inst.on_true), look(inst.on_false)
        if c is None or t is None or f is None:
            return None
        # No select c, x, x -> x fold: it forgets the condition's poison.
        return (num.intern(("select", str(inst.type), c, t, f)), 0)

    if isinstance(inst, Cast):
        a = look(inst.operand)
        if a is None:
            return None
        return (
            num.intern(("cast", inst.opcode, str(inst.type), a)),
            0,
        )

    if isinstance(inst, Freeze):
        a = look(inst.operand)
        if side == "src":
            cid = num.fresh("freeze", side, inst.name)
            if a is not None:
                free_freezes.append((a, inst.name, cid))
            return (cid, 0)
        # tgt: adopt the first unpaired src freeze with a congruent
        # operand.  One-to-one: two freezes of the same value may differ,
        # so a src freeze backs at most one tgt freeze.
        if a is not None:
            for i, (vn, src_name, cid) in enumerate(free_freezes):
                if i in taken or vn != a:
                    continue
                taken.add(i)
                nondet_pairs.append((src_name, inst.name))
                return (cid, 0)
        return (num.fresh("freeze", side, inst.name), 0)

    if isinstance(inst, Phi):
        incoming = [(look(v), pl) for v, pl in inst.incoming]
        if any(vn is None for vn, _ in incoming):
            return None
        distinct = {vn for vn, _ in incoming}
        if len(distinct) == 1:
            # phi(x, ..., x): every edge reading can map onto the same
            # partner reading, so the phi collapses to its operand.
            return next(iter(distinct))
        if side == "tgt" and src_fn is not None:
            return _match_tgt_phi(
                num, fn, label, inst, incoming, alignment, src_fn, preds, src_preds
            )
        return None

    if isinstance(inst, Load):
        if memdf is not None:
            fact = memdf.forwards.get(id(inst))
            if fact is not None:
                fwd = _value_vn(num, side, fact.value)
                if fwd is not None:
                    return fwd
        return None

    if isinstance(inst, Alloca):
        if memdf is not None:
            fact = memdf.pointsto.get(inst.name)
            if fact is not None and fact.bids is not None and len(fact.bids) == 1:
                # Same bid => same concrete address on both sides.
                return (num.intern(("alloca", next(iter(fact.bids)))), 0)
        return None

    if isinstance(inst, Gep):
        p = look(inst.pointer)
        idx = [look(i) for i in inst.indices]
        if p is None or any(i is None for i in idx):
            return None
        key = ("gep", bool(inst.inbounds), str(inst.source_type), p, tuple(idx))
        return (num.intern(key), 0)

    if isinstance(inst, ExtractElement):
        v, i = look(inst.vector), look(inst.index)
        if v is None or i is None:
            return None
        return (num.intern(("extractelement", v, i)), 0)

    if isinstance(inst, InsertElement):
        v, e, i = look(inst.vector), look(inst.element), look(inst.index)
        if v is None or e is None or i is None:
            return None
        return (num.intern(("insertelement", v, e, i)), 0)

    if isinstance(inst, ExtractValue):
        a = look(inst.aggregate)
        if a is None:
            return None
        return (num.intern(("extractvalue", a, tuple(inst.indices))), 0)

    if isinstance(inst, InsertValue):
        a, e = look(inst.aggregate), look(inst.element)
        if a is None or e is None:
            return None
        return (num.intern(("insertvalue", a, e, tuple(inst.indices))), 0)

    if isinstance(inst, ShuffleVector):
        if any(m is None for m in inst.mask):
            return None  # undef mask lanes are per-use nondeterministic
        v1, v2 = look(inst.v1), look(inst.v2)
        if v1 is None or v2 is None:
            return None
        return (num.intern(("shuffle", v1, v2, tuple(inst.mask))), 0)

    if isinstance(inst, Call):
        return None  # opaque: havoc'ed result, never congruent

    return None


def _match_tgt_phi(
    num: _Numbering,
    fn: Function,
    label: str,
    inst: Phi,
    incoming: List[Tuple[VN, str]],
    alignment: Alignment,
    src_fn: Function,
    preds: Dict[str, List[str]],
    src_preds: Dict[str, List[str]],
) -> Optional[VN]:
    """Adopt the class of a congruent src phi in the aligned block."""
    cert = dict(alignment.certified)
    src_label = None
    for a, b in alignment.certified:
        if b == label:
            src_label = a
            break
    if src_label is None:
        return None
    tgt_pred_list = preds.get(label, [])
    src_pred_list = src_preds.get(src_label, [])
    if len(tgt_pred_list) != len(src_pred_list):
        return None
    if len(set(tgt_pred_list)) != len(tgt_pred_list):
        return None
    by_label = {pl: vn for vn, pl in incoming}
    if len(by_label) != len(incoming):
        return None
    for cand in src_fn.blocks[src_label].phis():
        src_in = {pl: _value_vn(num, "src", v) for v, pl in cand.incoming}
        if set(src_in) != set(src_pred_list) or None in src_in.values():
            continue
        ok = True
        for p in src_pred_list:
            q = cert.get(p)
            if q is None or q not in by_label or src_in[p] != by_label[q]:
                ok = False
                break
        if ok:
            src_vn = num.vn.get(("src", cand.name))
            if src_vn is not None:
                return src_vn
    return None


# -- helpers for R-relational-equal -------------------------------------------


def _ret_blocks(fn: Function) -> Dict[str, Ret]:
    out: Dict[str, Ret] = {}
    for label, block in fn.blocks.items():
        term = block.terminator
        if isinstance(term, Ret):
            out[label] = term
    return out


def _shared_entry_stores(fn: Function, memdf) -> Optional[List[Store]]:
    """Stores that may touch shared writable memory, iff all in entry.

    Returns ``None`` when a caller-visible store sits outside the entry
    block (its execution would be conditional) or when the function has
    no blocks.
    """
    if not fn.blocks:
        return None
    shared_writable = {
        info.bid for info in memdf.layout.shared_blocks if info.writable
    }
    entry_label = fn.entry.label
    out: List[Store] = []
    for label, block in fn.blocks.items():
        for inst in block.instructions:
            if not isinstance(inst, Store):
                continue
            fact = memdf.pointer_fact(inst.pointer)
            if fact.bids is not None and not (set(fact.bids) & shared_writable):
                continue  # provably local / read-only: caller-invisible
            if label != entry_label:
                return None
            out.append(inst)
    return out
