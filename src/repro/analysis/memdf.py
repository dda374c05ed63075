"""Memory dataflow on top of the points-to domain.

Consumes :mod:`repro.analysis.pointsto` facts and derives, per function:

* **store-to-load forwarding** — a load that provably returns the value
  of an earlier store (same must-location, no intervening may-aliasing
  write or call in the block);
* **clobber sets** — the set of block-ids any store may write (``None``
  when a store or call escapes the domain);
* **access classification** — loads/stores that are provably
  out-of-bounds for *every* candidate (bid, offset), or provably
  in-bounds for all of them;
* **dead stores** — a store overwritten by a covering same-location
  store with no intervening observer.

The facts feed three consumers: the prescreen rules ``R-alias-disjoint``
/ ``R-load-forward`` / ``R-oob-ub`` in :mod:`repro.analysis.prescreen`,
the encoder's aliasing-case-split pruning in
:mod:`repro.semantics.encoder`, and the memory-refinement block skip in
:mod:`repro.refinement.check`.  All of them are gated behind
``VerifyOptions.memdf`` and may only *strengthen* what the solver would
prove anyway — never change a verdict.

Soundness: every fact holds for executions satisfying the encoder
precondition in which the involved pointers are defined; executions
where a pointer is poison/undef make the access UB, which every
refinement query masks through its ``ub`` disjunct.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.pointsto import (
    PointsToFact,
    analyze_pointsto,
    assign_alloca_bids,
)
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Call, Load, Ret, Store
from repro.ir.types import IntType, byte_size
from repro.ir.values import ConstantInt, GlobalRef, Register
from repro.semantics.memory import MemoryLayout
from repro.smt import terms


@dataclass(frozen=True)
class AccessFact:
    """Classification of one load/store against its candidate blocks."""

    pts: PointsToFact
    nbytes: int
    oob: bool  # provably out of bounds for every candidate (⇒ UB if executed)
    inbounds: bool  # provably in bounds for every candidate


@dataclass(frozen=True)
class ForwardFact:
    """A load that provably returns ``store``'s operand value."""

    store: Store
    value: object  # the stored ir.values.Value


@dataclass
class MemDF:
    """All memory-dataflow facts for one (unrolled) function."""

    fn: Function
    layout: MemoryLayout
    pointsto: Dict[str, PointsToFact]
    access: Dict[int, AccessFact] = field(default_factory=dict)  # id(inst)
    forwards: Dict[int, ForwardFact] = field(default_factory=dict)  # id(load)
    dead_stores: FrozenSet[int] = frozenset()  # id(store)
    clobbered: Optional[FrozenSet[int]] = frozenset()  # None = may write anything
    has_calls: bool = False
    entry_oob: bool = False  # an always-executed entry-block access is OOB

    # -- consumer queries -----------------------------------------------------
    def pointer_fact(self, value) -> PointsToFact:
        """Abstract location of a pointer operand (⊤ when untracked)."""
        if isinstance(value, Register):
            fact = self.pointsto.get(value.name)
            if fact is not None:
                return fact
        elif isinstance(value, GlobalRef):
            for info in self.layout.shared_blocks:
                if info.name == f"@{value.name}":
                    return PointsToFact(frozenset({info.bid}), (0, 0))
        from repro.ir.values import ConstantNull

        if isinstance(value, ConstantNull):
            return PointsToFact(frozenset({0}), (0, 0))
        from repro.analysis.pointsto import TOP

        return TOP

    def clobbered_shared_writable(self) -> Optional[FrozenSet[int]]:
        """Caller-visible writable bids any store may touch (None = ⊤)."""
        if self.clobbered is None:
            return None
        shared = frozenset(
            info.bid
            for info in self.layout.shared_blocks
            if info.writable
        )
        return self.clobbered & shared

    def resolve_return(self) -> Optional[Tuple]:
        """The function's return value as a symbol, when provable.

        Returns ``("const", value, width)`` or ``("arg", name, type-str)``
        when the (unique) returned value provably equals that symbol in
        every UB-free execution — following store-to-load forwarding
        chains — else ``None``.
        """
        rets = [
            inst
            for block in self.fn.blocks.values()
            for inst in block.instructions
            if isinstance(inst, Ret)
        ]
        if len(rets) != 1 or rets[0].value is None:
            return None
        return self._resolve_value(rets[0].value, depth=8)

    def _resolve_value(self, value, depth: int) -> Optional[Tuple]:
        if depth <= 0:
            return None
        if isinstance(value, ConstantInt):
            ty = value.type
            if isinstance(ty, IntType):
                return ("const", value.value & ((1 << ty.width) - 1), ty.width)
            return None
        if not isinstance(value, Register):
            return None
        for arg in self.fn.args:
            if arg.name == value.name:
                if isinstance(arg.type, IntType):
                    return ("arg", arg.name, str(arg.type))
                return None
        definer = self._def_map().get(value.name)
        if isinstance(definer, Load):
            fwd = self.forwards.get(id(definer))
            if fwd is not None:
                return self._resolve_value(fwd.value, depth - 1)
        return None

    def _def_map(self) -> Dict[str, object]:
        cached = getattr(self, "_defs", None)
        if cached is None:
            cached = {}
            for block in self.fn.blocks.values():
                for inst in block.instructions:
                    name = getattr(inst, "name", None)
                    if name is not None:
                        cached[name] = inst
            self._defs = cached
        return cached


def _block_sizes(fn: Function, layout: MemoryLayout) -> Dict[int, int]:
    sizes = {info.bid: info.size for info in layout.shared_blocks}
    alloca_bids = assign_alloca_bids(fn, layout)
    for block in fn.blocks.values():
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst.name in alloca_bids:
                sizes[alloca_bids[inst.name]] = byte_size(inst.allocated_type)
    return sizes


def _classify(
    pts: PointsToFact, nbytes: int, sizes: Dict[int, int]
) -> Tuple[bool, bool]:
    """(provably-oob, provably-inbounds) of an ``nbytes`` access."""
    if pts.bids is None or not pts.bids:
        return False, False
    oob = True
    inbounds = True
    for bid in pts.bids:
        size = sizes.get(bid)
        if bid == 0 or size is None:
            inbounds = False  # null or unknown block: never provably valid
            continue
        if size < nbytes:
            inbounds = False
            continue
        if pts.off is None:
            # Some offset fits, so not provably OOB; not provably in
            # bounds either (the offset is caller-chosen).
            oob = False
            inbounds = False
            continue
        lo, hi = pts.off
        if hi < 0 or lo > size - nbytes:
            inbounds = False
            continue
        oob = False
        if lo < 0 or hi > size - nbytes:
            inbounds = False
    return oob, inbounds


@dataclass
class _Avail:
    """One forwardable store while scanning a block."""

    store: Store
    pts: PointsToFact
    nbytes: int
    observed: bool = False  # a later may-read saw this store's bytes


def _loc_key(value, pts: PointsToFact) -> Optional[Tuple]:
    """Must-location key: two accesses with equal keys touch the same
    (bid, offset) whenever both execute without UB."""
    if (
        pts.bids is not None
        and len(pts.bids) == 1
        and 0 not in pts.bids
        and pts.off is not None
        and pts.off[0] == pts.off[1]
    ):
        (bid,) = tuple(pts.bids)
        return ("c", bid, pts.off[0])
    if isinstance(value, Register):
        return ("r", value.name)
    if isinstance(value, GlobalRef):
        return ("g", value.name)
    return None


def analyze_memdf(fn: Function, layout: MemoryLayout) -> MemDF:
    """All memory-dataflow facts for ``fn`` (memoized per function)."""
    cached = _MEMDF_CACHE.get(id(fn))
    if cached is not None and cached[0]() is fn and cached[1].layout is layout:
        return cached[1]
    mdf = _analyze(fn, layout)
    _MEMDF_CACHE[id(fn)] = (weakref.ref(fn), mdf)
    return mdf


def _analyze(fn: Function, layout: MemoryLayout) -> MemDF:
    pointsto = analyze_pointsto(fn, layout)
    mdf = MemDF(fn=fn, layout=layout, pointsto=pointsto)
    sizes = _block_sizes(fn, layout)
    clobbered: Optional[set] = set()
    dead: set = set()
    entry_label = next(iter(fn.blocks)) if fn.blocks else None

    for label, block in fn.blocks.items():
        avail: Dict[Tuple, _Avail] = {}
        for inst in block.non_phi_instructions():
            if isinstance(inst, Call):
                mdf.has_calls = True
                clobbered = None  # calls may write anything
                for entry in avail.values():
                    entry.observed = True
                avail.clear()
                continue
            if isinstance(inst, Store):
                pts = mdf.pointer_fact(inst.pointer)
                nbytes = byte_size(inst.value.type)
                oob, inbounds = _classify(pts, nbytes, sizes)
                mdf.access[id(inst)] = AccessFact(pts, nbytes, oob, inbounds)
                if oob:
                    if label == entry_label:
                        mdf.entry_oob = True
                if clobbered is not None:
                    if pts.bids is None:
                        clobbered = None
                    else:
                        clobbered |= pts.bids
                key = _loc_key(inst.pointer, pts)
                # A covering same-location store makes the previous one
                # dead if nothing observed it in between.
                prev = avail.get(key) if key is not None else None
                if (
                    prev is not None
                    and not prev.observed
                    and nbytes >= prev.nbytes
                ):
                    dead.add(id(prev.store))
                # Any may-aliasing store invalidates forwardable entries.
                for k in list(avail):
                    if k == key:
                        continue
                    entry = avail[k]
                    if pts.may_overlap(entry.pts, nbytes, entry.nbytes):
                        del avail[k]
                if key is not None:
                    avail[key] = _Avail(inst, pts, nbytes)
                continue
            if isinstance(inst, Load):
                pts = mdf.pointer_fact(inst.pointer)
                nbytes = byte_size(inst.type)
                oob, inbounds = _classify(pts, nbytes, sizes)
                mdf.access[id(inst)] = AccessFact(pts, nbytes, oob, inbounds)
                if oob:
                    if label == entry_label:
                        mdf.entry_oob = True
                key = _loc_key(inst.pointer, pts)
                entry = avail.get(key) if key is not None else None
                if (
                    entry is not None
                    and inst.type == entry.store.value.type
                ):
                    mdf.forwards[id(inst)] = ForwardFact(
                        entry.store, entry.store.value
                    )
                # Loads observe every store they may read from.
                for other in avail.values():
                    if pts.may_overlap(other.pts, nbytes, other.nbytes):
                        other.observed = True
                continue
        # Values still available at the block exit are observable later.
        for entry in avail.values():
            entry.observed = True

    mdf.dead_stores = frozenset(dead)
    mdf.clobbered = None if clobbered is None else frozenset(clobbered)
    return mdf


_MEMDF_CACHE: Dict[int, Tuple["weakref.ref", MemDF]] = {}


@terms.on_reset
def _clear_memdf_cache() -> None:
    _MEMDF_CACHE.clear()
