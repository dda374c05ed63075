"""Per-verification counters: one scoped collector instead of module globals.

Every layer of the pipeline reports what it did by name, e.g.
``bump("prescreen.discharged")``, and the innermost open :func:`collect`
scope adds it up.  :func:`repro.refinement.check.verify_refinement` opens
a scope per attempt and :func:`repro.harness.isolation.run_verification_job`
one per job (lint gate plus every degraded retry), so the counts arrive as
``RefinementResult.counters`` and travel with the result the way
``phase_times`` does: into ``TestRecord.counters``, through the journal,
the pools and the service, and into ``Tally.counters``.

A closing scope adds its counts into the enclosing one, so a job's total
includes each attempt's.  A bump outside every scope does nothing: a
library call or a single-layer unit test stays silent, and no count can
carry from one test to the next in a long-lived worker.  Scopes are
per-thread.

Names are ``layer.what``; the summary formatter in :mod:`repro.tv.report`
knows which ones it prints.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping

Counters = Dict[str, int]

_local = threading.local()


def _scopes() -> List[Counters]:
    scopes = getattr(_local, "scopes", None)
    if scopes is None:
        scopes = _local.scopes = []
    return scopes


def bump(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` in the innermost open scope, if any."""
    scopes = _scopes()
    if scopes and n:
        scope = scopes[-1]
        scope[name] = scope.get(name, 0) + n


@contextmanager
def collect() -> Iterator[Counters]:
    """Open a scope; yields the dict its bumps land in."""
    scopes = _scopes()
    counters: Counters = {}
    scopes.append(counters)
    try:
        yield counters
    finally:
        scopes.pop()
        if scopes:
            add(scopes[-1], counters)


def add(into: Counters, more: Mapping[str, int]) -> None:
    """``into += more``, counter by counter."""
    for name, n in more.items():
        into[name] = into.get(name, 0) + n
