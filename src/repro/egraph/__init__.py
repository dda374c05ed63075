"""E-graph equality-saturation simplifier (solver-ladder rung 3).

See :mod:`repro.egraph.core` for the data structure,
:mod:`repro.egraph.rules` for the certified rewrite-rule corpus, and
:mod:`repro.egraph.simplify` for the verifier-facing front-end.
"""

from repro.egraph.core import EGraph, ENode, EGraphInconsistent, saturate
from repro.egraph.rules import RULES, Rule, rule_by_name
from repro.egraph.simplify import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MAX_NODES,
    EgraphSimplifier,
)

__all__ = [
    "EGraph",
    "ENode",
    "EGraphInconsistent",
    "saturate",
    "RULES",
    "Rule",
    "rule_by_name",
    "EgraphSimplifier",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_MAX_NODES",
]
