"""Static analysis over the IR: dataflow facts, linting, prescreening.

The package has three layers (see DESIGN.md):

* :mod:`repro.analysis.framework` — a generic worklist dataflow solver,
  with :mod:`repro.analysis.knownbits`, :mod:`repro.analysis.range`, and
  :mod:`repro.analysis.poison` as the concrete analyses;
* :mod:`repro.analysis.verify` — the IR verifier/linter behind the
  ``alive-lint`` console script and the harness's pre-verification gate;
* :mod:`repro.analysis.termfacts` / :mod:`repro.analysis.prescreen` —
  abstract evaluation of SMT terms and the solver-bypass rules used by
  :mod:`repro.refinement.check`;
* :mod:`repro.analysis.pointsto` / :mod:`repro.analysis.memdf` — the
  memory-aware layer: block-provenance facts for every pointer SSA
  value and the store/load dataflow (forwarding, clobber sets, access
  classification) feeding the memory prescreen rules and the encoder's
  aliasing-case-split pruning.
"""

from repro.analysis.framework import (
    DataflowAnalysis,
    LivenessAnalysis,
    RegisterAnalysis,
    analyze_registers,
    solve,
)
from repro.analysis.knownbits import KnownBits, analyze_known_bits
from repro.analysis.memdf import MemDF, analyze_memdf
from repro.analysis.pointsto import (
    PointsToFact,
    analyze_pointsto,
    assign_alloca_bids,
)
from repro.analysis.poison import analyze_poison, returns_poison_free
from repro.analysis.prescreen import Prescreener
from repro.analysis.range import IntRange, analyze_ranges
from repro.analysis.verify import (
    LintDiagnostic,
    lint_function,
    lint_module,
)

__all__ = [
    "DataflowAnalysis",
    "RegisterAnalysis",
    "LivenessAnalysis",
    "analyze_registers",
    "solve",
    "KnownBits",
    "analyze_known_bits",
    "IntRange",
    "analyze_ranges",
    "analyze_poison",
    "returns_poison_free",
    "PointsToFact",
    "analyze_pointsto",
    "assign_alloca_bids",
    "MemDF",
    "analyze_memdf",
    "Prescreener",
    "LintDiagnostic",
    "lint_function",
    "lint_module",
]
