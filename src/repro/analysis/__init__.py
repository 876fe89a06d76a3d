"""reprolint: project-specific AST invariant checks.

The paper's correctness arguments lean on properties the type system
cannot see: every coin flip must flow through the :mod:`repro.randkit`
ledger (else Table 1/2 cost accounting and the Theorem-2 uniformity
induction silently break), synopsis mutation must respect the
threshold/eviction protocol, and snapshots must round-trip their whole
field set.  This package machine-checks those invariants in two
passes: per-file rules RL001 through RL012 over each module's AST,
then project rules RL013 through RL015 over a whole-tree
:class:`~repro.analysis.project.ProjectModel` (import graph with
``__init__`` re-export resolution, class hierarchies, and a
conservative self-attribute mutation index), so cross-module
invariants -- cache invalidation completeness, the metric-name
registry, hierarchy-wide snapshot parity -- are enforced too.

Run it as ``python -m repro.analysis src/``; see
``docs/static_analysis.md`` for the rule catalogue and the paper
invariant each rule protects.  Individual findings are waived with a
``# reprolint: disable=RLxxx`` comment on the offending line; there is
deliberately no file- or rule-wide escape hatch.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, sarif_report
from repro.analysis.module import SourceModule
from repro.analysis.project import (
    ModuleSummary,
    ProjectModel,
    summarize_module,
)
from repro.analysis.rules import ALL_PROJECT_RULES, ALL_RULES, rule_catalogue
from repro.analysis.runner import analyze_paths, analyze_source, default_root

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Finding",
    "ModuleSummary",
    "ProjectModel",
    "SourceModule",
    "analyze_paths",
    "analyze_source",
    "default_root",
    "rule_catalogue",
    "sarif_report",
    "summarize_module",
]
