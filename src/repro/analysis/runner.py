"""Collect files, run both rule passes, filter suppressions.

The analysis is two-pass.  Pass one parses each file, runs the
per-file rules and extracts a :class:`ModuleSummary`.  Pass two
assembles every summary into a :class:`ProjectModel` and runs the
cross-module rules over it, so project findings are always computed
over the *whole* tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.analysis.module import SourceModule
from repro.analysis.project import (
    ModuleSummary,
    ProjectModel,
    summarize_module,
)
from repro.analysis.rules import ALL_PROJECT_RULES, ALL_RULES
from repro.analysis.rules.base import ProjectRule, Rule

__all__ = [
    "analyze_paths",
    "analyze_source",
    "collect_files",
    "default_root",
]

#: Directory names never descended into.  ``reprolint_fixtures`` holds
#: deliberately-violating trees for the CI self-check; they lint only
#: when passed as an explicit path.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "node_modules", "reprolint_fixtures"}
)


def default_root(paths: Sequence[Path]) -> Path:
    """The deepest common parent of ``paths``.

    Each scanned path anchors at its *parent* directory, so the scanned
    entry itself stays a visible path component -- ``tests/`` scanned
    alone still yields parts starting with ``tests`` and keeps its
    rule exemptions.  This pins
    :func:`repro.analysis.module.module_parts` fallback scoping to the
    scanned tree rather than the invocation cwd, so
    ``python -m repro.analysis /abs/path/src`` reports the same
    findings from any working directory.
    """
    anchors = [path.resolve().parent for path in paths]
    if not anchors:
        return Path.cwd()
    common = anchors[0]
    for anchor in anchors[1:]:
        while not anchor.is_relative_to(common):
            common = common.parent
    return common


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                relative = candidate.relative_to(path)
                if not _SKIP_DIRS.intersection(relative.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def analyze_source(
    module: SourceModule,
    rules: Iterable[Rule] = ALL_RULES,
) -> list[Finding]:
    """Run every applicable per-file rule over one parsed module."""
    findings: set[Finding] = set()
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding.line, finding.rule):
                findings.add(finding)
    return sorted(findings)


def _syntax_error_finding(path: Path, error: SyntaxError) -> Finding:
    return Finding(
        path=str(path),
        line=error.lineno or 1,
        column=(error.offset or 1) - 1,
        rule="RL000",
        message=f"file does not parse: {error.msg}",
    )


def analyze_paths(
    paths: Sequence[Path],
    rules: Iterable[Rule] | None = None,
    *,
    root: Path | None = None,
    project_rules: Iterable[ProjectRule] | None = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths``, both passes.

    Unparseable files produce an ``RL000`` finding rather than
    aborting the run, so one syntax error does not hide the rest of
    the report.  ``root`` defaults to the common parent of ``paths``.
    """
    rule_list = list(rules) if rules is not None else list(ALL_RULES)
    project_rule_list = (
        list(project_rules)
        if project_rules is not None
        else list(ALL_PROJECT_RULES)
    )
    if root is None:
        root = default_root(paths)

    findings: set[Finding] = set()
    summaries: list[ModuleSummary] = []
    for path in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            findings.add(
                Finding(
                    path=str(path),
                    line=1,
                    column=0,
                    rule="RL000",
                    message=f"file cannot be read: {error}",
                )
            )
            continue
        try:
            module = SourceModule(path, source, root)
        except SyntaxError as error:
            findings.add(_syntax_error_finding(path, error))
            continue
        findings.update(analyze_source(module, rule_list))
        summaries.append(summarize_module(module))

    # Pass two: project rules over the full model, suppression-filtered
    # through the summary tables.
    model = ProjectModel(summaries, root=root)
    by_path = {summary.path: summary for summary in summaries}
    for rule in project_rule_list:
        for finding in rule.check_project(model):
            summary_for_path = by_path.get(finding.path)
            if summary_for_path is not None and summary_for_path.is_suppressed(
                finding.line, finding.rule
            ):
                continue
            findings.add(finding)
    return sorted(findings)
