"""Tests for reprolint's project pass: the model and rules RL013-RL015.

Fixture trees are written under ``tmp_path/repro/...`` so they scope
exactly like the real package (``module_parts`` anchors at the last
``repro`` path component).  The acceptance battery at the bottom
mutates a *copy* of the live tree and asserts the rules catch every
deleted invalidation line -- the property the whole pass exists for.
"""

from __future__ import annotations

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.__main__ import main
from repro.analysis.module import SourceModule
from repro.analysis.project import ProjectModel, summarize_module
from repro.analysis.runner import default_root

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "reprolint_fixtures"


def write_tree(tmp_path: Path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def lint_tree(tmp_path: Path, files: dict[str, str]) -> list:
    write_tree(tmp_path, files)
    return list(analyze_paths([tmp_path]))


def build_model(tmp_path: Path, files: dict[str, str]) -> ProjectModel:
    write_tree(tmp_path, files)
    summaries = [
        summarize_module(SourceModule.load(path, tmp_path))
        for path in sorted(tmp_path.rglob("*.py"))
    ]
    return ProjectModel(summaries, root=tmp_path)


def codes(findings: list) -> set[str]:
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# The project model: resolution, hierarchy, dataflow extraction
# ----------------------------------------------------------------------


class TestProjectModel:
    def test_reexport_resolution_through_init(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/__init__.py": (
                    "from repro.core.base import Thing\n"
                ),
                "repro/core/base.py": "class Thing:\n    pass\n",
            },
        )
        assert model.resolve_symbol("repro.core", "Thing") == (
            "class",
            "repro.core.base.Thing",
        )

    def test_aliased_from_import_resolution(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/__init__.py": (
                    "from repro.core.base import Thing\n"
                ),
                "repro/core/base.py": "class Thing:\n    pass\n",
                "repro/core/user.py": (
                    "from repro.core import Thing as T\n"
                    "class Sub(T):\n    pass\n"
                ),
            },
        )
        ancestors, resolved = model.ancestors("repro.core.user.Sub")
        assert ancestors == ["repro.core.base.Thing"]
        assert resolved

    def test_module_alias_dotted_base(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/base.py": "class Core:\n    pass\n",
                "repro/core/user.py": (
                    "import repro.core.base as cb\n"
                    "class Sub(cb.Core):\n    pass\n"
                ),
            },
        )
        ancestors, resolved = model.ancestors("repro.core.user.Sub")
        assert ancestors == ["repro.core.base.Core"]
        assert resolved

    def test_import_cycle_resolution_terminates(
        self, tmp_path: Path
    ) -> None:
        # Neither module defines Ghost; the chain loops a <-> b and
        # must come back None rather than recursing forever.
        model = build_model(
            tmp_path,
            {
                "repro/pkg/a.py": "from repro.pkg.b import Ghost\n",
                "repro/pkg/b.py": "from repro.pkg.a import Ghost\n",
            },
        )
        assert model.resolve_symbol("repro.pkg.a", "Ghost") is None

    def test_relative_import_resolution(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/__init__.py": "from .base import Thing\n",
                "repro/core/base.py": "class Thing:\n    pass\n",
            },
        )
        assert model.resolve_symbol("repro.core", "Thing") == (
            "class",
            "repro.core.base.Thing",
        )

    def test_unresolvable_base_flagged(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/user.py": (
                    "from mystery import Unknown\n"
                    "class Sub(Unknown):\n    pass\n"
                ),
            },
        )
        ancestors, resolved = model.ancestors("repro.core.user.Sub")
        assert ancestors == []
        assert not resolved

    def test_attrless_external_base_stays_resolved(
        self, tmp_path: Path
    ) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/user.py": (
                    "from abc import ABC\n"
                    "class Sub(ABC):\n    pass\n"
                ),
            },
        )
        ancestors, resolved = model.ancestors("repro.core.user.Sub")
        assert ancestors == []
        assert resolved

    def test_attribute_surface_includes_inherited_init(
        self, tmp_path: Path
    ) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/base.py": (
                    "class Base:\n"
                    "    def __init__(self):\n"
                    "        self.ledger = {}\n"
                ),
                "repro/core/user.py": (
                    "from repro.core.base import Base\n"
                    "class Sub(Base):\n"
                    "    LIMIT = 3\n"
                    "    def tally(self):\n"
                    "        self.local = 1\n"
                ),
            },
        )
        surface = model.attribute_surface("repro.core.user.Sub")
        assert {"ledger", "local", "LIMIT", "tally", "__init__"} <= surface

    def test_resolved_methods_nearest_wins(self, tmp_path: Path) -> None:
        model = build_model(
            tmp_path,
            {
                "repro/core/base.py": (
                    "class Base:\n"
                    "    def hook(self):\n"
                    "        self.base_attr = 1\n"
                ),
                "repro/core/user.py": (
                    "from repro.core.base import Base\n"
                    "class Sub(Base):\n"
                    "    def hook(self):\n"
                    "        self.sub_attr = 1\n"
                ),
            },
        )
        table, _ = model.resolved_methods("repro.core.user.Sub")
        assert table["hook"].owner == "repro.core.user.Sub"
        assert "sub_attr" in table["hook"].summary.writes

    def test_alias_write_tracked(self, tmp_path: Path) -> None:
        source = textwrap.dedent(
            """\
            class S:
                def mutate(self):
                    counts = self._counts
                    counts[1] = 2
            """
        )
        summary = summarize_module(
            SourceModule(tmp_path / "repro" / "m.py", source, tmp_path)
        )
        method = summary.classes[0].methods["mutate"]
        assert "_counts" in method.writes

    def test_alias_rebinding_unbinds(self, tmp_path: Path) -> None:
        source = textwrap.dedent(
            """\
            class S:
                def mutate(self):
                    counts = self._counts
                    counts = {}
                    counts[1] = 2
            """
        )
        summary = summarize_module(
            SourceModule(tmp_path / "repro" / "m.py", source, tmp_path)
        )
        method = summary.classes[0].methods["mutate"]
        assert "_counts" not in method.writes

    def test_mutator_method_call_tracked(self, tmp_path: Path) -> None:
        source = textwrap.dedent(
            """\
            class S:
                def merge(self, other):
                    self._rows.update(other)
                    self._queue.append(other)
            """
        )
        summary = summarize_module(
            SourceModule(tmp_path / "repro" / "m.py", source, tmp_path)
        )
        method = summary.classes[0].methods["merge"]
        assert {"_rows", "_queue"} <= set(method.writes)

    def test_subscript_store_tracked(self, tmp_path: Path) -> None:
        source = textwrap.dedent(
            """\
            class S:
                def poke(self):
                    self._grid[0][1] = 5
                    del self._cells[3]
            """
        )
        summary = summarize_module(
            SourceModule(tmp_path / "repro" / "m.py", source, tmp_path)
        )
        method = summary.classes[0].methods["poke"]
        assert {"_grid", "_cells"} <= set(method.writes)


# ----------------------------------------------------------------------
# RL013: invalidation completeness
# ----------------------------------------------------------------------

_COLUMNAR_BASE = """\
class Sample:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._counts: dict[int, int] = {}
        self._columnar: tuple[int, ...] | None = None

    def columnar_view(self) -> tuple[int, ...]:
        if self._columnar is None:
            self._columnar = tuple(sorted(self._counts))
        return self._columnar
"""


class TestInvalidationRule:
    def test_missing_columnar_reset_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": _COLUMNAR_BASE
                + textwrap.indent(
                    textwrap.dedent(
                        """\

                        def insert(self, value: int) -> None:
                            self._counts[value] = 1
                        """
                    ),
                    "    ",
                )
            },
        )
        assert "RL013" in codes(findings)

    def test_reset_via_alias_write_is_clean(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": _COLUMNAR_BASE
                + textwrap.indent(
                    textwrap.dedent(
                        """\

                        def insert(self, value: int) -> None:
                            counts = self._counts
                            counts[value] = 1
                            self._columnar = None
                        """
                    ),
                    "    ",
                )
            },
        )
        assert "RL013" not in codes(findings)

    def test_inherited_mutator_missing_reset_fires(
        self, tmp_path: Path
    ) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/base.py": _COLUMNAR_BASE,
                "repro/core/sub.py": (
                    "from repro.core.base import Sample\n\n\n"
                    "class Sub(Sample):\n"
                    "    def bulk(self, values: list[int]) -> None:\n"
                    "        self._counts.update(dict.fromkeys(values, 1))\n"
                ),
            },
        )
        rl013 = [f for f in findings if f.rule == "RL013"]
        assert rl013 and rl013[0].path.endswith("sub.py")

    def test_materialising_view_inside_mutator_is_no_excuse(
        self, tmp_path: Path
    ) -> None:
        # Calling columnar_view() writes the memo as a side effect;
        # the traversal must not credit that as an invalidation.
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": _COLUMNAR_BASE
                + textwrap.indent(
                    textwrap.dedent(
                        """\

                        def evict(self) -> None:
                            view = self.columnar_view()
                            self._counts = dict.fromkeys(view, 1)
                        """
                    ),
                    "    ",
                )
            },
        )
        assert "RL013" in codes(findings)

    def test_suppression_on_mutator_line(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": _COLUMNAR_BASE
                + "\n"
                + "    def insert(self, value: int) -> None:"
                + "  # reprolint: disable=RL013\n"
                + "        self._counts[value] = 1\n"
            },
        )
        assert "RL013" not in codes(findings)

    def test_missing_epoch_bump_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/engine/r.py": textwrap.dedent(
                    """\
                    class Rel:
                        def __init__(self, name: str) -> None:
                            self.name = name
                            self._rows: dict[int, int] = {}
                            self._epoch = 0

                        def insert(self, row: int) -> None:
                            self._rows[row] = 1
                            self._epoch += 1

                        def sneaky(self, row: int) -> None:
                            self._rows[row] = 1
                    """
                )
            },
        )
        rl013 = [f for f in findings if f.rule == "RL013"]
        assert len(rl013) == 1
        assert "sneaky" in rl013[0].message

    def test_reader_methods_do_not_fire(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/engine/r.py": textwrap.dedent(
                    """\
                    class Rel:
                        def __init__(self, name: str) -> None:
                            self.name = name
                            self._rows: dict[int, int] = {}
                            self._epoch = 0

                        def insert(self, row: int) -> None:
                            self._rows[row] = 1
                            self._epoch += 1

                        def size(self) -> int:
                            return len(self._rows)

                        def note(self, text: str) -> None:
                            self._label = text
                    """
                )
            },
        )
        assert "RL013" not in codes(findings)

    def test_bump_through_self_call_counts(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/engine/r.py": textwrap.dedent(
                    """\
                    class Eng:
                        def __init__(self) -> None:
                            self._epochs: dict[str, int] = {}
                            self._tables: dict[str, int] = {}

                        def bump_epoch(self, name: str) -> None:
                            self._epochs[name] = self._epochs.get(name, 0) + 1

                        def register(self, name: str) -> None:
                            self._tables[name] = 1
                            self.bump_epoch(name)
                    """
                )
            },
        )
        assert "RL013" not in codes(findings)


# ----------------------------------------------------------------------
# RL014: the metric-name registry
# ----------------------------------------------------------------------


class TestMetricNameRule:
    def test_fstring_name_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry, outcome):
                        registry.counter(f"repro_{outcome}_total", "x").inc()
                    """
                )
            },
        )
        assert "RL014" in codes(findings)

    def test_misnamed_literal_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.gauge("QueueDepth", "x").set(1.0)
                    """
                )
            },
        )
        assert "RL014" in codes(findings)

    def test_kind_conflict_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.counter("repro_depth_total", "x").inc()
                    """
                ),
                "repro/obs/y.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.gauge("repro_depth_total", "x").set(1.0)
                    """
                ),
            },
        )
        rl014 = [f for f in findings if f.rule == "RL014"]
        assert len(rl014) == 1
        assert "already used as" in rl014[0].message

    def test_undocumented_metric_fires_with_docs(
        self, tmp_path: Path
    ) -> None:
        write_tree(
            tmp_path,
            {
                "docs/observability.md": "| `repro_known_total` |\n",
                "scan/repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.counter("repro_known_total", "x").inc()
                        registry.counter("repro_unknown_total", "x").inc()
                    """
                ),
            },
        )
        findings = list(analyze_paths([tmp_path / "scan"]))
        rl014 = [f for f in findings if f.rule == "RL014"]
        assert len(rl014) == 1
        assert "repro_unknown_total" in rl014[0].message

    def test_substring_doc_match_is_not_enough(
        self, tmp_path: Path
    ) -> None:
        # repro_cost appears inside repro_cost_flips_total; the word-
        # boundary match must not count that as documentation.
        write_tree(
            tmp_path,
            {
                "docs/observability.md": "| `repro_cost_flips_total` |\n",
                "scan/repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.counter("repro_cost", "x").inc()
                    """
                ),
            },
        )
        findings = list(analyze_paths([tmp_path / "scan"]))
        assert any(
            f.rule == "RL014" and "repro_cost" in f.message
            for f in findings
        )

    def test_doc_check_skipped_without_docs(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/obs/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.counter("repro_any_total", "x").inc()
                    """
                )
            },
        )
        assert "RL014" not in codes(findings)

    def test_non_repro_scoped_files_exempt(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "tools/x.py": textwrap.dedent(
                    """\
                    def export(registry):
                        registry.counter(f"dyn_{1}", "x").inc()
                    """
                )
            },
        )
        assert "RL014" not in codes(findings)

    def test_suppression(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/obs/x.py": (
                    "def export(registry, outcome):\n"
                    "    registry.counter(\n"
                    "        f\"repro_{outcome}_total\","
                    "  # reprolint: disable=RL014\n"
                    '        "x",\n'
                    "    ).inc()\n"
                )
            },
        )
        assert "RL014" not in codes(findings)


# ----------------------------------------------------------------------
# RL015: cross-class snapshot parity
# ----------------------------------------------------------------------


class TestSnapshotParityRule:
    def test_duplicate_snapshot_kind_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/a.py": (
                    "class A:\n    SNAPSHOT_KIND = 'dup'\n"
                ),
                "repro/core/b.py": (
                    "class B:\n    SNAPSHOT_KIND = 'dup'\n"
                ),
            },
        )
        rl015 = [f for f in findings if f.rule == "RL015"]
        assert len(rl015) == 1
        assert rl015[0].path.endswith("b.py")

    def test_split_pair_phantom_field_fires(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/base.py": textwrap.dedent(
                    """\
                    class Base:
                        def __init__(self, size: int) -> None:
                            self.size = size

                        def to_dict(self) -> dict[str, object]:
                            return {"size": self.size}
                    """
                ),
                "repro/core/sub.py": textwrap.dedent(
                    """\
                    from repro.core.base import Base


                    class Sub(Base):
                        @classmethod
                        def from_dict(cls, payload: dict) -> "Sub":
                            out = cls(int(payload["size"]))
                            out.extra = payload["extra"]
                            return out
                    """
                ),
            },
        )
        rl015 = [f for f in findings if f.rule == "RL015"]
        assert any("extra" in f.message for f in rl015)

    def test_split_pair_parity_clean(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/base.py": textwrap.dedent(
                    """\
                    class Base:
                        def __init__(self, size: int) -> None:
                            self.size = size

                        def to_dict(self) -> dict[str, object]:
                            return {"size": self.size}
                    """
                ),
                "repro/core/sub.py": textwrap.dedent(
                    """\
                    from repro.core.base import Base


                    class Sub(Base):
                        @classmethod
                        def from_dict(cls, payload: dict) -> "Sub":
                            return cls(int(payload["size"]))
                    """
                ),
            },
        )
        assert "RL015" not in codes(findings)

    def test_to_dict_reading_unassigned_attr_fires(
        self, tmp_path: Path
    ) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": textwrap.dedent(
                    """\
                    class S:
                        def __init__(self, size: int) -> None:
                            self.size = size

                        def to_dict(self) -> dict[str, object]:
                            return {
                                "size": self.size,
                                "ghost": self._ghost,
                            }
                    """
                )
            },
        )
        rl015 = [f for f in findings if f.rule == "RL015"]
        assert any("_ghost" in f.message for f in rl015)

    def test_inherited_init_assignment_counts(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/base.py": textwrap.dedent(
                    """\
                    class Base:
                        def __init__(self) -> None:
                            self.counters = {}
                    """
                ),
                "repro/core/sub.py": textwrap.dedent(
                    """\
                    from repro.core.base import Base


                    class Sub(Base):
                        def to_dict(self) -> dict[str, object]:
                            return {"counters": self.counters}
                    """
                ),
            },
        )
        assert "RL015" not in codes(findings)

    def test_no_init_hierarchy_stands_down(self, tmp_path: Path) -> None:
        # Mirrors the RL007 fixtures: an ad-hoc class with no __init__
        # anywhere must not trip the existence check.
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": textwrap.dedent(
                    """\
                    class S:
                        def to_dict(self) -> dict[str, object]:
                            return {"threshold": self.threshold}
                    """
                )
            },
        )
        assert "RL015" not in codes(findings)

    def test_unresolved_base_stands_down(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/s.py": textwrap.dedent(
                    """\
                    from mystery import Mixin


                    class S(Mixin):
                        def __init__(self) -> None:
                            self.size = 1

                        def to_dict(self) -> dict[str, object]:
                            return {"exotic": self.from_the_mixin}
                    """
                )
            },
        )
        assert "RL015" not in codes(findings)

    def test_suppression(self, tmp_path: Path) -> None:
        findings = lint_tree(
            tmp_path,
            {
                "repro/core/a.py": (
                    "class A:\n    SNAPSHOT_KIND = 'dup'\n"
                ),
                "repro/core/b.py": (
                    "class B:  # reprolint: disable=RL015\n"
                    "    SNAPSHOT_KIND = 'dup'\n"
                ),
            },
        )
        assert "RL015" not in codes(findings)


# ----------------------------------------------------------------------
# The committed self-check trees (mirrors the CI selfcheck step)
# ----------------------------------------------------------------------


class TestSelfcheckFixtures:
    def test_expected_fire_fires_every_project_rule(self) -> None:
        findings = list(analyze_paths([FIXTURES / "expected_fire" / "tree"]))
        by_rule: dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        assert by_rule == {"RL013": 2, "RL014": 4, "RL015": 3}

    def test_expected_clean_is_clean(self) -> None:
        findings = list(
            analyze_paths([FIXTURES / "expected_clean" / "tree"])
        )
        assert findings == []


# ----------------------------------------------------------------------
# Acceptance: mutations of a live-tree copy are caught
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_copy(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """A mutable copy of src/ + docs/ (copied once per module)."""
    base = tmp_path_factory.mktemp("live_copy")
    shutil.copytree(REPO_ROOT / "src", base / "src")
    shutil.copytree(REPO_ROOT / "docs", base / "docs")
    return base


def _mutate_lines(
    path: Path, pattern: str, replacement: str = "        pass"
) -> list[int]:
    """Line numbers matching ``pattern`` (for one-at-a-time mutation)."""
    return [
        index
        for index, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if re.search(pattern, line)
    ]


def _with_line_replaced(original: str, line_number: int) -> str:
    lines = original.splitlines()
    indent = len(lines[line_number - 1]) - len(
        lines[line_number - 1].lstrip()
    )
    lines[line_number - 1] = " " * indent + "pass"
    return "\n".join(lines) + "\n"


class TestMutationAcceptance:
    def test_unmutated_copy_is_clean(self, live_copy: Path) -> None:
        assert list(analyze_paths([live_copy / "src"])) == []

    def test_every_columnar_reset_is_load_bearing(
        self, live_copy: Path
    ) -> None:
        core = live_copy / "src" / "repro" / "core"
        reset = r"^\s*self\._columnar = None$"
        # Both sample kinds mutate their arrays only through the
        # shared slot primitives, so every reset lives in pairs.py.
        for kind in ("concise.py", "counting.py"):
            assert _mutate_lines(core / kind, reset) == [], kind
        target = core / "pairs.py"
        original = target.read_text(encoding="utf-8")
        lines = _mutate_lines(target, reset)
        assert len(lines) == 6, "pairs.py invalidation lines moved"
        try:
            for line_number in lines:
                target.write_text(
                    _with_line_replaced(original, line_number),
                    encoding="utf-8",
                )
                findings = list(analyze_paths([live_copy / "src"]))
                assert "RL013" in codes(findings), (
                    f"deleting pairs.py:{line_number} went unnoticed"
                )
        finally:
            target.write_text(original, encoding="utf-8")

    def test_every_epoch_bump_is_load_bearing(
        self, live_copy: Path
    ) -> None:
        target = live_copy / "src" / "repro" / "engine" / "relation.py"
        original = target.read_text(encoding="utf-8")
        lines = _mutate_lines(target, r"^\s*self\._epoch \+= 1$")
        assert len(lines) == 3, "relation.py epoch bumps moved"
        try:
            for line_number in lines:
                target.write_text(
                    _with_line_replaced(original, line_number),
                    encoding="utf-8",
                )
                findings = list(analyze_paths([live_copy / "src"]))
                assert "RL013" in codes(findings), (
                    f"deleting relation.py:{line_number} went unnoticed"
                )
        finally:
            target.write_text(original, encoding="utf-8")

    def test_renamed_metric_literal_is_caught(
        self, live_copy: Path
    ) -> None:
        target = (
            live_copy / "src" / "repro" / "persist" / "checkpoint.py"
        )
        original = target.read_text(encoding="utf-8")
        assert '"repro_checkpoint_writes_total"' in original
        try:
            target.write_text(
                original.replace(
                    '"repro_checkpoint_writes_total"',
                    '"repro_checkpoint_scribbles_total"',
                    1,
                ),
                encoding="utf-8",
            )
            findings = list(analyze_paths([live_copy / "src"]))
            assert any(
                f.rule == "RL014" and "scribbles" in f.message
                for f in findings
            )
        finally:
            target.write_text(original, encoding="utf-8")




# ----------------------------------------------------------------------
# Root scoping: results must not depend on the invocation cwd
# ----------------------------------------------------------------------


class TestRootScoping:
    def test_default_root_is_common_parent(self, tmp_path: Path) -> None:
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "a" / "c").mkdir(parents=True)
        root = default_root([tmp_path / "a" / "b", tmp_path / "a" / "c"])
        assert root == tmp_path / "a"

    def test_scan_from_inside_tree_keeps_exemptions(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # tests/ files are RL010-exempt because "tests" is a path
        # component; scanning "." from inside tests/ must preserve
        # that (the old cwd-derived root lost it).
        write_tree(
            tmp_path,
            {
                "tests/test_thing.py": (
                    "def test_write(tmp_path):\n"
                    "    (tmp_path / 'x').write_text('hi')\n"
                )
            },
        )
        monkeypatch.chdir(tmp_path / "tests")
        findings = list(analyze_paths([Path(".")]))
        assert findings == []

    def test_absolute_scan_is_cwd_independent(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        write_tree(
            tmp_path,
            {"scan/repro/core/x.py": "import time\n"},
        )
        here = list(analyze_paths([tmp_path / "scan"]))
        monkeypatch.chdir(tmp_path)
        there = list(analyze_paths([(tmp_path / "scan")]))
        assert here == there
        assert any(f.rule == "RL005" for f in here)

    def test_explicit_root_flag(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        write_tree(tmp_path, {"scan/tools/x.py": "V = 1\n"})
        assert (
            main(
                [
                    "--root",
                    str(tmp_path),
                    "--json",
                    str(tmp_path / "scan"),
                ]
            )
            == 0
        )
        json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


class TestSarifOutput:
    def test_sarif_document_shape(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        bad = tmp_path / "repro" / "core" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n", encoding="utf-8")
        assert main(["--sarif", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "2.1.0"
        run = report["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RL005", "RL013", "RL014", "RL015"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RL005"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert region["startColumn"] >= 1

    def test_sarif_clean_tree(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        (tmp_path / "ok.py").write_text("V = 1\n", encoding="utf-8")
        assert main(["--sarif", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"][0]["results"] == []

    def test_sarif_and_json_are_exclusive(self, tmp_path: Path) -> None:
        with pytest.raises(SystemExit):
            main(["--sarif", "--json", str(tmp_path)])
