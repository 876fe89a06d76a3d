"""The project model: whole-tree facts for cross-module rules.

Per-file rules see one AST at a time, but the invariants PR 6 bolted
onto the hot path are *class-hierarchy* properties spread over several
modules: every mutator of a memoized ``columnar_view()``'s backing
store must reset the memo, every mutator reachable from the engine's
public API must bump its cache epoch, and snapshot field parity must
hold across inherited ``__init__``/``to_dict``/``from_dict`` splits.

This module builds a :class:`ProjectModel` over every collected file:

* a per-module :class:`ModuleSummary` (imports, classes, metric call
  sites, ``repro_``-prefixed string literals, suppression table);
* per-class :class:`ClassSummary` and per-method
  :class:`MethodSummary` records with a conservative dataflow over
  ``self``-attribute reads/writes -- including writes through local
  aliases (``counts = self._counts; counts[v] = 1``) and through
  mutator-method calls (``self._rows.update(...)``);
* an import-graph symbol resolver that follows ``__init__.py``
  re-exports and aliased imports (with cycle guards) so base classes
  resolve across modules.

Summaries are rebuilt from source on every run: a full pass over the
repository parses each file once and takes a few seconds.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.module import SourceModule
from repro.analysis.snapshot_fields import (
    consumed_keys,
    emitted_keys,
    payload_parameter,
)

__all__ = [
    "ClassSummary",
    "ImportBinding",
    "MethodSummary",
    "MetricCall",
    "ModuleSummary",
    "ProjectModel",
    "ReproLiteral",
    "summarize_module",
]

#: Method names that mutate their receiver in place.  Used to treat
#: ``self._rows.update(...)`` (or the same call through a local alias)
#: as a write to ``_rows``.
MUTATOR_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "put",
        "register",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "unregister",
        "update",
    }
)

#: External base classes known to define no instance attributes.  A
#: hierarchy ending in one of these still counts as fully resolved;
#: any other unresolvable base makes attribute-existence checks bail
#: out conservatively.
ATTRLESS_EXTERNAL_BASES = frozenset(
    {
        "ABC",
        "BaseException",
        "Exception",
        "Generic",
        "KeyError",
        "Protocol",
        "RuntimeError",
        "TypeError",
        "ValueError",
        "object",
    }
)

_REPRO_LITERAL = re.compile(r"repro_[A-Za-z0-9_]+")


# ----------------------------------------------------------------------
# Summary records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an import statement.

    ``from M import n as a`` gives ``(module=M, name=n, bound=a)``;
    ``import M as a`` gives ``(module=M, name=None, bound=a)``.
    ``level`` is the relative-import level (0 for absolute).
    """

    module: str
    name: str | None
    bound: str
    level: int = 0


@dataclass(frozen=True)
class MetricCall:
    """One ``counter()`` / ``gauge()`` / ``histogram()`` call site."""

    kind: str
    name: str | None
    is_fstring: bool
    line: int
    column: int


@dataclass(frozen=True)
class ReproLiteral:
    """One ``repro_``-prefixed string constant."""

    value: str
    line: int
    column: int


@dataclass
class MethodSummary:
    """Conservative dataflow facts for one method body."""

    name: str
    line: int
    column: int
    kind: str = "instance"  # instance | classmethod | staticmethod | property
    reads: set[str] = field(default_factory=set)
    writes: dict[str, int] = field(default_factory=dict)
    calls: set[str] = field(default_factory=set)
    #: Dict-literal keys returned by ``to_dict`` (None: dynamic payload).
    emitted: list[str] | None = None
    #: Payload keys a ``from_dict`` requires / reads optionally.
    required: list[str] | None = None
    optional: list[str] | None = None
    has_payload_parameter: bool = True


@dataclass
class ClassSummary:
    """One class definition plus its resolved-later hierarchy links."""

    name: str
    line: int
    column: int
    bases: list[str] = field(default_factory=list)
    decorators: list[str] = field(default_factory=list)
    class_assigns: set[str] = field(default_factory=set)
    snapshot_kind: str | None = None
    methods: dict[str, MethodSummary] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the project pass needs to know about one file."""

    path: str
    parts: tuple[str, ...]
    imports: list[ImportBinding] = field(default_factory=list)
    classes: list[ClassSummary] = field(default_factory=list)
    metric_calls: list[MetricCall] = field(default_factory=list)
    repro_literals: list[ReproLiteral] = field(default_factory=list)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def module_name(self) -> str:
        """Dotted module name (``__init__`` maps to its package)."""
        parts = self.parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @property
    def package(self) -> str:
        """Dotted package containing this module."""
        name = self.module_name
        if self.parts and self.parts[-1] == "__init__":
            return name
        return name.rpartition(".")[0]

    def in_repro(self) -> bool:
        """Whether the module scopes inside the ``repro`` package."""
        return bool(self.parts) and self.parts[0] == "repro"

    def is_suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, frozenset())


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


class _MethodScanner(ast.NodeVisitor):
    """Collect self-attribute reads/writes/calls from one method body.

    Writes are recorded for direct assignments (``self.x = ...``,
    ``self.x += ...``, ``del self.x``), subscript stores through a
    self attribute (``self.x[k] = v``), mutator-method calls on a
    self attribute (``self.x.update(...)``, ``self.x[k].append(...)``)
    and all three through a local alias previously bound with
    ``alias = self.x``.  Aliases are invalidated on rebinding.
    """

    def __init__(self, self_name: str) -> None:
        self.self_name = self_name
        self.reads: set[str] = set()
        self.writes: dict[str, int] = {}
        self.calls: set[str] = set()
        self._aliases: dict[str, str] = {}

    def _write(self, attr: str, node: ast.AST) -> None:
        self.writes.setdefault(attr, getattr(node, "lineno", 0))

    def _self_attr(self, node: ast.expr) -> str | None:
        """The attribute name if ``node`` is ``self.<attr>``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _receiver_attr(self, node: ast.expr) -> str | None:
        """The self attribute ultimately receiving a mutation.

        Peels subscripts so ``self.x[k]`` and ``alias[k]`` resolve to
        the underlying attribute.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        attr = self._self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        return None

    # -- expressions ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, ast.Load):
                self.reads.add(attr)
            else:  # Store or Del
                self._write(attr, node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            receiver = self._receiver_attr(node)
            if receiver is not None:
                self._write(receiver, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == self.self_name
            ):
                self.calls.add(func.attr)
            elif func.attr in MUTATOR_METHOD_NAMES:
                receiver = self._receiver_attr(func.value)
                if receiver is not None:
                    self._write(receiver, node)
        self.generic_visit(node)

    # -- statements (alias bookkeeping) --------------------------------

    def _unbind_targets(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._aliases.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._unbind_targets(element)
        elif isinstance(target, ast.Starred):
            self._unbind_targets(target.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        value_attr = self._self_attr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if value_attr is not None:
                    self._aliases[target.id] = value_attr
                else:
                    self._aliases.pop(target.id, None)
            else:
                self._unbind_targets(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            value_attr = (
                self._self_attr(node.value) if node.value else None
            )
            if value_attr is not None:
                self._aliases[node.target.id] = value_attr
            else:
                self._aliases.pop(node.target.id, None)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``alias += [...]`` mutates the aliased object in place.
        if isinstance(node.target, ast.Name):
            aliased = self._aliases.get(node.target.id)
            if aliased is not None:
                self._write(aliased, node)
        self.generic_visit(node)


def _method_kind(function: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    for decorator in function.decorator_list:
        name = None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        if name == "staticmethod":
            return "staticmethod"
        if name == "classmethod":
            return "classmethod"
        if name == "property" or name == "cached_property":
            return "property"
    return "instance"


def _summarize_method(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> MethodSummary:
    kind = _method_kind(function)
    summary = MethodSummary(
        name=function.name,
        line=function.lineno,
        column=function.col_offset,
        kind=kind,
    )
    if kind in ("instance", "property"):
        positional = [
            *function.args.posonlyargs,
            *function.args.args,
        ]
        self_name = positional[0].arg if positional else "self"
        scanner = _MethodScanner(self_name)
        for stmt in function.body:
            scanner.visit(stmt)
        summary.reads = scanner.reads
        summary.writes = scanner.writes
        summary.calls = scanner.calls
    if isinstance(function, ast.FunctionDef):
        if function.name == "to_dict":
            keys = emitted_keys(function)
            summary.emitted = sorted(keys) if keys is not None else None
        elif function.name == "from_dict":
            payload = payload_parameter(function)
            if payload is None:
                summary.has_payload_parameter = False
                summary.required, summary.optional = [], []
            else:
                required, optional = consumed_keys(function, payload)
                summary.required = sorted(required)
                summary.optional = sorted(optional)
    return summary


def _base_expression(node: ast.expr) -> str | None:
    """Render a base-class expression to a dotted string.

    ``Generic[T]`` unwraps to ``Generic``; expressions not rooted at a
    name (calls, subscript factories) return ``None`` and mark the
    hierarchy unresolved.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _summarize_class(cls: ast.ClassDef) -> ClassSummary:
    summary = ClassSummary(
        name=cls.name, line=cls.lineno, column=cls.col_offset
    )
    for base in cls.bases:
        rendered = _base_expression(base)
        summary.bases.append(rendered if rendered is not None else "?")
    for decorator in cls.decorator_list:
        rendered = _base_expression(decorator)
        if rendered is not None:
            summary.decorators.append(rendered)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.methods[stmt.name] = _summarize_method(stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary.class_assigns.add(target.id)
                    if target.id == "SNAPSHOT_KIND" and isinstance(
                        stmt.value, ast.Constant
                    ):
                        summary.snapshot_kind = str(stmt.value.value)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            summary.class_assigns.add(stmt.target.id)
            if stmt.target.id == "SNAPSHOT_KIND" and isinstance(
                stmt.value, ast.Constant
            ):
                summary.snapshot_kind = str(stmt.value.value)
    return summary


_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})


def summarize_module(module: SourceModule) -> ModuleSummary:
    """Extract the project-pass summary from one parsed module."""
    summary = ModuleSummary(
        path=str(module.path),
        parts=module.parts,
        suppressions=dict(module.suppressions),
    )
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports.append(
                    ImportBinding(
                        module=alias.name,
                        name=None,
                        bound=(
                            alias.asname
                            if alias.asname
                            else alias.name.split(".", 1)[0]
                        ),
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.imports.append(
                    ImportBinding(
                        module=node.module or "",
                        name=alias.name,
                        bound=alias.asname or alias.name,
                        level=node.level,
                    )
                )
        elif isinstance(node, ast.Call):
            kind: str | None = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_KINDS
            ):
                kind = node.func.attr
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _METRIC_KINDS
            ):
                kind = node.func.id
            if kind is not None and node.args:
                name_arg = node.args[0]
                if isinstance(name_arg, ast.Constant) and isinstance(
                    name_arg.value, str
                ):
                    summary.metric_calls.append(
                        MetricCall(
                            kind=kind,
                            name=name_arg.value,
                            is_fstring=False,
                            line=name_arg.lineno,
                            column=name_arg.col_offset,
                        )
                    )
                elif isinstance(name_arg, ast.JoinedStr):
                    summary.metric_calls.append(
                        MetricCall(
                            kind=kind,
                            name=None,
                            is_fstring=True,
                            line=name_arg.lineno,
                            column=name_arg.col_offset,
                        )
                    )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _REPRO_LITERAL.fullmatch(node.value):
                summary.repro_literals.append(
                    ReproLiteral(
                        value=node.value,
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
        elif isinstance(node, ast.ClassDef):
            summary.classes.append(_summarize_class(node))
    return summary


# ----------------------------------------------------------------------
# The project model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedMethod:
    """A method looked up through the class hierarchy."""

    summary: MethodSummary
    module: ModuleSummary
    owner: str  # qualified class key of the defining class


class ProjectModel:
    """Cross-module facts: symbols, hierarchy, call/mutation indexes."""

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        root: Path | None = None,
    ) -> None:
        self.modules: dict[str, ModuleSummary] = {
            summary.path: summary for summary in summaries
        }
        self.by_name: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.by_name.setdefault(summary.module_name, summary)
        #: Qualified ``module.Class`` -> (class summary, module summary)
        self.classes: dict[str, tuple[ClassSummary, ModuleSummary]] = {}
        for summary in summaries:
            for cls in summary.classes:
                key = f"{summary.module_name}.{cls.name}"
                self.classes.setdefault(key, (cls, summary))
        self.root = root
        self.observability_doc = self._load_observability_doc(root)

    @staticmethod
    def _load_observability_doc(root: Path | None) -> str | None:
        """The metric catalogue RL014 validates names against.

        Looked up relative to the scan root so fixture trees can ship
        their own catalogue; absent docs disable the doc-drift check
        (fixtures without a ``docs/`` directory never fail it).
        """
        if root is None:
            return None
        for base in (root, *root.parents[:2]):
            candidate = base / "docs" / "observability.md"
            try:
                if candidate.is_file():
                    return candidate.read_text(encoding="utf-8")
            except OSError:  # pragma: no cover - unreadable docs
                return None
        return None

    # -- symbol resolution ---------------------------------------------

    def _resolve_relative(
        self, importer: ModuleSummary, module: str, level: int
    ) -> str:
        """Absolute dotted module for a relative import."""
        if level == 0:
            return module
        package_parts = importer.package.split(".") if importer.package else []
        # level=1 means the current package, each extra level one up.
        if level - 1 > 0:
            package_parts = package_parts[: -(level - 1)] or []
        prefix = ".".join(package_parts)
        if module:
            return f"{prefix}.{module}" if prefix else module
        return prefix

    def resolve_symbol(
        self, module_name: str, symbol: str, _seen: frozenset[str] = frozenset()
    ) -> tuple[str, str] | None:
        """Resolve ``symbol`` in ``module_name`` to a class or external.

        Returns ``("class", qualified_key)`` for a class defined in the
        project (following ``from X import Y [as Z]`` chains through
        ``__init__.py`` re-exports, with a cycle guard), ``("external",
        dotted)`` for a name imported from outside the project, or
        ``None`` when the name cannot be traced.
        """
        token = f"{module_name}:{symbol}"
        if token in _seen:
            return None
        _seen = _seen | {token}
        module = self.by_name.get(module_name)
        if module is None:
            return None
        key = f"{module_name}.{symbol}"
        if key in self.classes:
            return ("class", key)
        for binding in module.imports:
            if binding.bound != symbol or binding.name is None:
                continue
            target = self._resolve_relative(
                module, binding.module, binding.level
            )
            if target in self.by_name:
                resolved = self.resolve_symbol(
                    target, binding.name, _seen
                )
                if resolved is not None:
                    return resolved
                # Re-export chains may hop through a package that only
                # re-binds; treat a dead end inside the project as
                # unresolvable rather than external.
                return None
            return ("external", f"{target}.{binding.name}")
        return None

    def _resolve_base(
        self, module: ModuleSummary, base: str
    ) -> tuple[str, str] | None:
        """Resolve one base-class string from a class definition."""
        if base == "?":
            return None
        if "." not in base:
            resolved = self.resolve_symbol(module.module_name, base)
            if resolved is not None:
                return resolved
            if base in ATTRLESS_EXTERNAL_BASES:
                return ("external", base)
            return None
        head, _, rest = base.partition(".")
        for binding in module.imports:
            if binding.bound != head:
                continue
            if binding.name is None:
                target_module = binding.module
            else:
                target_module = (
                    self._resolve_relative(
                        module, binding.module, binding.level
                    )
                    + "."
                    + binding.name
                )
            dotted = f"{target_module}.{rest}"
            module_part, _, symbol = dotted.rpartition(".")
            if module_part in self.by_name:
                return self.resolve_symbol(module_part, symbol)
            return ("external", dotted)
        return None

    # -- hierarchy -----------------------------------------------------

    def ancestors(self, key: str) -> tuple[list[str], bool]:
        """Project-class ancestors of ``key`` (nearest first).

        The second element reports whether the *whole* hierarchy
        resolved: every base is either a project class (recursively
        resolved) or a known attribute-less external.  Rules that
        reason about the full attribute surface must bail out when it
        is ``False``.
        """
        ordered: list[str] = []
        resolved_fully = True
        seen: set[str] = {key}

        def visit(current: str) -> None:
            nonlocal resolved_fully
            entry = self.classes.get(current)
            if entry is None:
                return
            cls, module = entry
            for base in cls.bases:
                resolution = self._resolve_base(module, base)
                if resolution is None:
                    resolved_fully = False
                    continue
                tag, target = resolution
                if tag == "external":
                    if target.rpartition(".")[2] not in (
                        ATTRLESS_EXTERNAL_BASES
                    ):
                        resolved_fully = False
                    continue
                if target in seen:
                    # Inheritance cycles cannot happen in running code,
                    # but fixture trees may contain them; guard anyway.
                    resolved_fully = False
                    continue
                seen.add(target)
                ordered.append(target)
                visit(target)

        visit(key)
        return ordered, resolved_fully

    def resolved_methods(
        self, key: str
    ) -> tuple[dict[str, ResolvedMethod], bool]:
        """Method-resolution table for a class (own methods win)."""
        table: dict[str, ResolvedMethod] = {}
        entry = self.classes.get(key)
        if entry is None:
            return table, False
        ancestors, resolved_fully = self.ancestors(key)
        for current in (key, *ancestors):
            cls, module = self.classes[current]
            for name, method in cls.methods.items():
                table.setdefault(
                    name, ResolvedMethod(method, module, current)
                )
        return table, resolved_fully

    def attribute_surface(self, key: str) -> set[str]:
        """Every attribute name the hierarchy can place on an instance.

        The union of self-attribute writes across all methods
        (including inherited ``__init__``), class-level assignments
        (dataclass fields, ``ClassVar`` constants), and method /
        property names.
        """
        surface: set[str] = set()
        ancestors, _ = self.ancestors(key)
        for current in (key, *ancestors):
            cls, _module = self.classes[current]
            surface.update(cls.class_assigns)
            for name, method in cls.methods.items():
                surface.add(name)
                surface.update(method.writes)
        return surface

    @staticmethod
    def transitive(
        table: Mapping[str, ResolvedMethod],
        start: str,
        attribute: str,
        exclude: frozenset[str] = frozenset(),
    ) -> set[str]:
        """Fixpoint of a method-summary set over the self-call graph.

        ``attribute`` selects ``"reads"`` or ``"writes"``; calls into
        methods named in ``exclude`` are not followed (and the start
        method's own facts are always included).
        """
        gathered: set[str] = set()
        stack = [start]
        visited: set[str] = set()
        while stack:
            name = stack.pop()
            if name in visited:
                continue
            visited.add(name)
            resolved = table.get(name)
            if resolved is None:
                continue
            facts = getattr(resolved.summary, attribute)
            gathered.update(facts)
            for callee in resolved.summary.calls:
                if callee not in visited and callee not in exclude:
                    stack.append(callee)
        return gathered
