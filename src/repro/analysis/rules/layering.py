"""Layering rule: the docs/ARCHITECTURE.md import-direction contract.

Imports point downward only.  :data:`LAYERS` transcribes the layer
diagram — every top-level segment of the ``repro`` package gets a rank,
and a module may import from its own rank or any lower rank, never from
a higher one.  Same-rank imports are allowed (that is the documented
"sideways into a leaf" carve-out that lets ``explore.pareto`` delegate
to ``search.frontier``).

The project pass additionally detects import cycles among the analyzed
``repro`` modules (Tarjan SCC over the static import graph).  The graph
counts the implicit package edges too: ``from a.b.c import x`` runs the
``__init__`` of ``a`` and ``a.b`` first, so module ``m`` gets the edges
``m -> a.b`` and ``m -> a`` as well, except to packages that enclose
``m`` (those are already initializing).  That is how an eager package
``__init__`` closes a cycle no single file shows.

Only *module-scope* imports count.  Imports inside functions are the
codebase's two documented escape hatches — PEP 562 laziness (the
``repro.lazy`` name tables behind every package ``__init__``, the CLI
command bodies) and runtime-upward resolution
(``process.catalog.get_node`` consulting the node registry) — and
imports under ``if TYPE_CHECKING:`` are annotation-only.

:data:`MODULE_LAYERS` holds per-module overrides for the documented
leaf modules (``search.frontier``, ``explore.sweep``,
``explore.partition``): they rank with the model core, which both
legitimizes the engine's sideways imports of them *and* machine-
enforces their leaf-ness — growing an upward module-scope import inside
one of them becomes a finding.

A new top-level package must be added to :data:`LAYERS` (and to the
diagram in docs/ARCHITECTURE.md) before it can pass the linter — that
is deliberate: placing a package in the layer stack is a design
decision, not a default.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.analysis.context import FileContext, Finding
from repro.analysis.registry import Rule, register

#: Layer rank per top-level segment of ``repro``; higher may import lower.
LAYERS: dict[str, int] = {
    # model core + leaf utilities
    "core": 0, "process": 0, "wafer": 0, "yieldmodel": 0, "packaging": 0,
    "d2d": 0, "reuse": 0, "reporting": 0, "data": 0, "errors": 0,
    "ioutil": 0, "canon": 0, "lazy": 0, "libm": 0,
    # registries & config
    "registry": 1, "config": 1,
    # batching engine
    "engine": 2,
    # campaign layer
    "explore": 3, "experiments": 3, "search": 3, "validate": 3,
    # declarative scenarios
    "scenario": 4,
    # scenario-consuming services and dev tooling
    "corpus": 5, "analysis": 5,
    # interfaces (the CLI imports the service layer sideways; the
    # service layer never imports the CLI)
    "service": 6, "cli": 6, "__main__": 6,
}

#: Documented leaf-module exceptions (docs/ARCHITECTURE.md): pure data
#: structures / dependency-free filters that upper layers may import
#: "sideways" because they rank with the model core.  The override cuts
#: both ways — these modules themselves must not import above rank 0.
MODULE_LAYERS: dict[str, int] = {
    "repro.explore.sweep": 0,
    "repro.explore.partition": 0,
    "repro.search.frontier": 0,
}

#: The package root (``repro/__init__``) re-exports everything: top rank.
_TOP_RANK = max(LAYERS.values())


def layer_of(module: str) -> int | None:
    """Rank of a dotted ``repro.*`` module, ``None`` if unmapped."""
    override = MODULE_LAYERS.get(module)
    if override is not None:
        return override
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return _TOP_RANK
    return LAYERS.get(parts[1])


class _ImportVisitor(ast.NodeVisitor):
    """Collects module-scope ``(target module, node)`` pairs, skipping
    function bodies (lazy imports are the documented escape hatch) and
    TYPE_CHECKING blocks, resolving relative imports against the file's
    module."""

    def __init__(self, module: str | None):
        self.module = module
        self.targets: list[tuple[str, ast.AST]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # lazy imports do not shape the import-time graph

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.targets.append((alias.name, node))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_base(node)
        if base is None:
            return
        for alias in node.names:
            # ``from repro import engine`` (and imports of modules with
            # a per-module layer override) name a submodule in the
            # alias; everything else imports an attribute, whose layer
            # is its defining module's.
            extended = f"{base}.{alias.name}"
            if base == "repro" or extended in MODULE_LAYERS:
                self.targets.append((extended, node))
            else:
                self.targets.append((base, node))

    def _resolve_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        parts = self.module.split(".")
        # level 1 = the containing package; each extra level climbs one.
        parts = parts[: len(parts) - node.level]
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts) if parts else None


def _imports_of(ctx: FileContext) -> list[tuple[str, ast.AST]]:
    visitor = _ImportVisitor(ctx.module)
    visitor.visit(ctx.tree)
    return visitor.targets


@register
class LayeringRule(Rule):
    rule_id = "layering"
    summary = "imports must point downward in the documented layer stack"
    description = (
        "Enforces the docs/ARCHITECTURE.md import-direction rule: a "
        "repro module may import its own layer or lower layers, never "
        "upward; the project pass also rejects import cycles, "
        "counting the package __init__ each import runs first."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module is None:
            return
        source_rank = layer_of(ctx.module)
        if source_rank is None:
            yield ctx.finding(
                self.rule_id,
                ctx.tree,
                f"package segment {ctx.module.split('.')[1]!r} has no "
                "layer assignment; add it to analysis.rules.layering."
                "LAYERS and the docs/ARCHITECTURE.md diagram",
            )
            return
        seen: set[tuple[str, int]] = set()
        for target, node in _imports_of(ctx):
            target_rank = layer_of(target)
            if target_rank is None or target_rank <= source_rank:
                continue
            key = (target, getattr(node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            yield ctx.finding(
                self.rule_id,
                node,
                f"upward import: {ctx.module} (layer {source_rank}) "
                f"imports {target} (layer {target_rank}); imports must "
                "point downward (docs/ARCHITECTURE.md)",
            )

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        by_module = {
            ctx.module: ctx for ctx in contexts if ctx.module is not None
        }
        graph: dict[str, set[str]] = {name: set() for name in by_module}
        for name, ctx in by_module.items():
            for target, _node in _imports_of(ctx):
                for edge in (target, *_enclosing_packages(target, name)):
                    if edge in by_module and edge != name:
                        graph[name].add(edge)
        for cycle in _cycles(graph):
            anchor = min(cycle)
            ctx = by_module[anchor]
            loop = " -> ".join(sorted(cycle)) + f" -> {anchor}"
            yield ctx.finding(
                self.rule_id, ctx.tree, f"import cycle: {loop}"
            )


def _enclosing_packages(target: str, module: str) -> list[str]:
    """The implicit edges of importing ``target`` from ``module``.

    Python runs each enclosing package's ``__init__`` before ``target``
    itself, so ``from a.b.c import x`` also imports ``a.b`` and ``a``.
    Packages that enclose ``module`` are skipped: they are already
    initialized (or initializing) by the time ``module`` runs.
    """
    parts = target.split(".")
    prefixes = (".".join(parts[:i]) for i in range(1, len(parts)))
    return [
        package for package in prefixes
        if module != package and not module.startswith(package + ".")
    ]


def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components with more than one node (Tarjan,
    iterative so deep module chains cannot overflow the stack)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, "list[str]"]] = [(root, sorted(graph[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            while successors:
                nxt = successors.pop(0)
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(graph[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
    return components
