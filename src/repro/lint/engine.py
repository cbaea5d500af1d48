"""Project scanner, rule registry, and the lint runner.

The engine walks one or more source roots, derives a dotted module
name for every ``.py`` file (``src/repro/core/engine.py`` under root
``src`` becomes ``repro.core.engine``), parses each file once, and
hands the tree to every registered rule.  Rules are small classes with
a ``check(module, ctx)`` generator; cross-module rules (the protocol
conformance check) reach sibling modules through
:meth:`Project.get`.

An inline ``# reprolint: disable=`` pragma is the one way to suppress
a finding: a suppressed finding is counted and dropped, and any other
finding fails the run.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.pragmas import PragmaIndex

__all__ = [
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "RuleContext",
    "all_rules",
    "register",
    "run_lint",
]


class ModuleInfo:
    """One scanned source file: path, dotted name, source, lazy AST."""

    def __init__(self, name, path, root):
        self.name = name
        self.path = Path(path)
        self.root = Path(root)
        self._source = None
        self._tree = None
        self._nodes = None
        self._pragmas = None

    @property
    def relpath(self):
        try:
            return self.path.relative_to(self.root).as_posix()
        except ValueError:  # pragma: no cover - absolute fallback
            return self.path.as_posix()

    @property
    def source(self):
        if self._source is None:
            self._source = self.path.read_text(encoding="utf-8")
        return self._source

    @property
    def lines(self):
        return self.source.splitlines()

    def line_at(self, lineno):
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    @property
    def tree(self):
        """The parsed AST (raises ``SyntaxError`` on broken source)."""
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    @property
    def nodes(self):
        """Every node of :attr:`tree` in ``ast.walk`` order, listed once.

        The rules and the call graph that scan a whole module iterate
        this list instead of each walking the tree again.
        """
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    @property
    def pragmas(self):
        if self._pragmas is None:
            self._pragmas = PragmaIndex.from_source(self.source)
        return self._pragmas


class Project:
    """Module-name -> :class:`ModuleInfo` map over the scan roots."""

    def __init__(self, roots):
        self.roots = [Path(root) for root in roots]
        self._modules = {}
        for root in self.roots:
            self._discover(root)

    def _discover(self, root):
        if root.is_file():
            # A single file scans as its bare stem (no package context).
            self._add(root.stem, root, root.parent)
            return
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root)
            parts = list(rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            if not parts:
                continue
            self._add(".".join(parts), path, root)

    def _add(self, name, path, root):
        self._modules.setdefault(name, ModuleInfo(name, path, root))

    def get(self, name):
        """The :class:`ModuleInfo` for ``name``, or None."""
        return self._modules.get(name)

    def modules(self):
        """Every scanned module, sorted by dotted name."""
        return [self._modules[name] for name in sorted(self._modules)]

    def __len__(self):
        return len(self._modules)


class RuleContext:
    """What a rule sees besides the module under inspection."""

    def __init__(self, project, config, contract=None):
        self.project = project
        self.config = config
        #: The declared layer contract (:class:`LayerContract`) or None.
        self.contract = contract
        #: Rule ids selected for this run (REP601 staleness scope).
        self.selected_ids = frozenset()
        #: relpath -> {(rule_id, line)} of pragma suppressions that
        #: actually fired this run (REP601 staleness evidence).
        self.suppression_usage = {}
        self._callgraph = None
        self._dataflow = None

    @property
    def callgraph(self):
        """The project call graph, built once per run on first use."""
        if self._callgraph is None:
            from repro.lint.callgraph import CallGraph

            self._callgraph = CallGraph(self.project)
        return self._callgraph

    @property
    def dataflow(self):
        """Taint summaries over :attr:`callgraph`, built on first use."""
        if self._dataflow is None:
            from repro.lint.dataflow import DataflowAnalysis

            self._dataflow = DataflowAnalysis(
                self.callgraph,
                sanitizer_markers=self.config.sanitizer_markers,
            )
        return self._dataflow


class Rule:
    """Base class: subclasses define the class attributes and ``check``.

    ``check(module, ctx)`` yields :class:`Finding` records; use
    :meth:`finding` so paths/snippets/severities stay uniform.
    """

    id = "REP000"
    title = "untitled rule"
    severity = "error"
    category = "general"
    #: One sentence: the invariant this rule guards (docs render this).
    invariant = ""
    #: ``"module"`` rules see one file at a time; ``"project"`` rules
    #: run once over the whole scan (call graphs, cross-module
    #: resolution, contracts).
    scope = "module"

    def check(self, module, ctx):  # pragma: no cover - interface
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def check_project(self, ctx):
        """Project-scope entry point; defaults to per-module ``check``.

        Rules that genuinely need the whole project (flow rules, the
        layer contract) override this; converted cross-module rules
        (REP501) keep their ``check`` and inherit this driver.
        """
        for module in ctx.project.modules():
            try:
                module.tree
            except SyntaxError:  # REP000 already reported by the runner
                continue
            yield from self.check(module, ctx)

    def finding(self, module, node, message, severity=None):
        line = getattr(node, "lineno", 0) or 0
        col = getattr(node, "col_offset", 0) or 0
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            snippet=module.line_at(line),
        )


_REGISTRY = {}


def register(rule_class):
    """Class decorator adding a rule to the global registry."""
    rule = rule_class()
    if rule.id in _REGISTRY and type(_REGISTRY[rule.id]) is not rule_class:
        raise ValueError("duplicate rule id %s" % rule.id)
    _REGISTRY[rule.id] = rule
    return rule_class


def _load_builtin_rules():
    # Import for the registration side effect; keep this list in sync
    # with the rule modules shipped in this package.
    from repro.lint import (  # noqa: F401  (side-effect imports)
        rules_concurrency,
        rules_determinism,
        rules_flow,
        rules_hygiene,
        rules_integrity,
        rules_layering,
        rules_performance,
    )


def all_rules():
    """Every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


class LintResult:
    """Everything one lint run produced."""

    def __init__(self, findings, files_scanned, suppressed, rules):
        #: Every finding no pragma suppressed, sorted by location.
        self.findings = sorted(findings, key=lambda f: f.sort_key())
        self.files_scanned = files_scanned
        #: Count of findings silenced by inline pragmas.
        self.suppressed = suppressed
        self.rules = rules

    @property
    def exit_code(self):
        return 1 if self.findings else 0

    def counts_by_rule(self):
        counts = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def run_lint(paths, config=None, rules=None, contract=None):
    """Lint ``paths`` and return a :class:`LintResult`.

    ``paths`` are source roots (directories) or single files;
    ``rules`` restricts to an iterable of rule ids; ``contract`` is a
    :class:`repro.lint.config.LayerContract` (REP311 is inert without
    one).
    """
    config = config or LintConfig()
    project = Project(paths)
    ctx = RuleContext(project, config, contract=contract)
    selected = all_rules()
    valid_ids = [rule.id for rule in selected]
    if rules is not None:
        wanted = {rule_id.upper() for rule_id in rules}
        unknown = wanted - set(valid_ids)
        if unknown:
            raise KeyError(
                "unknown rule id(s): %s (valid: %s)"
                % (", ".join(sorted(unknown)), ", ".join(valid_ids))
            )
        selected = [rule for rule in selected if rule.id in wanted]
    ctx.selected_ids = frozenset(rule.id for rule in selected)

    findings = []
    suppressed = 0
    for module, finding in _raw_findings(selected, ctx):
        if module is not None and module.pragmas.suppressed(
                finding.rule, finding.line):
            suppressed += 1
            ctx.suppression_usage.setdefault(module.relpath, set()).add(
                (finding.rule, finding.line))
        else:
            findings.append(finding)
    return LintResult(findings, len(project), suppressed, selected)


def _raw_findings(rules, ctx):
    """``(module, finding)`` for every finding before pragmas apply.

    Module-scope rules run file by file, then project-scope rules run
    once each.  The caller records each suppression as it consumes the
    stream, so REP601 -- last in registry order -- sees every
    suppression that fired.  A file that does not parse yields one
    REP000 finding with ``module`` None: no pragma suppresses it.
    """
    module_rules = [rule for rule in rules if rule.scope == "module"]
    for module in ctx.project.modules():
        try:
            module.tree
        except SyntaxError as exc:
            yield None, Finding(
                rule="REP000",
                severity="error",
                path=module.relpath,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
                message="syntax error: %s" % exc.msg,
                snippet=module.line_at(exc.lineno or 0),
            )
            continue
        for rule in module_rules:
            for finding in rule.check(module, ctx):
                yield module, finding
    by_relpath = {
        module.relpath: module for module in ctx.project.modules()
    }
    for rule in rules:
        if rule.scope == "project":
            for finding in rule.check_project(ctx):
                yield by_relpath.get(finding.path), finding


# ----------------------------------------------------------------------
# shared AST helpers (used by the rule modules)

def dotted_name(node):
    """``a.b.c`` for an Attribute/Name chain, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_imports(module, module_scope_only=False):
    """Yield ``(node, target, alias_name, is_from)`` for every import
    in ``module`` (a :class:`ModuleInfo`).

    ``target`` is the imported module (``a.b`` for both
    ``import a.b`` and ``from a.b import c``); ``alias_name`` is the
    bound name (``c``), or None for plain ``import``.  With
    ``module_scope_only`` nested (function/method-level, i.e. lazy)
    imports are skipped.
    """
    if module_scope_only:
        nodes = _module_scope_statements(module.tree)
    else:
        nodes = module.nodes
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, None, False
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: outside our layer map
                continue
            for alias in node.names:
                yield node, node.module or "", alias.name, True


def _module_scope_statements(tree):
    """Statements executed at import time (module body, incl. try/if)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field_name in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field_name, []):
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    else:
                        stack.append(child)


def call_name(node):
    """The dotted callee of a Call node, or None."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def module_level_functions(tree):
    """Name -> FunctionDef for module-scope ``def``\\ s."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def nested_function_names(nodes):
    """Names of functions defined *inside other functions* (closures),
    given every node of a module (:attr:`ModuleInfo.nodes`)."""
    nested = set()
    for outer in nodes:
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested
