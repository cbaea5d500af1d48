"""Import graph and intra-project call graph over a scanned Project.

The per-module rules of PR 4 see one function at a time; the flow
rules (REP111/REP211/REP411) need to know *who calls whom across
modules*.  This module derives that statically from the same
:class:`~repro.lint.engine.Project` the scanner already built:

* an **import table** per module (local name -> project module or
  module member, ``import a.b as c`` / ``from a.b import c`` / relative
  forms all resolved against the scanned tree);
* a **function table** keyed by ``(module, qualname)`` covering
  module-level functions and class methods;
* a **call graph**: for every function, the project functions its body
  calls, resolved through the import table, module-level aliases, and
  ``self.``-method dispatch;
* **SCC condensation** in dependency-first order, so a dataflow pass
  can compute per-function summaries linearly over the graph (cycles
  iterate to a fixpoint inside their component).

Resolution is deliberately conservative: anything dynamic (calls on
call results, duck-typed receivers, ``getattr``) resolves to nothing
rather than to a guess, so flow rules under-report instead of crying
wolf.
"""

from __future__ import annotations

import ast

from repro.lint.engine import dotted_name

__all__ = ["CallGraph", "FunctionRecord", "ResolvedCallable"]

#: Bound on alias-chain hops (``a = b; b = c; ...``) during resolution.
_MAX_ALIAS_DEPTH = 4


class FunctionRecord:
    """One function or method definition in the scanned project."""

    __slots__ = ("module", "node", "qualname", "class_name")

    def __init__(self, module, node, qualname, class_name=None):
        self.module = module          # ModuleInfo
        self.node = node              # FunctionDef / AsyncFunctionDef
        self.qualname = qualname      # "fn" or "Cls.fn"
        self.class_name = class_name  # enclosing class, or None

    @property
    def qid(self):
        """``(module_name, qualname)`` -- the graph key."""
        return (self.module.name, self.qualname)

    @property
    def name(self):
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def params(self):
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if self.class_name is not None and names:
            names = names[1:]  # drop self/cls
        return names

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<FunctionRecord %s:%s>" % (self.module.name, self.qualname)


class ResolvedCallable:
    """What a callable expression resolved to, and how.

    ``kind`` is ``"function"`` (a module-level def or method,
    ``record`` set), ``"lambda"``, ``"nested"`` (a closure --
    ``record`` is the nested def's record-less (module, node) pair), or
    ``None`` was returned instead for unresolvable expressions.
    ``crossed`` is True when resolution left the module the expression
    appeared in or passed through a module-level assignment -- exactly
    the hops the single-module REP201 rule cannot see.
    """

    __slots__ = ("kind", "record", "module", "node", "crossed", "via")

    def __init__(self, kind, record=None, module=None, node=None,
                 crossed=False, via=()):
        self.kind = kind
        self.record = record
        self.module = module
        self.node = node
        self.crossed = crossed
        self.via = tuple(via)


class _ModuleTable:
    """Per-module symbol tables the graph builds once."""

    __slots__ = ("imports", "functions", "classes", "assigns", "nested")

    def __init__(self):
        #: local name -> ("module", dotted) | ("member", module, attr)
        self.imports = {}
        #: qualname -> FunctionRecord (module funcs and class methods)
        self.functions = {}
        #: class name -> {method name -> qualname}
        self.classes = {}
        #: module-level name -> value expression (last assignment wins)
        self.assigns = {}
        #: names of functions defined inside other functions
        self.nested = {}


class CallGraph:
    """Project-wide import and call graph (see module docstring)."""

    def __init__(self, project):
        self.project = project
        self._tables = {}
        self._edges = {}
        self._sccs = None
        for module in project.modules():
            try:
                tree = module.tree
            except SyntaxError:
                continue
            self._tables[module.name] = self._scan_module(module, tree)
        for name in sorted(self._tables):
            self._build_edges(name)

    # -- construction -------------------------------------------------------

    def _scan_module(self, module, tree):
        table = _ModuleTable()
        for node, target, alias, is_from in _iter_imports(module):
            if not is_from:
                # ``import a.b`` binds root ``a``; ``import a.b as c``
                # binds ``c`` to the full path.
                root = target.split(".", 1)[0]
                table.imports.setdefault(root, ("module", root))
                continue
            bound, origin = alias
            if self.project.get("%s.%s" % (target, origin)) is not None:
                table.imports[bound] = (
                    "module", "%s.%s" % (target, origin))
            else:
                table.imports[bound] = ("member", target, origin)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table.functions[node.name] = FunctionRecord(
                    module, node, node.name)
            elif isinstance(node, ast.ClassDef):
                methods = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qualname = "%s.%s" % (node.name, item.name)
                        table.functions[qualname] = FunctionRecord(
                            module, item, qualname, class_name=node.name)
                        methods[item.name] = qualname
                table.classes[node.name] = methods
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table.assigns[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    table.assigns[node.target.id] = node.value
        for outer in module.nodes:
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table.nested.setdefault(inner.name, inner)
        return table

    def _build_edges(self, module_name):
        table = self._tables[module_name]
        module = self.project.get(module_name)
        for record in table.functions.values():
            callees = []
            for node in ast.walk(record.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(
                    module, node, class_name=record.class_name)
                if target is not None and target != record.qid:
                    callees.append(target)
            # Sorted and de-duplicated: edge order must not depend on
            # source position.
            self._edges[record.qid] = tuple(sorted(set(callees)))

    # -- queries ------------------------------------------------------------

    def function(self, qid):
        """The :class:`FunctionRecord` for ``(module, qualname)``."""
        table = self._tables.get(qid[0])
        return table.functions.get(qid[1]) if table else None

    def functions(self):
        """Every known function record, in deterministic order."""
        for name in sorted(self._tables):
            table = self._tables[name]
            for qualname in sorted(table.functions):
                yield table.functions[qualname]

    def callees(self, qid):
        """Project functions ``qid``'s body calls (resolved only)."""
        return self._edges.get(qid, ())

    def reachable(self, qid):
        """Every qid transitively reachable from ``qid`` (exclusive)."""
        seen, stack = set(), [qid]
        while stack:
            for callee in self.callees(stack.pop()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def sccs(self):
        """Strongly-connected components, callees-first.

        Processing components in this order lets a summary-based
        analysis visit each function after everything it calls
        (mutual recursion shares a component and iterates).
        """
        if self._sccs is None:
            self._sccs = _tarjan(
                sorted(self._edges), lambda qid: self._edges.get(qid, ()))
        return self._sccs

    # -- resolution ---------------------------------------------------------

    def resolve_call(self, module, call, class_name=None):
        """The qid a ``Call`` node dispatches to, or None."""
        chain = dotted_name(call.func)
        if chain is None:
            return None
        return self.resolve_chain(module, chain, class_name=class_name)

    def resolve_chain(self, module, chain, class_name=None, _depth=0):
        """Resolve a dotted name used in ``module`` to a function qid."""
        if _depth > _MAX_ALIAS_DEPTH:
            return None
        table = self._tables.get(module.name)
        if table is None:
            return None
        parts = chain.split(".")
        head, rest = parts[0], parts[1:]

        if head == "self" and class_name is not None and len(rest) == 1:
            qualname = table.classes.get(class_name, {}).get(rest[0])
            return (module.name, qualname) if qualname else None

        if not rest:
            if head in table.functions:
                return (module.name, head)
            if head in table.assigns:
                alias = dotted_name(table.assigns[head])
                if alias and alias != head:
                    return self.resolve_chain(
                        module, alias, class_name=class_name,
                        _depth=_depth + 1)

        target = table.imports.get(head)
        if target is None:
            return None
        if target[0] == "member":
            _, home, attr = target
            return self._resolve_in(home, [attr, *rest])
        # ("module", dotted): extend the module path as far as the
        # scanned tree allows, then look the remainder up there.
        return self._resolve_in(target[1], rest)

    def _resolve_in(self, module_name, parts):
        """Resolve ``parts`` against ``module_name`` and its subtree."""
        while parts and self.project.get(
                "%s.%s" % (module_name, parts[0])) is not None:
            module_name = "%s.%s" % (module_name, parts[0])
            parts = parts[1:]
        table = self._tables.get(module_name)
        if table is None or not parts:
            return None
        if len(parts) == 1:
            if parts[0] in table.functions:
                return (module_name, parts[0])
            value = table.assigns.get(parts[0])
            if value is not None:
                chain = dotted_name(value)
                if chain:
                    home = self.project.get(module_name)
                    return self.resolve_chain(home, chain, _depth=1)
            return None
        if len(parts) == 2:
            qualname = table.classes.get(parts[0], {}).get(parts[1])
            return (module_name, qualname) if qualname else None
        return None

    def resolve_callable(self, module, expr, _depth=0, _crossed=False,
                         _via=()):
        """What a callable *expression* (not a call) names, if knowable.

        This is the cross-module extension of REP201's same-module
        name resolution: ``from repro.core.helpers import WORKER``
        where ``WORKER = make_worker()`` and ``make_worker`` returns a
        nested ``def`` resolves -- through the import, the module-level
        assignment, and the factory's return statement -- to a closure
        no pickle can carry.
        """
        if _depth > _MAX_ALIAS_DEPTH:
            return None
        if isinstance(expr, ast.Lambda):
            return ResolvedCallable(
                "lambda", module=module, node=expr, crossed=_crossed,
                via=_via)
        if isinstance(expr, ast.Call):
            # A factory call: whatever the factory returns is what gets
            # submitted.  Resolve the factory, then its return values.
            factory = self.resolve_call(module, expr)
            if factory is None:
                return None
            record = self.function(factory)
            if record is None:
                return None
            for node in ast.walk(record.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    resolved = self.resolve_callable(
                        record.module, node.value, _depth=_depth + 1,
                        _crossed=True, _via=(*_via, factory))
                    if resolved is not None:
                        return resolved
            return None
        chain = dotted_name(expr) if not isinstance(expr, str) else expr
        if chain is None:
            return None
        parts = chain.split(".")
        table = self._tables.get(module.name)
        if table is None:
            return None
        head = parts[0]
        if len(parts) == 1:
            if head in table.functions:
                return ResolvedCallable(
                    "function", record=table.functions[head],
                    crossed=_crossed, via=_via)
            if head in table.nested:
                return ResolvedCallable(
                    "nested", module=module, node=table.nested[head],
                    crossed=_crossed, via=_via)
            if head in table.assigns:
                return self.resolve_callable(
                    module, table.assigns[head], _depth=_depth + 1,
                    _crossed=True, _via=_via)
        target = table.imports.get(head)
        if target is not None:
            if target[0] == "member":
                _, home_name, attr = target
                remainder = ".".join([attr, *parts[1:]])
            else:
                home_name, remainder = target[1], ".".join(parts[1:])
            while "." in remainder or remainder:
                sub = "%s.%s" % (home_name, remainder.split(".", 1)[0])
                if self.project.get(sub) is None:
                    break
                home_name = sub
                remainder = remainder.split(".", 1)[1] \
                    if "." in remainder else ""
            home = self.project.get(home_name)
            if home is None or not remainder or "." in remainder:
                return None
            return self.resolve_callable(
                home, remainder, _depth=_depth + 1, _crossed=True,
                _via=_via)
        # Re-dispatch a bare chain string in this module's namespace.
        if isinstance(expr, str) and len(parts) >= 2:
            qualname = table.classes.get(parts[0], {}).get(parts[1])
            if qualname is not None:
                return ResolvedCallable(
                    "function", record=table.functions[qualname],
                    crossed=_crossed, via=_via)
        return None


def _iter_imports(module):
    """Like engine.iter_imports but with relative imports resolved."""
    # One leading dot resolves against the containing package (the
    # module itself, for an ``__init__``); each extra dot drops one
    # more component.
    is_package = module.path.name == "__init__.py"
    package = module.name.split(".") if is_package \
        else module.name.split(".")[:-1]
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, None, False
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                drop = node.level - 1
                if drop > len(package):
                    continue
                base = package[:len(package) - drop]
                if not base and not target:
                    continue
                target = ".".join(base + ([target] if target else []))
            for alias in node.names:
                yield node, target, (alias.asname or alias.name,
                                     alias.name), True


def _tarjan(nodes, successors):
    """Tarjan SCC, iterative; components come out callees-first."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(tuple(sorted(component)))
    return result
