"""Concurrency rules: REP201, REP202.

``SupervisedPool`` promises results bit-identical to a sequential run
because every job is a *pure, picklable* function of its payload and
all accounting happens parent-side.  These rules keep that promise
honest at the submission site and inside the worker bodies.
"""

from __future__ import annotations

import ast

from repro.lint.engine import (
    Rule,
    dotted_name,
    module_level_functions,
    nested_function_names,
    register,
)

__all__ = ["NonPicklableWorkerRule", "WorkerSideAccountingRule"]

#: Methods whose first argument is shipped to a worker process.
_SUBMIT_METHODS = {"submit"}

#: Telemetry mutators that must only run in the parent process.
_TELEMETRY_MUTATORS = {"count", "meter", "gauge", "observe"}


def _submitted_callables(nodes, config):
    """Yield ``(call_node, callable_expr)`` for every pool submission
    among ``nodes`` (a module's :attr:`~repro.lint.engine.ModuleInfo.nodes`
    or one function's ``ast.walk``)."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        target = None
        if isinstance(func, ast.Name) and func.id in config.pool_constructors:
            target = _first_callable_arg(node, keyword="function")
        elif isinstance(func, ast.Attribute) \
                and func.attr in config.pool_constructors:
            target = _first_callable_arg(node, keyword="function")
        elif isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            target = _first_callable_arg(node, keyword="fn")
        if target is not None:
            yield node, target


def _first_callable_arg(call, keyword):
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _local_assignments(nodes):
    """name -> list of RHS expressions for simple local assignments."""
    assignments = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assignments.setdefault(target.id, []).append(node.value)
    return assignments


def _enclosing_methods(nodes):
    """node id -> method names of the nearest enclosing class.

    Used to tell a genuine bound method (``self.run`` where ``run`` is
    ``def``-ed on the class) from an instance *attribute holding* a
    module-level function (``self.function = some_top_level_fn``), which
    pickles by value and is a supported submission pattern.
    """
    owner = {}
    for cls in nodes:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = frozenset(
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        # Inner classes are walked after outer ones, so later writes
        # leave the *nearest* enclosing class in place.
        for node in ast.walk(cls):
            owner[id(node)] = methods
    return owner


@register
class NonPicklableWorkerRule(Rule):
    """REP201: pool callables must be module-level (picklable)."""

    id = "REP201"
    title = "non-picklable-worker"
    severity = "error"
    category = "concurrency"
    invariant = (
        "Every callable submitted to SupervisedPool or a process pool "
        "is a module-level function, so the payload pickles and a "
        "respawned pool can re-run any shard."
    )

    def check(self, module, ctx):
        nodes = module.nodes
        submissions = list(_submitted_callables(nodes, ctx.config))
        if not submissions:
            return  # the helper maps below serve submissions only
        nested = nested_function_names(nodes)
        top_level = module_level_functions(module.tree)
        assignments = _local_assignments(nodes)
        methods = _enclosing_methods(nodes)
        for call, target in submissions:
            yield from self._judge(
                module, call, target, nested, top_level, assignments,
                methods.get(id(call), frozenset()),
                depth=0,
            )

    def _judge(self, module, call, target, nested, top_level, assignments,
               class_methods, depth):
        if isinstance(target, ast.Lambda):
            yield self.finding(
                module, call,
                "lambda submitted to a process pool: lambdas do not "
                "pickle; move the body to a module-level function",
            )
            return
        if isinstance(target, ast.Attribute):
            chain = dotted_name(target) or target.attr
            # ``self.attr`` where ``attr`` is a *method* of the enclosing
            # class is a bound method and drags the instance through
            # pickle.  ``self.attr`` holding a module-level function
            # (assigned in __init__) pickles by value and is fine.
            if chain.startswith("self.") and target.attr in class_methods:
                yield self.finding(
                    module, call,
                    "bound method %r submitted to a process pool; bound "
                    "methods drag their instance through pickle -- use a "
                    "module-level function" % chain,
                )
            return
        if isinstance(target, ast.Name):
            name = target.id
            if name in top_level:
                return  # module-level def: picklable by construction
            if name in nested:
                yield self.finding(
                    module, call,
                    "%r is defined in a nested scope; closures do not "
                    "pickle -- hoist it to module level" % name,
                )
                return
            # A local alias: judge every value it could hold (bounded
            # depth -- this is a lint, not an interpreter).
            if depth < 2:
                for value in assignments.get(name, []):
                    yield from self._judge(
                        module, call, value, nested, top_level,
                        assignments, class_methods, depth + 1,
                    )


@register
class WorkerSideAccountingRule(Rule):
    """REP202: no telemetry/health mutation inside worker functions."""

    id = "REP202"
    title = "worker-side-accounting"
    severity = "error"
    category = "concurrency"
    invariant = (
        "Worker-executed functions return plain counters; telemetry "
        "and RunHealth are accounted parent-side from returned "
        "results, so totals are bit-identical across --workers "
        "settings."
    )

    def check(self, module, ctx):
        submissions = list(_submitted_callables(module.nodes, ctx.config))
        if not submissions:
            return  # no worker to inspect
        top_level = module_level_functions(module.tree)
        assignments = _local_assignments(module.nodes)
        workers = set()
        for _, target in submissions:
            workers |= self._resolve_names(target, assignments, depth=0)
        for name in sorted(workers):
            func = top_level.get(name)
            if func is None:
                continue  # defined elsewhere; its module gets checked there
            yield from self._check_worker(module, func)

    def _resolve_names(self, target, assignments, depth):
        if isinstance(target, ast.Name):
            names = {target.id}
            if depth < 2:
                for value in assignments.get(target.id, []):
                    names |= self._resolve_names(value, assignments, depth + 1)
            return names
        return set()

    def _check_worker(self, module, func):
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is None:
                    # current().count(...) style: receiver is a call.
                    if isinstance(node.func, ast.Attribute) \
                            and node.func.attr in _TELEMETRY_MUTATORS \
                            and isinstance(node.func.value, ast.Call):
                        inner = dotted_name(node.func.value.func) or ""
                        if "telemetry" in inner or inner.endswith("current"):
                            yield self._mutation(module, node, node.func.attr)
                    continue
                parts = chain.split(".")
                if len(parts) >= 2 and parts[-1] in _TELEMETRY_MUTATORS \
                        and "telemetry" in parts[-2].lower():
                    yield self._mutation(module, node, parts[-1])
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and "health" in target.value.id.lower():
                    yield self.finding(
                        module, node,
                        "worker function %r mutates %s.%s; RunHealth is "
                        "accounted parent-side so supervision records "
                        "survive worker crashes" % (
                            func.name, target.value.id, target.attr,
                        ),
                    )

    def _mutation(self, module, node, mutator):
        return self.finding(
            module, node,
            "telemetry.%s() inside a worker-executed function; workers "
            "inherit the disabled registry, so this either no-ops or "
            "diverges across --workers -- account it parent-side from "
            "the returned counters" % mutator,
        )
