"""Interprocedural flow rules: REP111, REP211, REP411.

These are the rules the single-module pass structurally cannot
express: a wall-clock read laundered through a helper into a result
serializer (REP111), a closure smuggled into a process pool through an
import and a module-level alias (REP211), and a store resource that
leaks when the statement after its acquisition raises (REP411).
REP111/REP211 run project-scope on the shared call graph; REP411 is a
per-function escape analysis and stays module-scope.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, dotted_name, register
from repro.lint.rules_concurrency import _submitted_callables

__all__ = [
    "ExceptionPathResourceRule",
    "InterproceduralTaintRule",
    "TransitivePicklabilityRule",
]

#: Human names for the dataflow taint kinds.
_KIND_LABELS = {
    "entropy": "unseeded entropy",
    "wallclock": "the wall clock",
}

#: Marker used by the dataflow engine for symbolic parameter taint.
_PARAM_KIND = "param:"


@register
class InterproceduralTaintRule(Rule):
    """REP111: no entropy/wall-clock reaches a result path via helpers."""

    id = "REP111"
    title = "interprocedural-taint"
    severity = "error"
    category = "determinism"
    scope = "project"
    invariant = (
        "No unseeded randomness or wall-clock value flows through "
        "any chain of project function calls into a serializer or "
        "json.dump sink in a deterministic package; helpers cannot "
        "launder what REP101/REP102 forbid directly."
    )

    def check_project(self, ctx):
        dataflow = ctx.dataflow
        for record in ctx.callgraph.functions():
            module = record.module
            if not ctx.config.is_deterministic(module.name):
                continue
            if ctx.config.is_serializer_name(record.name.lstrip("_")):
                yield from self._check_serializer(
                    module, record, dataflow)
            yield from self._check_json_sinks(module, record, dataflow)

    def _check_serializer(self, module, record, dataflow):
        summary = dataflow.summary(record.qid)
        if summary is None:
            return
        for kind in sorted(summary.returns):
            origin = summary.returns[kind]
            if not origin.via:
                continue  # direct source calls are REP101/REP102 turf
            node = origin.node if origin.node is not None else record.node
            yield self.finding(
                module, node,
                "serializer %s() returns a value tainted by %s "
                "(%s%s); derive it from the run seed or take it as "
                "an argument" % (
                    record.name, _KIND_LABELS.get(kind, kind),
                    origin.description, origin.route(),
                ),
            )

    def _check_json_sinks(self, module, record, dataflow):
        env = None
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func) or ""
            if chain.split(".")[-1] not in ("dump", "dumps") \
                    or not chain.startswith("json."):
                continue
            if env is None:
                env = dataflow.function_env(record)
            for arg in node.args:
                taints = dataflow.expr_taint(record, arg, env)
                for kind in sorted(taints):
                    origin = taints[kind]
                    if kind.startswith(_PARAM_KIND) or not origin.via:
                        continue
                    where = origin.node if origin.node is not None \
                        else node
                    yield self.finding(
                        module, where,
                        "%s in %s() feeds json.%s a value tainted by "
                        "%s (%s%s)" % (
                            "argument", record.name,
                            chain.split(".")[-1],
                            _KIND_LABELS.get(kind, kind),
                            origin.description, origin.route(),
                        ),
                    )


@register
class TransitivePicklabilityRule(Rule):
    """REP211: the transitive closure of pool submissions pickles."""

    id = "REP211"
    title = "transitive-picklability"
    severity = "error"
    category = "concurrency"
    scope = "project"
    invariant = (
        "Everything reachable from a SupervisedPool submission "
        "pickles: the submitted callable resolves to a module-level "
        "function even across imports and aliases, its payload "
        "arguments are statically picklable, and no worker "
        "transitively submits to another pool."
    )

    def check_project(self, ctx):
        callgraph = ctx.callgraph
        submitters = self._submitting_functions(ctx)
        for module in ctx.project.modules():
            try:
                nodes = module.nodes
            except SyntaxError:
                continue
            for call, target in _submitted_callables(nodes, ctx.config):
                resolved = callgraph.resolve_callable(module, target)
                if resolved is not None and resolved.crossed \
                        and resolved.kind in ("lambda", "nested"):
                    shape = "a lambda" if resolved.kind == "lambda" \
                        else "a nested function"
                    hops = ""
                    if resolved.via:
                        hops = " (resolved through %s)" % " -> ".join(
                            "%s.%s" % qid for qid in resolved.via)
                    yield self.finding(
                        module, call,
                        "pool submission resolves to %s defined in %s"
                        "%s; closures do not pickle no matter how "
                        "many modules they hide behind" % (
                            shape,
                            resolved.module.name if resolved.module
                            else "another module",
                            hops,
                        ),
                    )
                yield from self._check_payload(module, call)
                if resolved is not None and resolved.kind == "function" \
                        and resolved.record is not None:
                    worker = resolved.record.qid
                    nested = sorted(
                        callgraph.reachable(worker) & submitters)
                    if nested:
                        yield self.finding(
                            module, call,
                            "worker %s.%s transitively submits to a "
                            "process pool (via %s.%s); nested pools "
                            "deadlock under SupervisedPool's "
                            "worker-count budget" % (
                                *worker, *nested[0],
                            ),
                        )

    @staticmethod
    def _submitting_functions(ctx):
        """qids of functions whose body performs a pool submission."""
        submitters = set()
        for record in ctx.callgraph.functions():
            for _call, _target in _submitted_callables(
                    ast.walk(record.node), ctx.config):
                submitters.add(record.qid)
                break
        return submitters

    def _check_payload(self, module, call):
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "submit"):
            return  # constructor kwargs are pool config, not payload
        payload = list(call.args[1:]) + [
            kw.value for kw in call.keywords if kw.arg not in ("fn",)
        ]
        for arg in payload:
            reason = _unpicklable_reason(arg)
            if reason is not None:
                yield self.finding(
                    module, arg,
                    "pool payload argument is %s; it cannot cross the "
                    "process boundary -- pass plain data and rebuild "
                    "it worker-side" % reason,
                )


#: Constructors whose instances never pickle (OS handles, locks).
_UNPICKLABLE_CONSTRUCTORS = {
    "Lock": "a threading lock",
    "RLock": "a threading lock",
    "Condition": "a threading condition",
    "Event": "a threading event",
    "Semaphore": "a threading semaphore",
    "BoundedSemaphore": "a threading semaphore",
}


def _unpicklable_reason(expr):
    """Why ``expr`` can never pickle, or None if it might."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(expr, ast.Call):
        chain = dotted_name(expr.func) or ""
        leaf = chain.rsplit(".", 1)[-1]
        if leaf == "open":
            return "an open file handle"
        if leaf in _UNPICKLABLE_CONSTRUCTORS:
            return _UNPICKLABLE_CONSTRUCTORS[leaf]
    return None


#: Leaf callee names that acquire a resource needing explicit close.
_ACQUIRE_LEAVES = {"open"}

#: Method names recognised as releasing the resource.
_CLOSE_METHODS = {"close", "release", "shutdown", "disconnect"}


@register
class ExceptionPathResourceRule(Rule):
    """REP411: store resources are released on exception paths."""

    id = "REP411"
    title = "exception-path-resource"
    severity = "error"
    category = "crash-consistency"
    scope = "module"
    invariant = (
        "Every file handle a store function opens and keeps local is "
        "released on *every* path: a with block, or a close in a "
        "finally -- an exception between open and close must not leak "
        "the handle a retrying caller will re-open."
    )

    def check(self, module, ctx):
        if not ctx.config.is_store(module.name):
            return
        for func in module.nodes:
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(module, func)

    def _check_function(self, module, func):
        protected = _finally_protected_nodes(func)
        acquisitions = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1 \
                    or not isinstance(node.targets[0], ast.Name):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            what = _acquisition_kind(node.value)
            if what is not None:
                acquisitions.append(
                    (node, node.targets[0].id, what))
        for assign, name, what in acquisitions:
            if self._escapes(func, assign, name):
                continue
            closes = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLOSE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ]
            if not closes:
                yield self.finding(
                    module, assign,
                    "%s %r acquired in %s() is never closed; an "
                    "exception after this line leaks it" % (
                        what, name, func.name,
                    ),
                )
            elif not any(id(close) in protected for close in closes):
                yield self.finding(
                    module, assign,
                    "%s %r acquired in %s() is closed only on the "
                    "success path; move the close into a finally "
                    "block (or use a with statement)" % (
                        what, name, func.name,
                    ),
                )

    @staticmethod
    def _escapes(func, assign, name):
        """True if ``name`` leaves the function's custody.

        Returned, yielded, stored on an object, aliased, put in a
        container, or passed as a call argument: in every case the
        close obligation moved elsewhere and this rule stays quiet.
        Using the resource as a method/attribute *receiver*
        (``handle.read(...)``) is not an escape -- that is just
        using it.
        """
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None \
                    and _escaping_use(node.value, name):
                return True
            if isinstance(node, ast.Assign) and node is not assign:
                if _escaping_use(node.value, name):
                    return True  # aliased or stored into a structure
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and _escaping_use(target.value, name):
                        return True
            if isinstance(node, ast.Call):
                for arg in (*node.args,
                            *(kw.value for kw in node.keywords)):
                    if _escaping_use(arg, name):
                        return True
        return False


def _escaping_use(expr, name):
    """True if ``name`` occurs in ``expr`` outside receiver position.

    ``handle`` in ``handle.read(size)`` or ``handle.name`` is a use,
    not a transfer of custody; ``handle`` bare -- in a return, a
    container, a call argument -- hands the close obligation to someone
    else.
    """
    receivers = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == name:
            receivers.add(id(node.value))
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == name \
                and id(node) not in receivers:
            return True
    return False


def _acquisition_kind(call):
    """What kind of closeable ``call`` creates, or None.

    Calls through ``self``/``cls`` are accessors, not acquisitions:
    the instance owns the resource lifecycle (it escaped to an
    attribute inside the method), and the class-level ``close()``
    carries the obligation.
    """
    chain = dotted_name(call.func)
    if chain is None:
        return None
    if chain.split(".", 1)[0] in ("self", "cls"):
        return None
    leaf = chain.rsplit(".", 1)[-1]
    if leaf.lstrip("_") in _ACQUIRE_LEAVES:
        return "handle from %s()" % leaf
    return None


def _finally_protected_nodes(func):
    """ids of nodes inside any ``finally`` or ``except`` block."""
    protected = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for child in ast.walk(stmt):
                    protected.add(id(child))
            for handler in node.handlers:
                for stmt in handler.body:
                    for child in ast.walk(stmt):
                        protected.add(id(child))
    return protected
