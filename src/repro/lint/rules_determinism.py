"""Determinism rules: REP101, REP102, REP103.

The paper's measurements are statements about *miss rates over
enumerated splices*; their credibility rests on every sweep being
bit-reproducible from ``(profile, bytes, seed)``.  These rules keep
unseeded entropy and unordered iteration out of the result path.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, dotted_name, register

__all__ = [
    "UnseededRandomnessRule",
    "UnsortedSerializationRule",
    "WallClockResultRule",
]

#: ``random.<fn>`` module-level functions that draw from the shared,
#: unseeded global generator.
_RANDOM_FUNCTIONS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "getrandbits", "randbytes", "betavariate",
    "gauss", "normalvariate", "expovariate", "lognormvariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
}

#: ``numpy.random`` attributes that are *fine* (seedable machinery).
_NUMPY_SEEDABLE = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
}

#: Call chains that are wall-clock or machine entropy regardless of args.
_ENTROPY_CHAINS = {
    "os.urandom": "os.urandom() is machine entropy",
    "uuid.uuid4": "uuid.uuid4() is machine entropy",
    "secrets.token_bytes": "secrets draws machine entropy",
    "secrets.token_hex": "secrets draws machine entropy",
    "secrets.randbits": "secrets draws machine entropy",
    "secrets.randbelow": "secrets draws machine entropy",
    "secrets.choice": "secrets draws machine entropy",
}

_WALLCLOCK_CHAINS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.today": "datetime.today()",
    "date.today": "date.today()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


@register
class UnseededRandomnessRule(Rule):
    """REP101: all randomness in result paths must be seeded."""

    id = "REP101"
    title = "unseeded-randomness"
    severity = "error"
    category = "determinism"
    invariant = (
        "Every random draw reachable from an engine/analysis result "
        "path flows from an explicit seed, so a sweep replays "
        "bit-identically from (profile, bytes, seed)."
    )

    def check(self, module, ctx):
        if not ctx.config.is_deterministic(module.name):
            return
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            yield from self._check_call(module, node, chain)

    def _check_call(self, module, node, chain):
        parts = chain.split(".")
        tail2 = ".".join(parts[-2:])
        if tail2 in _ENTROPY_CHAINS:
            yield self.finding(module, node, "%s; derive values from the "
                               "run seed instead" % _ENTROPY_CHAINS[tail2])
            return
        # random.<fn>() on the module (not an instance): the global
        # generator is process-lifetime state, never seeded per run.
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _RANDOM_FUNCTIONS:
            yield self.finding(
                module, node,
                "random.%s() uses the unseeded global generator; use "
                "random.Random(seed) or numpy default_rng(seed)" % parts[1],
            )
            return
        # Constructors that are seeded only when given arguments.
        if tail2 in ("random.Random",) or parts[-1] == "default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "%s() without a seed draws OS entropy; pass the run "
                    "seed explicitly" % chain,
                )
            return
        # numpy.random legacy module-level functions (np.random.rand,
        # np.random.shuffle, ...): global hidden state.
        if len(parts) >= 3 and parts[-2] == "random" \
                and parts[-3] in ("np", "numpy") \
                and parts[-1] not in _NUMPY_SEEDABLE:
            yield self.finding(
                module, node,
                "%s() uses numpy's global RNG state; use "
                "numpy.random.default_rng(seed)" % chain,
            )


@register
class WallClockResultRule(Rule):
    """REP102: no wall-clock reads in deterministic packages."""

    id = "REP102"
    title = "wall-clock-in-result-path"
    severity = "warning"
    category = "determinism"
    invariant = (
        "Result-path code measures durations with perf counters only; "
        "wall-clock timestamps (time.time, datetime.now) never enter "
        "serialized results, so cached and fresh runs stay "
        "bit-identical."
    )

    def check(self, module, ctx):
        if not ctx.config.is_deterministic(module.name):
            return
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            for depth in (3, 2):
                tail = ".".join(parts[-depth:])
                if tail in _WALLCLOCK_CHAINS:
                    yield self.finding(
                        module, node,
                        "%s reads the wall clock; use time.perf_counter() "
                        "for durations or accept a timestamp from the "
                        "caller" % _WALLCLOCK_CHAINS[tail],
                    )
                    break


@register
class UnsortedSerializationRule(Rule):
    """REP103: serialized output must not depend on hash/insertion order."""

    id = "REP103"
    title = "unsorted-serialized-iteration"
    severity = "warning"
    category = "determinism"
    invariant = (
        "Functions that produce serialized report output (to_dict, "
        "snapshot, render_*, write_*) iterate mappings and sets in "
        "sorted order, so emitted JSON/markdown is byte-stable."
    )

    _DICT_VIEWS = ("items", "keys", "values")

    def check(self, module, ctx):
        if not ctx.config.is_deterministic(module.name):
            return
        for func in module.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not ctx.config.is_serializer_name(func.name):
                continue
            yield from self._check_function(module, func)

    def _check_function(self, module, func):
        for node in ast.walk(func):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                problem = self._unordered(expr)
                if problem:
                    yield self.finding(
                        module, expr,
                        "%s feeds serialized output of %s() in hash/"
                        "insertion order; wrap it in sorted(...)"
                        % (problem, func.name),
                    )

    def _unordered(self, expr):
        """A description of the unordered iterable, or None if fine."""
        if isinstance(expr, ast.Call):
            chain = dotted_name(expr.func) or ""
            leaf = chain.rsplit(".", 1)[-1]
            if leaf in self._DICT_VIEWS:
                return "dict.%s()" % leaf
            return None  # sorted(...), list(...), custom helpers: fine
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        return None
