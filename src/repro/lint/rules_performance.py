"""Performance rules: REP304.

The batch compute tier moved the splice hot path onto table-driven
CRC folds and numpy kernels (``repro.core.batch``,
``ChecksumAlgorithm.compute_many``); an innocent-looking per-cell
Python loop calling a scalar kernel silently undoes that 10-100x win
on a path no benchmark may happen to cover.  This rule pins the hot
modules to the batch tier statically.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, dotted_name, register

__all__ = ["ScalarHotLoopRule"]


@register
class ScalarHotLoopRule(Rule):
    """REP304: no scalar kernel calls inside hot-module loops."""

    id = "REP304"
    title = "scalar-hot-loop"
    severity = "error"
    category = "performance"
    invariant = (
        "Batch-hot modules (repro.core.engine, repro.core.fragsplice) "
        "never call a byte-at-a-time checksum kernel (compute, verify, "
        "word_sums, fletcher8, judge_splice*, ...) from inside a "
        "for/while loop -- per-item work there routes through the "
        "vectorized kernels of repro.core.batch; the deliberate "
        "scalar conformance path is annotated in place."
    )

    def check(self, module, ctx):
        if not ctx.config.is_batch_hot(module.name):
            return
        names = set(ctx.config.scalar_kernel_names)
        seen = set()
        for loop in module.nodes:
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            # The body re-executes per iteration; a For's iterable is
            # evaluated once and is exempt.  A While's test also runs
            # per iteration, so it is included.
            nodes = list(loop.body)
            if isinstance(loop, ast.While):
                nodes.append(loop.test)
            for root in nodes:
                for node in ast.walk(root):
                    if not isinstance(node, ast.Call):
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue
                    callee = dotted_name(node.func)
                    if callee is None:
                        continue
                    leaf = callee.rsplit(".", 1)[-1].lstrip("_")
                    if leaf not in names:
                        continue
                    seen.add(key)
                    yield self.finding(
                        module, node,
                        "scalar kernel %s() called inside a loop in a "
                        "batch-hot module; vectorize via repro.core."
                        "batch / compute_many, or annotate the "
                        "deliberate scalar reference path in place"
                        % callee,
                    )
