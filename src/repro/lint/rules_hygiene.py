"""Suppression hygiene: REP601.

A pragma is debt with a justification attached; it goes stale silently
when the code it excuses is fixed or deleted.  REP601 closes the loop:
a ``# reprolint: disable=`` pragma that suppressed nothing this run, or
one naming a rule id that does not exist, is itself a finding.

The rule runs project-scope and *last* (registry order is lexicographic
by id), so it observes every suppression the other rules triggered,
including those from other project-scope rules.
"""

from __future__ import annotations

from repro.lint.engine import Rule, all_rules, register

__all__ = ["StaleSuppressionRule"]


class _Anchor:
    """A minimal node stand-in so ``Rule.finding`` can anchor pragmas."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno):
        self.lineno = lineno
        self.col_offset = 0


@register
class StaleSuppressionRule(Rule):
    """REP601: every pragma suppresses something; every id is real."""

    id = "REP601"
    title = "stale-suppression"
    severity = "warning"
    category = "hygiene"
    scope = "project"
    invariant = (
        "Every committed pragma still earns its keep: each one "
        "silenced at least one finding this run and names only real "
        "rule ids."
    )

    def check_project(self, ctx):
        known = {rule.id for rule in all_rules()}
        for module in ctx.project.modules():
            try:
                pragmas = module.pragmas
            except (OSError, UnicodeDecodeError):  # pragma: no cover
                continue
            usage = ctx.suppression_usage.get(module.relpath, set())
            used_anywhere = {rule_id for rule_id, _line in usage}
            for declaration in pragmas.declarations:
                yield from self._check_declaration(
                    module, declaration, known, usage, used_anywhere,
                    ctx.selected_ids,
                )

    def _check_declaration(self, module, declaration, known, usage,
                           used_anywhere, selected_ids):
        for rule_id in sorted(declaration.rules):
            if rule_id == "all":
                continue  # blanket disable: usage is unknowable
            if rule_id not in known:
                yield self.finding(
                    module, _Anchor(declaration.lineno),
                    "pragma names unknown rule id %s; it suppresses "
                    "nothing (valid ids: %s)" % (
                        rule_id, ", ".join(sorted(known)),
                    ),
                )
                continue
            if rule_id == self.id:
                # A REP601 pragma exists to silence *this* rule on a
                # neighbouring declaration; judging it would recurse.
                continue
            if rule_id not in selected_ids:
                continue  # a --rules subset cannot prove staleness
            if declaration.scope == "file":
                stale = rule_id not in used_anywhere
            else:
                stale = not any(
                    used_rule == rule_id and line in declaration.targets
                    for used_rule, line in usage
                )
            if stale:
                yield self.finding(
                    module, _Anchor(declaration.lineno),
                    "pragma disable=%s suppressed nothing this run; "
                    "the finding it excused is gone -- delete the "
                    "pragma" % rule_id,
                )
