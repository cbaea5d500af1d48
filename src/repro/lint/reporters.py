"""Renderers for a :class:`~repro.lint.engine.LintResult`.

* ``text`` -- one ``path:line:col RULE severity message`` per finding
  (the default, editor-clickable);
* ``json`` -- a stable ``repro-lint/2`` document that round-trips
  through :func:`findings_from_json` (CI consumers, the test suite);
* ``md`` -- a markdown table plus the rule catalogue (docs, PR bots).
"""

from __future__ import annotations

import json

from repro.lint.findings import Finding

__all__ = [
    "REPORT_SCHEMA",
    "findings_from_json",
    "render_json",
    "render_markdown",
    "render_text",
]

REPORT_SCHEMA = "repro-lint/2"


def _summary(result):
    return {
        "files_scanned": result.files_scanned,
        "findings": len(result.findings),
        "suppressed": result.suppressed,
        "by_rule": result.counts_by_rule(),
    }


def render_text(result):
    lines = []
    for finding in result.findings:
        lines.append("%s %s %s %s" % (
            finding.location(), finding.rule, finding.severity,
            finding.message,
        ))
    lines.append(
        "%(files_scanned)d files scanned: %(findings)d finding(s), "
        "%(suppressed)d pragma-suppressed" % _summary(result)
    )
    return "\n".join(lines)


def render_json(result, indent=2):
    payload = {
        "schema": REPORT_SCHEMA,
        "summary": _summary(result),
        "findings": [finding.to_dict() for finding in result.findings],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def findings_from_json(text):
    """Rebuild the findings list from :func:`render_json` output."""
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            "unsupported lint report schema %r (expected %r)"
            % (schema, REPORT_SCHEMA)
        )
    return [Finding.from_dict(entry) for entry in payload["findings"]]


def render_markdown(result):
    lines = ["# reprolint report", ""]
    summary = _summary(result)
    lines.append(
        "%(files_scanned)d files scanned -- **%(findings)d finding(s)**, "
        "%(suppressed)d pragma-suppressed." % summary
    )
    lines.append("")
    if result.findings:
        lines += [
            "| location | rule | severity | message |",
            "| --- | --- | --- | --- |",
        ]
        for finding in result.findings:
            message = finding.message.replace("|", "\\|")
            lines.append("| `%s` | %s | %s | %s |" % (
                finding.location(), finding.rule, finding.severity, message,
            ))
        lines.append("")
    lines.append("## Rule catalogue")
    lines.append("")
    lines += [
        "| rule | severity | category | invariant |",
        "| --- | --- | --- | --- |",
    ]
    for rule in result.rules:
        lines.append("| %s `%s` | %s | %s | %s |" % (
            rule.id, rule.title, rule.severity, rule.category,
            rule.invariant.replace("|", "\\|"),
        ))
    return "\n".join(lines)
