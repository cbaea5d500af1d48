"""Engine mechanics: pragmas, reporters, rule selection."""

import json

import pytest

from repro.lint.engine import all_rules, run_lint
from repro.lint.reporters import (
    findings_from_json,
    render_json,
    render_markdown,
    render_text,
)
from tests.lint.conftest import finding_rules

_VIOLATION = """
    import random

    def pick(items):
        return random.choice(items)
"""


class TestRuleRegistry:
    def test_catalogue_covers_every_domain(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        for expected in ("REP101", "REP102", "REP103", "REP201",
                        "REP202", "REP301", "REP302", "REP303",
                        "REP401", "REP501"):
            assert expected in ids
        for rule in rules:
            assert rule.invariant, "%s has no invariant" % rule.id

    def test_unknown_rule_id_raises_with_valid_ids(self, tree):
        root = tree({"repro/core/a.py": "x = 1\n"})
        with pytest.raises(KeyError) as excinfo:
            run_lint([root], rules=["REP999"])
        message = excinfo.value.args[0]
        assert "unknown rule id(s): REP999" in message
        assert "valid:" in message
        for rule in all_rules():
            assert rule.id in message


class TestSyntaxErrors:
    def test_broken_source_reports_rep000(self, lint):
        result = lint({"repro/core/broken.py": "def oops(:\n"})
        assert finding_rules(result) == ["REP000"]
        assert "syntax error" in result.findings[0].message


class TestPragmas:
    def test_trailing_pragma_suppresses(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    return random.choice(items)  # reprolint: disable=REP101
            """,
        }, rules=["REP101"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_prose_prefixed_comment_line_pragma_suppresses(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    # intentional: warm-up noise.  reprolint: disable=REP101
                    return random.choice(items)
            """,
        }, rules=["REP101"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_file_pragma_suppresses_everywhere(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                # reprolint: disable-file=REP101
                import random

                def pick(items):
                    return random.choice(items)

                def pick2(items):
                    return random.shuffle(items)
            """,
        }, rules=["REP101"])
        assert result.findings == []
        assert result.suppressed == 2

    def test_pragma_for_another_rule_does_not_suppress(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    return random.choice(items)  # reprolint: disable=REP103
            """,
        }, rules=["REP101"])
        assert finding_rules(result) == ["REP101"]


class TestReporters:
    def _result(self, lint):
        return lint({"repro/core/sweep.py": _VIOLATION}, rules=["REP101"])

    def test_text_is_editor_clickable(self, lint):
        result = self._result(lint)
        text = render_text(result)
        assert "repro/core/sweep.py:5:12 REP101 error" in text
        assert "1 finding(s)" in text

    def test_json_round_trips(self, lint):
        result = self._result(lint)
        payload = json.loads(render_json(result))
        assert payload["schema"] == "repro-lint/2"
        assert payload["summary"] == {
            "by_rule": {"REP101": 1}, "files_scanned": 3, "findings": 1,
            "suppressed": 0,
        }
        assert sorted(payload["findings"][0]) == [
            "col", "line", "message", "path", "rule", "severity", "snippet"]
        findings = findings_from_json(render_json(result))
        assert [f.rule for f in findings] == ["REP101"]
        assert findings[0].path == "repro/core/sweep.py"

    def test_json_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            findings_from_json(json.dumps({"schema": "nope", "findings": []}))

    def test_markdown_has_findings_and_catalogue(self, lint):
        result = self._result(lint)
        text = render_markdown(result)
        assert "| `repro/core/sweep.py:5:12` | REP101 |" in text
        assert "## Rule catalogue" in text
        # The catalogue lists the rules that *ran* (here: just REP101).
        assert "`unseeded-randomness`" in text

    def test_markdown_catalogue_covers_all_rules_when_unrestricted(
            self, lint):
        text = render_markdown(lint({"repro/core/ok.py": "x = 1\n"}))
        for rule_id in ("REP101", "REP111", "REP201", "REP211", "REP301",
                        "REP311", "REP401", "REP411", "REP501", "REP601"):
            assert rule_id in text
