"""Suppression hygiene (REP601).

A pragma that stops suppressing after an edit must surface as REP601:
a suppression is debt, and the ledger must stay honest.
"""

from tests.lint.conftest import finding_rules


class TestStalePragmas:
    def test_stale_line_pragma_is_reported(self, lint):
        result = lint({
            "repro/core/math.py": """
                def add(a, b):
                    return a + b  # reprolint: disable=REP101
            """,
        })
        assert finding_rules(result) == ["REP601"]
        finding = result.findings[0]
        assert finding.severity == "warning"
        assert "suppressed nothing" in finding.message

    def test_working_pragma_is_not_reported(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    return random.choice(items)  # reprolint: disable=REP101
            """,
        }, rules=["REP101", "REP601"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_stale_file_pragma_is_reported(self, lint):
        result = lint({
            "repro/core/math.py": """
                # reprolint: disable-file=REP103
                def add(a, b):
                    return a + b
            """,
        })
        assert finding_rules(result) == ["REP601"]

    def test_unknown_rule_id_lists_valid_ids(self, lint):
        result = lint({
            "repro/core/math.py": """
                def add(a, b):
                    return a + b  # reprolint: disable=REP999
            """,
        })
        assert finding_rules(result) == ["REP601"]
        message = result.findings[0].message
        assert "unknown rule id REP999" in message
        assert "REP101" in message and "REP601" in message

    def test_rules_subset_cannot_prove_staleness(self, lint):
        # With only REP601 selected, a REP101 pragma's silence proves
        # nothing -- the rule that would have fired never ran.
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    return random.choice(items)  # reprolint: disable=REP101
            """,
        }, rules=["REP601"])
        assert result.findings == []

    def test_docstring_prose_about_pragmas_is_not_a_pragma(self, lint):
        result = lint({
            "repro/core/doc.py": '''
                """Write ``# reprolint: disable=REP101`` to suppress."""

                def add(a, b):
                    return a + b
            ''',
        })
        assert result.findings == []

    def test_pragma_suppressing_a_project_rule_counts_as_used(self, lint):
        # REP111 findings come from the project phase; REP601 (also
        # project-scope, running last) must still see the suppression.
        result = lint({
            "repro/analysis/helpers.py": """
                import time

                def grab_clock():
                    return time.time()
            """,
            "repro/analysis/export.py": """
                from repro.analysis.helpers import grab_clock

                def to_payload(rows):
                    # deliberate: operator-facing stamp.  reprolint: disable=REP111
                    return {"rows": rows, "at": grab_clock()}
            """,
        }, rules=["REP111", "REP601"])
        assert result.findings == []
        assert result.suppressed == 1
