"""Shared fixtures for the reprolint test suite.

Rules key off *dotted module names* derived from the scan root, so
fixtures replicate the real tree's layout (``repro/core/...``) inside
a tmp directory and lint that root.
"""

import textwrap

import pytest

from repro.lint.engine import run_lint


@pytest.fixture
def tree(tmp_path):
    """``tree({relpath: source, ...}) -> root`` fixture-tree builder."""

    def build(files):
        root = tmp_path / "fixture-src"
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
            # Package __init__.py files so the layout mirrors reality.
            parent = path.parent
            while parent != root and parent != parent.parent:
                init = parent / "__init__.py"
                if not init.exists():
                    init.write_text("", encoding="utf-8")
                parent = parent.parent
        return root

    return build


@pytest.fixture
def lint(tree):
    """``lint(files, rules=None) -> LintResult``."""

    def run(files, rules=None):
        return run_lint([tree(files)], rules=rules)

    return run


def finding_rules(result):
    """The rule ids of the findings, in report order."""
    return [finding.rule for finding in result.findings]
