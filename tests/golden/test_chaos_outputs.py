"""The chaos command's report under every store fault plan is pinned."""

import difflib

import pytest

from tests.golden.chaos import PLANS, chaos_output, golden_path, masked


@pytest.mark.parametrize("plan", PLANS)
def test_chaos_output_matches_committed(plan):
    committed = masked(golden_path(plan).read_text(encoding="utf-8"))
    actual = masked(chaos_output(plan))
    diff = "".join(difflib.unified_diff(
        committed.splitlines(keepends=True), actual.splitlines(keepends=True),
        "committed/%s.txt" % plan, "actual/%s.txt" % plan,
    ))
    assert not diff, (
        "chaos --plan %s output moved; if intended, rerun `make bless`\n%s"
        % (plan, diff)
    )
