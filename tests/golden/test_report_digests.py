"""Every experiment's report is pinned by its stdout digest."""

from tests.golden.reports import (
    FS_BYTES,
    SEED,
    load_digests,
    moved_ids,
    report_digests,
)


def test_report_digests_match_committed():
    # The conftest autouse fixture points the store and journal at a
    # tmp root, so these runs never see a warm cache.
    committed = load_digests()
    assert (committed["bytes"], committed["seed"]) == (FS_BYTES, SEED)
    moved = moved_ids(committed["digests"], report_digests())
    assert not moved, (
        "report digests moved for %s; if intended, rerun `make bless`" % moved
    )
