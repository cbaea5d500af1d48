"""Every channel plan's event stream is pinned, under every ARQ kind."""

from tests.golden.traces import (
    FS_BYTES,
    SEED,
    SYSTEM,
    load_digests,
    moved_ids,
    trace_digests,
)


def test_trace_digests_match_committed():
    committed = load_digests()
    pinned = (committed["system"], committed["bytes"], committed["seed"])
    assert pinned == (SYSTEM, FS_BYTES, SEED)
    moved = moved_ids(committed["digests"], trace_digests())
    assert not moved, (
        "trace digests moved for %s; if intended, rerun `make bless`" % moved
    )
