"""Every profile's corpus and every generator's output is pinned."""

from tests.golden.corpus import (
    FS_BYTES,
    FS_SEED,
    KIND_BYTES,
    KIND_SEED,
    corpus_digests,
    load_digests,
    moved_ids,
)


def test_corpus_digests_match_committed():
    committed = load_digests()
    pinned = tuple(committed[key]
                   for key in ("bytes", "seed", "kind_bytes", "kind_seed"))
    assert pinned == (FS_BYTES, FS_SEED, KIND_BYTES, KIND_SEED)
    current = corpus_digests()
    moved = {section: moved_ids(committed[section], current[section])
             for section in ("profiles", "kinds")}
    assert moved == {"profiles": [], "kinds": []}, (
        "corpus digests moved: %s; if intended, rerun `make bless`" % moved
    )
