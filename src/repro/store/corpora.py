"""The stored form of a synthetic corpus: the ``corpora/`` namespace.

A corpus is stored as one integrity-trailed object per
``(profile, total_bytes, seed)`` (:func:`repro.store.keys.corpus_key`):
a JSON header listing each file's name, kind and size, a newline, then
the files' bytes concatenated in order.  The splice tables re-judge the
same filesystems under several check codes and placements, so a sweep
that finds its corpus here skips corpus synthesis, and one whose shards
all hit as well never imports the generators or NumPy.

:class:`repro.corpus.filesystem.Filesystem` is imported where a stored
corpus is decoded: the store layer does not depend on the corpus layer
at import time.  The code digest in the key does not cover this module,
so a change to the layout needs a ``SCHEMA_VERSION`` bump, as a change
to any serialized result layout does.
"""

from __future__ import annotations

import json

__all__ = ["decode_corpus", "encode_corpus"]


def encode_corpus(filesystem):
    """The stored payload of ``filesystem``."""
    header = json.dumps(
        {"files": [[f.name, f.kind, len(f.data)] for f in filesystem]},
        separators=(",", ":"),
    )
    return b"".join(
        [header.encode("utf-8"), b"\n"] + [f.data for f in filesystem]
    )


def decode_corpus(name, payload):
    """The filesystem ``name`` stored in ``payload``.

    Raises ``ValueError`` (or the ``KeyError``/``TypeError`` of a
    malformed header) when ``payload`` holds no corpus; past a passing
    integrity trailer that means a writer bug or a layout change.
    """
    from repro.corpus.filesystem import Filesystem, SyntheticFile

    end = payload.index(b"\n")
    entries = json.loads(payload[:end])["files"]
    filesystem = Filesystem(name=name)
    offset = end + 1
    with memoryview(payload) as body:
        for file_name, kind, size in entries:
            if not 0 <= size <= len(payload) - offset:
                raise ValueError("file %r overruns the corpus" % file_name)
            data = bytes(body[offset : offset + size])
            filesystem.add(SyntheticFile(file_name, data, kind))
            offset += size
    if offset != len(payload):
        raise ValueError("%d bytes follow the last file" % (len(payload) - offset))
    return filesystem
