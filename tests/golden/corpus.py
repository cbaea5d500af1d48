"""Corpus digests: the sha256 of every profile's synthetic filesystem.

Each built-in profile is materialised as ``build_filesystem(name,
20000, 3)`` and hashed over its file names and bytes, in order; each
generator kind is hashed once as ``generate(kind, 4096, 1)``.  Report
digests see only the profiles the experiments build, and cannot tell a
corpus change from a table change; these pin the corpus itself.

Rewrite the committed digests only on purpose::

    make bless          # or: PYTHONPATH=src python -m tests.golden.corpus

which prints the profiles and kinds whose digests moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.corpus import GENERATORS, build_filesystem, generate, profile_names
from tests.golden.reports import moved_ids

DIGEST_FILE = Path(__file__).with_name("corpus_digests.json")
FS_BYTES = 20_000
FS_SEED = 3
KIND_BYTES = 4096
KIND_SEED = 1


def filesystem_digest(profile):
    """sha256 over ``(name, length, bytes)`` of every file, in order."""
    digest = hashlib.sha256()
    for file in build_filesystem(profile, FS_BYTES, FS_SEED):
        digest.update(file.name.encode("utf-8") + b"\0")
        digest.update(len(file.data).to_bytes(8, "big"))
        digest.update(file.data)
    return digest.hexdigest()


def kind_digest(kind):
    """sha256 of one generator's output at the pinned size and seed."""
    return hashlib.sha256(generate(kind, KIND_BYTES, KIND_SEED)).hexdigest()


def corpus_digests():
    """``{"profiles": {...}, "kinds": {...}}`` for the current tree."""
    return {
        "profiles": {name: filesystem_digest(name) for name in profile_names()},
        "kinds": {kind: kind_digest(kind) for kind in sorted(GENERATORS)},
    }


def load_digests():
    """The committed record: pinned sizes and seeds plus both maps."""
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def bless():
    """Recompute every digest, rewrite the file, list what moved."""
    old = load_digests() if DIGEST_FILE.exists() else {}
    new = corpus_digests()
    record = {"bytes": FS_BYTES, "seed": FS_SEED,
              "kind_bytes": KIND_BYTES, "kind_seed": KIND_SEED, **new}
    DIGEST_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    total = 0
    for section, label in (("profiles", "profile"), ("kinds", "kind")):
        moved = moved_ids(old.get(section, {}), new[section])
        for name in moved:
            print("moved %s: %s" % (label, name))
        total += len(moved)
    print("%d of %d corpus digests moved; wrote %s"
          % (total, len(new["profiles"]) + len(new["kinds"]), DIGEST_FILE))


if __name__ == "__main__":
    bless()
