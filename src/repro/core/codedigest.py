"""The digest of the code behind every cached value.

Cache keys (:mod:`repro.store.keys`) and channel-sweep fingerprints
(:mod:`repro.channel.sweep`) hash what determines a result: ids,
parameters, corpus bytes and configs.  They also hash this digest, so
an entry that different code wrote is never served as current.  It
covers the sorted relative paths and bytes of every ``*.py`` file in
the packages that compute cached values, read once per process without
importing any of them: a warm ``--cache`` hit still never imports the
engine or the corpus generators (REP303).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

__all__ = ["CODE_PACKAGES", "code_digest"]

#: The ``repro`` subpackages whose code can change a cached value.
CODE_PACKAGES = (
    "analysis",
    "channel",
    "checksums",
    "core",
    "corpus",
    "experiments",
    "protocols",
)

_ROOT = Path(__file__).resolve().parents[1]
_digest = None


def _source_files():
    """Sorted ``(relative POSIX path, path)`` of every ``*.py`` file."""
    root = os.fspath(_ROOT)
    skip = len(root) + len(os.sep)
    files = []
    for package in CODE_PACKAGES:
        for dirpath, _, filenames in os.walk(os.path.join(root, package)):
            prefix = dirpath[skip:].replace(os.sep, "/") + "/"
            files.extend(
                (prefix + name, os.path.join(dirpath, name))
                for name in filenames
                if name.endswith(".py")
            )
    files.sort()
    return files


def code_digest():
    """sha256 hex over the relative paths and bytes of :data:`CODE_PACKAGES`."""
    global _digest
    if _digest is None:
        digest = hashlib.sha256()
        for name, path in _source_files():
            with open(path, "rb") as handle:
                data = handle.read()
            digest.update(name.encode("utf-8") + b"\0")
            digest.update(len(data).to_bytes(8, "big"))
            digest.update(data)
        _digest = digest.hexdigest()
    return _digest
