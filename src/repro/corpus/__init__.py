"""Synthetic "real data" corpus standing in for the paper's filesystems.

The paper ran over real UNIX filesystems at NSC, SICS and Stanford.
Those bytes are not available, so this package generates deterministic
synthetic filesystems that reproduce the *statistical* properties the
checksums react to:

* skewed byte-value distributions (English text, C source),
* long runs of 0x00 and 0xFF (zero-optimised files, word-processor
  documents, sparse profiling data),
* strong local correlation and repetition (Markov text, repeated code
  idioms, bitmap scan lines),
* the specific pathological periodicities of Section 5.5 (black-and-
  white PBM bitmaps, hex-encoded PostScript bitmaps with power-of-two
  line widths, BinHex-style 64-byte lines, gmon.out-style profiles).

See DESIGN.md for the substitution argument.  Everything is seeded and
bit-for-bit reproducible.

Exports resolve lazily (PEP 562), like :mod:`repro.core`: a sweep
that reads its corpus from the store imports
:mod:`repro.corpus.filesystem` alone, never the NumPy generators.
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule, resolved on first attribute use.
_EXPORTS = {
    "Filesystem": "repro.corpus.filesystem",
    "FilesystemProfile": "repro.corpus.profiles",
    "GENERATORS": "repro.corpus.generators",
    "PROFILES": "repro.corpus.profiles",
    "SyntheticFile": "repro.corpus.filesystem",
    "add_constant_to_words": "repro.corpus.transforms",
    "build_filesystem": "repro.corpus.profiles",
    "compress_filesystem": "repro.corpus.transforms",
    "generate": "repro.corpus.generators",
    "profile_names": "repro.corpus.profiles",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
