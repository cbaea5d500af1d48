"""Filesystem profiles mirroring the paper's measured volumes.

Each profile is a weighted mix of file families plus a file-size
distribution.  The names follow the paper's "system codes" so that the
reproduced Tables 1-3 and 8-9 read like the originals:

* ``nsc*`` -- general-purpose volumes at Network Systems Corp.
* ``sics-src*`` -- source trees at SICS (C-source heavy).
* ``sics-opt`` -- the /opt volume the paper singles out for its high
  executable share and worst TCP miss rate.
* ``stanford-u1`` -- the user volume containing, among other things,
  the directory of black-and-white PBM RTT plots that defeats
  Fletcher-255.
* ``stanford-usr-local`` -- binaries plus documentation.
* ``pathological-*`` -- single-family volumes for the Section 5.5
  studies, and ``uniform`` as the classical-assumption control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.filesystem import Filesystem, SyntheticFile
from repro.corpus.generators import GENERATORS, _PCG64Replay

__all__ = ["PROFILES", "FilesystemProfile", "build_filesystem", "profile_names"]


@dataclass(frozen=True)
class FilesystemProfile:
    """A named mix of file families.

    ``mix`` maps generator kind to weight (relative probability of the
    next file being of that kind); ``size_range`` bounds individual
    file sizes in bytes.
    """

    name: str
    mix: dict
    size_range: tuple = (2_000, 60_000)
    description: str = ""

    def __post_init__(self):
        unknown = set(self.mix) - set(GENERATORS)
        if unknown:
            raise ValueError("unknown generator kinds: %s" % sorted(unknown))
        if not self.mix:
            raise ValueError("profile mix must not be empty")


PROFILES = {
    profile.name: profile
    for profile in [
        # Weights are byte-share weights; the pathological families get
        # directory-sized fractions, as on the measured volumes, which
        # places each profile's TCP miss rate inside the paper's
        # 0.008%-0.22% band (see EXPERIMENTS.md for the calibration).
        FilesystemProfile(
            "nsc05",
            {"english": 40, "c-source": 25, "log": 15, "executable": 15,
             "zero-heavy": 2, "gmon": 0.05},
            description="clean text/source volume (low end of the band)",
        ),
        FilesystemProfile(
            "nsc11",
            {"executable": 45, "zero-heavy": 12, "english": 15, "wordproc": 5,
             "gmon": 0.3},
            description="binary-heavy volume",
        ),
        FilesystemProfile(
            "nsc23",
            {"english": 25, "log": 30, "zero-heavy": 25, "wordproc": 8,
             "gmon": 1.0},
            description="logs and profiling output (high end of the band)",
        ),
        FilesystemProfile(
            "nsc25",
            {"c-source": 45, "english": 25, "executable": 15, "binhex": 10,
             "zero-heavy": 4},
            description="development volume",
        ),
        FilesystemProfile(
            "sics-src1",
            {"c-source": 60, "english": 10, "zero-heavy": 5, "gmon": 0.9},
            description="source tree",
        ),
        FilesystemProfile(
            "sics-src2",
            {"c-source": 55, "log": 10, "zero-heavy": 7, "gmon": 1.2},
            description="source tree",
        ),
        FilesystemProfile(
            "sics-opt",
            {"executable": 50, "zero-heavy": 25, "english": 8, "wordproc": 6,
             "gmon": 1.6},
            description="the high-executable /opt volume (worst TCP miss rate)",
        ),
        FilesystemProfile(
            "sics-solaris",
            {"executable": 50, "zero-heavy": 15, "english": 15, "c-source": 10,
             "gmon": 0.25},
            description="OS install image",
        ),
        FilesystemProfile(
            "stanford-u1",
            {"english": 30, "c-source": 18, "executable": 12, "log": 8,
             "records": 5, "wordproc": 2, "zero-heavy": 1, "binhex": 3,
             "pbm-plot": 0.3, "hex-postscript": 0.25, "gmon": 0.15},
            description="user volume with the PBM RTT-plot directory",
        ),
        FilesystemProfile(
            "stanford-usr-local",
            {"executable": 50, "english": 20, "c-source": 12, "binhex": 8,
             "zero-heavy": 2, "gmon": 0.35},
            description="/usr/local binaries and docs",
        ),
        FilesystemProfile(
            "pathological-pbm",
            {"pbm-plot": 1},
            description="Section 5.5: all bytes 0/255 (Fletcher-255 killer)",
        ),
        FilesystemProfile(
            "pathological-hexps",
            {"hex-postscript": 1},
            description="Section 5.5: hex bitmaps with power-of-two widths",
        ),
        FilesystemProfile(
            "pathological-gmon",
            {"gmon": 1},
            description="Section 5.5: sparse profile counters (TCP killer)",
        ),
        FilesystemProfile(
            "pathological-binhex",
            {"binhex": 1},
            description="Section 5.5: 64-byte-period encoded text",
        ),
        FilesystemProfile(
            "uniform",
            {"uniform": 1},
            description="uniformly random control",
        ),
    ]
}


def profile_names():
    """Sorted names of every built-in filesystem profile."""
    return sorted(PROFILES)


def _stable_profile_seed(name):
    """A deterministic 31-bit seed derived from the profile name."""
    value = 0
    for char in name:
        value = (value * 131 + ord(char)) & 0x7FFFFFFF
    return value


def build_filesystem(profile, total_bytes, seed=0):
    """Materialise a profile into a deterministic :class:`Filesystem`.

    Each file kind receives a byte budget proportional to its weight
    (so directory-sized fractions like the PBM plots are always
    present, as they were on the measured volumes), and files of
    profile-distributed sizes are generated against each budget.  The
    same ``(profile, total_bytes, seed)`` always produces the same
    bytes.
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    # One replay of the profile's PCG64 stream feeds every draw.
    rng = _PCG64Replay(np.random.default_rng(
        np.random.SeedSequence([seed, _stable_profile_seed(profile.name)])
    ))
    kinds = sorted(profile.mix)
    weights = np.array([profile.mix[k] for k in kinds], dtype=np.float64)
    budgets = weights / weights.sum() * total_bytes
    low, high = profile.size_range

    fs = Filesystem(name=profile.name)
    index = 0
    for kind, budget in zip(kinds, budgets):
        produced = 0
        while produced < budget:
            size = int(rng.integers(low, high))
            size = max(512, min(size, int(budget) - produced + 512))
            data = GENERATORS[kind](rng, size)
            fs.add(
                SyntheticFile(
                    name="%s/file%04d.%s" % (fs.name, index, kind),
                    data=data,
                    kind=kind,
                )
            )
            produced += len(data)
            index += 1
    return fs
