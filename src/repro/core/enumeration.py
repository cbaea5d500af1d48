"""Exact enumeration of the splices of an adjacent AAL5 frame pair.

With frames of ``n1`` and ``n2`` cells, the wire carries the ``n1 - 1``
unmarked cells of the first frame, its marked trailer cell, the
``n2 - 1`` unmarked cells of the second frame, and its marked trailer.
ATM never reorders cells, so a drop pattern turns into a splice when:

* the first frame's marked cell is dropped (otherwise the frames stay
  separate), and
* the second frame's marked cell is kept (it terminates the splice),
  and
* the AAL5 length check forces the reassembled frame to contain exactly
  ``n2`` cells (the trailer's Length field must be consistent with the
  cell count).

A splice is therefore an order-preserving choice of ``n2 - 1`` cells
from the ``(n1 - 1) + (n2 - 1)`` unmarked candidates, followed by the
forced trailer -- ``C(n1 + n2 - 2, n2 - 1)`` selections, minus the one
that reconstructs the second frame intact (no corruption occurred).
For the paper's 7-cell packets that is ``C(12, 6) - 1 = 923``
structural candidates per pair, of which the ``C(11, 5) = 462`` leading
with the first frame's header cell are the ones that can pass the
header checks (the count the paper derives in Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "SpliceEnumeration",
    "enumerate_splices",
    "splice_count",
    "splice_enumeration",
    "structural_splice_count",
]


def structural_splice_count(n1, n2):
    """Number of distinct splices of an ``(n1, n2)``-cell frame pair."""
    if n1 < 1 or n2 < 1:
        raise ValueError("frames have at least one cell")
    return comb(n1 + n2 - 2, n2 - 1) - 1


def splice_count(m):
    """The paper's header-constrained count for equal ``m``-cell frames.

    With the leading (header) and trailing (trailer) cells pinned there
    are ``C(2m - 3, m - 2)`` selections -- 462 for the 7-cell packets of
    a 256-byte MSS (Section 4.6).
    """
    if m < 2:
        return 0
    return comb(2 * m - 3, m - 2)


@dataclass(frozen=True)
class SpliceEnumeration:
    """The precomputed splice index set for an ``(n1, n2)`` pair shape.

    ``selection`` is an ``(S, n2 - 1)`` int16 array of candidate indices
    (0-based: first-frame cells ``0 .. n1-2`` then second-frame cells
    ``n1-1 .. n1+n2-3``), each row strictly increasing.  The derived
    per-row arrays cache what the counters need:

    * ``substitution_len`` -- the paper's substitution length ``k``: the
      number of second-packet cells in the splice including the forced
      trailer (the "48(k-1)+8 byte" accounting of Section 4.6).
    * ``has_second_header`` -- whether the second frame's header cell is
      part of the splice (Section 5.3's case split).
    * ``lengths`` -- the distinct substitution lengths, ascending, as a
      tuple of ints (the keys of the per-length counters).

    Every row also splits at the frame boundary into a *first part*
    (its ``k >= 1`` first-frame cells, in slots ``0 .. k-1``) and a
    *second part* (its second-frame cells, in slots ``k ..``), so the
    engine can judge a row by combining two per-part partials:

    * ``first_key`` / ``second_key`` -- each row's two part ids;
    * ``first_rows`` / ``second_rows`` -- for each part id, one row
      that holds the part, from which :attr:`first_parts` and
      :attr:`second_parts` are read.
    """

    n1: int
    n2: int
    selection: np.ndarray
    substitution_len: np.ndarray
    has_second_header: np.ndarray
    lengths: tuple
    first_key: np.ndarray
    second_key: np.ndarray
    first_rows: np.ndarray
    second_rows: np.ndarray

    @property
    def splices(self):
        return self.selection.shape[0]

    @property
    def first_parts(self):
        """``(K1, n2 - 1)`` distinct first parts, ``-1`` past their cells.

        ``selection[s]`` is ``first_parts[first_key[s]]`` with the
        ``-1`` slots filled from ``second_parts[second_key[s]]``.
        """
        rows = self.selection[self.first_rows]
        return np.where(rows < self.n1 - 1, rows, -1)

    @property
    def second_parts(self):
        """``(K2, n2 - 1)`` distinct second parts, ``-1`` before their cells."""
        rows = self.selection[self.second_rows]
        return np.where(rows >= self.n1 - 1, rows, -1)

    @property
    def slots(self):
        """Variable cell slots per splice (the trailer slot is fixed)."""
        return self.selection.shape[1]


@lru_cache(maxsize=None)
def _selection_matrix(candidates, pick):
    rows = comb(candidates, pick)
    matrix = np.empty((rows, pick), dtype=np.int16)
    for row, combo in enumerate(combinations(range(candidates), pick)):
        matrix[row] = combo
    return matrix


@lru_cache(maxsize=None)
def enumerate_splices(n1, n2, max_splices=2_000_000):
    """Build (and cache) the :class:`SpliceEnumeration` for a pair shape.

    Raises :class:`ValueError` when the exact enumeration would exceed
    ``max_splices`` rows; the paper's 256-byte segments stay tiny (923
    rows), but callers probing large MSS values get a clear signal to
    reduce the segment size instead of an OOM.
    """
    if n1 < 2 or n2 < 2:
        # A 1-cell frame cannot splice: its only cell is the marked one.
        empty = np.empty((0, max(n2 - 1, 0)), dtype=np.int16)
        return _finish_enumeration(n1, n2, empty)
    candidates = (n1 - 1) + (n2 - 1)
    pick = n2 - 1
    total = comb(candidates, pick)
    if total > max_splices:
        raise ValueError(
            "enumerating %d splices for an (%d, %d)-cell pair exceeds the "
            "max_splices cap of %d; use a smaller MSS" % (total, n1, n2, max_splices)
        )
    matrix = _selection_matrix(candidates, pick)
    # Drop the row that reconstructs the second frame intact.
    intact = np.arange(n1 - 1, candidates, dtype=np.int16)
    keep = ~(matrix == intact).all(axis=1)
    return _finish_enumeration(n1, n2, matrix[keep])


def _finish_enumeration(n1, n2, matrix):
    from_second = matrix >= (n1 - 1)
    substitution_len = from_second.sum(axis=1).astype(np.int64) + 1
    has_second_header = (matrix == (n1 - 1)).any(axis=1)
    # Distinct lengths by bincount: np.unique would import numpy.ma.
    lengths = tuple(np.flatnonzero(np.bincount(substitution_len)).tolist())
    # The only row without a first-frame cell is the intact second
    # frame, which no enumeration keeps: every first part is non-empty,
    # so every row leads with a first-frame cell.
    assert not from_second[:, :1].any(), "a splice row lacks a first-frame cell"
    first_key, first_rows = _part_ids(np.where(from_second, -1, matrix))
    second_key, second_rows = _part_ids(np.where(from_second, matrix, -1))
    return SpliceEnumeration(
        n1,
        n2,
        matrix,
        substitution_len,
        has_second_header,
        lengths,
        first_key,
        second_key,
        first_rows,
        second_rows,
    )


def _part_ids(parts):
    """Each row's id among the distinct rows of ``parts``, and one row per id."""
    if not parts.size:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    # One opaque item per row makes np.unique compare whole rows at once.
    items = np.ascontiguousarray(parts).view(
        np.dtype((np.void, parts.itemsize * parts.shape[1]))
    )
    _, rows, ids = np.unique(items[:, 0], return_index=True, return_inverse=True)
    return ids.reshape(-1), rows


@lru_cache(maxsize=None)
def sample_splices(n1, n2, count, seed=0):
    """A uniform sample of splices for pair shapes too large to enumerate.

    Draws ``count`` distinct splice selections uniformly from the
    ``C(n1 + n2 - 2, n2 - 1) - 1`` possibilities (each selection is a
    uniformly random ``n2 - 1``-subset of the candidates, deduplicated,
    with the intact-second-frame row excluded).  Used for large-MSS
    studies where exact enumeration would explode; per-splice rates
    estimated over the sample are unbiased.
    """
    if n1 < 2 or n2 < 2:
        return enumerate_splices(n1, n2)
    candidates = (n1 - 1) + (n2 - 1)
    pick = n2 - 1
    population = comb(candidates, pick) - 1
    if population <= count:
        return enumerate_splices(n1, n2, max_splices=max(population + 1, 1))
    rng = np.random.default_rng(np.random.SeedSequence([n1, n2, count, seed]))
    intact = tuple(range(n1 - 1, candidates))
    rows = set()
    while len(rows) < count:
        draw = tuple(sorted(rng.choice(candidates, size=pick, replace=False)))
        if draw != intact:
            rows.add(draw)
    matrix = np.array(sorted(rows), dtype=np.int16)
    return _finish_enumeration(n1, n2, matrix)


def splice_enumeration(n1, n2, sample=0, max_splices=2_000_000):
    """The rows a pair is judged over: exact, or a uniform sample.

    ``sample`` is 0 for the exact enumeration; otherwise a pair with
    more than ``sample`` splices is judged over :func:`sample_splices`
    of that size.  The engine and the reference counter of
    :mod:`repro.core.reference` both enumerate through here.
    """
    if sample and n1 >= 2 and n2 >= 2 and structural_splice_count(n1, n2) > sample:
        return sample_splices(n1, n2, sample)
    return enumerate_splices(n1, n2, max_splices)
