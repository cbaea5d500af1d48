"""Batch members are bit-identical to the one-buffer ``compute``.

The batch members of the
:class:`~repro.checksums.registry.ChecksumAlgorithm` protocol
(``compute_many`` / ``prefix_state`` / ``combine`` / ``state_value``)
are stated entirely in terms of ``compute``:

* ``compute_many(blocks)[i] == compute(blocks[i])`` for every row;
* ``state_value(combine(prefix_state(a), prefix_state(b), len(b)))
  == compute(a + b)`` for every split point, including odd-length and
  empty parts.

Every registered algorithm has them; these tests pin both that and the
bit-identity.
"""

import numpy as np
import pytest

from repro.checksums.batch import block_matrix
from repro.checksums.registry import (
    ChecksumAlgorithm,
    available_algorithms,
    get_algorithm,
)


def _pattern(length, seed=0):
    """Deterministic non-trivial bytes (no RNG: conformance data)."""
    return bytes((i * 31 + seed * 97 + 7) % 256 for i in range(length))


#: Block lengths covering the parity and window cases the kernels
#: special-case: empty-ish, odd, the ATM cell, and a multi-cell span.
BLOCK_LENGTHS = [1, 33, 48, 1008]

SPLIT_BUFFER = _pattern(301, seed=5)
SPLIT_POINTS = [0, 1, 2, 47, 48, 150, 300, 301]


@pytest.fixture(params=available_algorithms())
def algorithm(request):
    return get_algorithm(request.param)


BATCH_MEMBERS = ("compute_many", "prefix_state", "combine", "state_value")


class TestAdvertisement:
    def test_every_registered_algorithm_has_the_tier(self, algorithm):
        assert isinstance(algorithm, ChecksumAlgorithm)
        for member in BATCH_MEMBERS:
            assert callable(getattr(algorithm, member)), (algorithm.name, member)

    def test_registry_resolves_names(self):
        for name in available_algorithms():
            assert isinstance(get_algorithm(name), ChecksumAlgorithm), name

    def test_structural_check_rejects_scalar_only_objects(self):
        class ScalarOnly:
            """Has the one-buffer members but none of the batch members."""

            name = "scalar-only"
            width = 16

            def compute(self, data):
                return 0

            def field(self, data):
                return b"\x00\x00"

            def verify(self, data):
                return True

        assert not isinstance(ScalarOnly(), ChecksumAlgorithm)


class TestComputeMany:
    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_matches_scalar_compute(self, algorithm, length):
        blocks = [_pattern(length, seed) for seed in range(9)]
        values = algorithm.compute_many(block_matrix(blocks))
        assert values.shape == (len(blocks),)
        for i, block in enumerate(blocks):
            assert int(values[i]) == algorithm.compute(block), (
                algorithm.name, length, i,
            )

    def test_accepts_uint8_matrix_without_copy(self, algorithm):
        matrix = np.frombuffer(
            _pattern(4 * 48), dtype=np.uint8
        ).reshape(4, 48)
        values = algorithm.compute_many(matrix)
        for i in range(4):
            assert int(values[i]) == algorithm.compute(matrix[i].tobytes())


def _word_aligned_only(algorithm):
    """Fletcher-16 composes only word-aligned (even-length) prefixes."""
    return algorithm.name.startswith("fletcher16")


class TestPrefixCombine:
    @pytest.mark.parametrize("split", SPLIT_POINTS)
    def test_split_recombines_to_whole_buffer(self, algorithm, split):
        head, tail = SPLIT_BUFFER[:split], SPLIT_BUFFER[split:]
        if split % 2 and _word_aligned_only(algorithm):
            # The documented constraint: an odd prefix cannot compose.
            with pytest.raises(ValueError):
                algorithm.combine(
                    algorithm.prefix_state(head),
                    algorithm.prefix_state(tail),
                    len(tail),
                )
            return
        state = algorithm.combine(
            algorithm.prefix_state(head),
            algorithm.prefix_state(tail),
            len(tail),
        )
        assert algorithm.state_value(state) == algorithm.compute(
            SPLIT_BUFFER
        ), (algorithm.name, split)

    def test_three_way_combine_is_order_consistent(self, algorithm):
        a, b, c = SPLIT_BUFFER[:100], SPLIT_BUFFER[100:200], SPLIT_BUFFER[200:]
        left = algorithm.combine(
            algorithm.combine(
                algorithm.prefix_state(a), algorithm.prefix_state(b), len(b)
            ),
            algorithm.prefix_state(c),
            len(c),
        )
        right = algorithm.combine(
            algorithm.prefix_state(a),
            algorithm.combine(
                algorithm.prefix_state(b), algorithm.prefix_state(c), len(c)
            ),
            len(b) + len(c),
        )
        whole = algorithm.compute(SPLIT_BUFFER)
        assert algorithm.state_value(left) == whole, algorithm.name
        assert algorithm.state_value(right) == whole, algorithm.name


class TestBlockMatrix:
    def test_ragged_input_raises(self):
        with pytest.raises(ValueError):
            block_matrix([b"ab", b"abc"])

    def test_non_uint8_array_raises(self):
        with pytest.raises(ValueError):
            block_matrix(np.zeros((2, 4), dtype=np.int64))

    def test_empty_iterable_yields_empty_matrix(self):
        assert block_matrix([]).shape == (0, 0)

    def test_bytes_rows_stack(self):
        matrix = block_matrix([b"\x01\x02", b"\x03\x04"])
        assert matrix.dtype == np.uint8
        assert matrix.tolist() == [[1, 2], [3, 4]]
