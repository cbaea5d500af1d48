"""The replay answers every Generator call the corpus makes, draw for draw.

Every generator draws through one :class:`_PCG64Replay` when the corpus
builds a filesystem.  A NumPy ``Generator`` with the same seed is the
oracle: each call form must return the values NumPy returns, and the
generator must be left where NumPy's per-draw calls leave it, including
the 32-bit half NumPy buffers between ``integers`` draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import generators
from repro.corpus.generators import GENERATORS, _PCG64Replay, generate
from repro.corpus.profiles import (
    PROFILES,
    _stable_profile_seed,
    build_filesystem,
    profile_names,
)
from tests.corpus.test_replay import (
    assert_same_after,
    generator_emitting,
    generator_pair,
    reference_english_text,
    reference_wordproc,
    seeds,
)

#: 2**31 + 1 rejects about half of its 32-bit words; 48 rejects 16 words
#: in 2**32; the powers of two reject none.
RANGES = [1, 2, 48, 64, 256, 2**31 + 1]

OPCODES = np.arange(24, dtype=np.uint8)
WEIGHTS = generators._OPCODE_WEIGHTS


def same(replayed, expected):
    """Equal values of the same type: scalars, or arrays of one dtype."""
    if isinstance(expected, np.ndarray):
        assert isinstance(replayed, np.ndarray)
        assert replayed.dtype == expected.dtype
        assert replayed.shape == expected.shape
        assert (replayed == expected).all()
    else:
        assert not isinstance(replayed, np.ndarray)
        assert replayed == expected


sizes = st.integers(0, 300)
calls = st.one_of(
    st.tuples(st.just("random"), st.none(), st.none(), st.none()),
    st.tuples(st.just("random"), st.none(), st.none(), sizes),
    st.tuples(st.just("integers"), st.sampled_from(RANGES),
              st.integers(-3, 5), st.none()),
    st.tuples(st.just("integers"), st.sampled_from(RANGES),
              st.integers(-3, 5), sizes),
    st.tuples(st.just("integers(n)"), st.sampled_from(RANGES), st.none(),
              st.none()),
    st.tuples(st.just("choice"), st.none(), st.none(), sizes),
)


def call(rng, plan):
    name, n, low, size = plan
    if name == "random":
        return rng.random() if size is None else rng.random(size)
    if name == "integers(n)":
        return rng.integers(n)
    if name == "choice":
        return rng.choice(OPCODES, size=size, p=WEIGHTS)
    if size is None:
        return rng.integers(low, low + n)
    return rng.integers(low, low + n, size=size)


class TestCallForms:
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, plans=st.lists(calls, max_size=40),
           buffered=st.booleans())
    def test_interleaved_calls_then_rewind(self, seed, plans, buffered):
        replayed, reference = generator_pair(seed, buffered)
        replay = _PCG64Replay(replayed)
        for plan in plans:
            same(call(replay, plan), call(reference, plan))
        replay.rewind()
        assert_same_after(replayed, reference)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, size=st.integers(1_000, 5_000), buffered=st.booleans())
    def test_draws_longer_than_a_block(self, seed, size, buffered):
        # Bulk draws past the block's end come straight from the
        # generator; a scalar draw between them lists a short block.
        replayed, reference = generator_pair(seed, buffered)
        replay = _PCG64Replay(replayed)
        for plan in [("random", None, None, size), ("integers", 3, 0, None),
                     ("integers", 256, 0, size), ("random", None, None, None),
                     ("integers", 2**31 + 1, 0, size),
                     ("choice", None, None, size), ("integers", 48, 1, 7)]:
            same(np.asarray(call(replay, plan)),
                 np.asarray(call(reference, plan)))
        replay.rewind()
        assert_same_after(replayed, reference)

    def test_rejection_inside_a_bulk_draw(self):
        # Craft the next raw output: its low word, 0, is the bulk draw's
        # first word, which Lemire rejects for n = 48 (0 * 48 < 16).
        assert (2**32 - 48) % 48 == 16
        for raw in (0, 5 << 32):  # the rejected word, then a good one
            replayed, reference = generator_emitting(raw), generator_emitting(raw)
            replay = _PCG64Replay(replayed)
            values = replay.integers(0, 48, size=40)
            same(values, reference.integers(0, 48, size=40))
            replay.rewind()
            assert_same_after(replayed, reference)

    @pytest.mark.parametrize("bad", [
        lambda r: r.integers(0, 2**32 + 1),
        lambda r: r.integers(5, 5),
        lambda r: r.integers(0, 10, size=(2, 3)),
        lambda r: r.integers(0, 10, size=-1),
        lambda r: r.integers(0, 10, dtype=np.uint8),
        lambda r: r.integers(0.5, 10),
        lambda r: r.random(size=(2, 2)),
        lambda r: r.choice(OPCODES, size=4),
        lambda r: r.choice(OPCODES, size=4, p=WEIGHTS, replace=False),
        lambda r: r.choice(OPCODES, size=4, p=WEIGHTS[:-1]),
        lambda r: r.choice(24, size=4, p=WEIGHTS),
    ], ids=["wide-range", "empty-range", "shape", "negative-size", "dtype",
            "float-bound", "random-shape", "choice-unweighted",
            "choice-no-replace", "choice-short-p", "choice-int"])
    def test_call_forms_it_does_not_reproduce_raise(self, bad):
        with pytest.raises((TypeError, ValueError)):
            bad(_PCG64Replay(np.random.default_rng(1)))


def per_draw(kind):
    """The per-draw oracle: NumPy calls, and english through its loop."""
    return {"english": reference_english_text,
            "wordproc": reference_wordproc}.get(kind, GENERATORS[kind])


@pytest.mark.parametrize("kind", sorted(GENERATORS))
class TestGenerate:
    def test_leaves_a_pcg64_generator_where_per_draw_calls_do(self, kind):
        for seed, buffered in ((11, False), (12, True)):
            replayed, reference = generator_pair(seed, buffered)
            assert generate(kind, 4096, replayed) == per_draw(kind)(
                reference, 4096
            )
            assert_same_after(replayed, reference)

    def test_other_bit_generators_pass_through(self, kind):
        rng, untouched = (np.random.Generator(np.random.MT19937(5))
                          for _ in range(2))
        if kind in ("english", "wordproc"):  # wordproc writes english text
            with pytest.raises(TypeError, match="PCG64"):
                generate(kind, 4096, rng)
            return
        assert generate(kind, 4096, rng) == GENERATORS[kind](untouched, 4096)
        state, expected = (g.bit_generator.state["state"] for g in (rng, untouched))
        assert (state["key"] == expected["key"]).all()
        assert state["pos"] == expected["pos"]


def bare_build(name, total_bytes, seed):
    """``build_filesystem`` with every generator given the bare Generator."""
    profile = PROFILES[name]
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _stable_profile_seed(profile.name)])
    )
    kinds = sorted(profile.mix)
    weights = np.array([profile.mix[k] for k in kinds], dtype=np.float64)
    low, high = profile.size_range
    files = []
    for kind, budget in zip(kinds, weights / weights.sum() * total_bytes):
        produced = 0
        while produced < budget:
            size = int(rng.integers(low, high))
            size = max(512, min(size, int(budget) - produced + 512))
            data = GENERATORS[kind](rng, size)
            files.append(("%s/file%04d.%s" % (name, len(files), kind), data))
            produced += len(data)
    return files


@pytest.mark.parametrize("name", profile_names())
def test_one_replay_builds_what_the_bare_generator_builds(name):
    fs = build_filesystem(name, 200_000, 3)
    assert [(f.name, f.data) for f in fs] == bare_build(name, 200_000, 3)
