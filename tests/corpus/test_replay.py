"""english_text's PCG64 replay against per-draw NumPy calls.

``reference_english_text`` is the generator as it was written before
the replay: one ``rng.random()`` / ``rng.integers(n)`` call per draw.
The replay must match it byte for byte and leave the generator in the
same state, including the 32-bit half NumPy buffers between draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import generators
from repro.corpus.generators import _BOILERPLATE, _PCG64Replay, english_text, wordproc

N_STATES = len(generators._markov_model())


def reference_english_text(rng, size):
    """english_text with one NumPy call per draw (the replay's oracle)."""
    model = generators._markov_model()
    states = list(model)
    out = [_BOILERPLATE]
    produced = len(_BOILERPLATE)
    sentences = []
    current = []
    state = states[rng.integers(len(states))]
    current.append(state)
    produced += generators._MARKOV_ORDER
    while produced < size:
        if sentences and rng.random() < 0.002:
            repeat = sentences[int(rng.integers(len(sentences)))]
            out.append("".join(current))
            current = []
            out.append(repeat)
            produced += len(repeat)
            continue
        choices = model.get(state)
        if not choices:
            state = states[rng.integers(len(states))]
            current.append(" ")
            produced += 1
            continue
        char = choices[rng.integers(len(choices))]
        current.append(char)
        produced += 1
        state = state[1:] + char
        if char == "." and len(current) > 40:
            sentence = "".join(current)
            if len(sentences) < 32:
                sentences.append(sentence)
            out.append(sentence)
            current = []
    out.append("".join(current))
    return "".join(out).encode("ascii")[:size]


def reference_wordproc(rng, size):
    """wordproc over the per-draw english_text."""
    parts = []
    produced = 0
    while produced < size:
        text = reference_english_text(rng, int(rng.integers(400, 1200)))
        zeros = bytes(int(rng.integers(150, 250)))
        ones = b"\xff" * int(rng.integers(150, 250))
        chunk = text + zeros + ones
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


def generator_pair(seed, buffered):
    """Two identical generators, optionally holding a buffered 32-bit half."""
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    if buffered:
        for rng in pair:
            rng.integers(5)
        assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341


def generator_emitting(raw):
    """A PCG64 Generator whose next raw output is ``raw``.

    PCG64 steps its 128-bit LCG state, then outputs ``rotr64(high ^ low,
    high >> 58)`` of the new state: fix the new high word, solve for the
    low word, and step the LCG back once.
    """
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    high = 0xF123456789ABCDEF
    rot = high >> 58
    low = ((raw << rot | raw >> (64 - rot)) & (2**64 - 1)) ^ high
    stepped = (high << 64) | low
    state["state"]["state"] = (
        (stepped - state["state"]["inc"]) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    )
    rng.bit_generator.state = state
    return rng


def assert_same_after(replayed, reference):
    assert replayed.bit_generator.state == reference.bit_generator.state
    assert (replayed.integers(1000, size=8)
            == reference.integers(1000, size=8)).all()


seeds = st.integers(0, 2**32 - 1)
text_sizes = st.one_of(
    st.sampled_from([0, 1, len(_BOILERPLATE) - 1, len(_BOILERPLATE),
                     len(_BOILERPLATE) + 1, len(_BOILERPLATE) + 2]),
    st.integers(0, 50_000),
    st.integers(1_000, 50_000),  # past the first raw block
)


class TestEnglishText:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, size=text_sizes, buffered=st.booleans())
    def test_matches_per_draw_calls(self, seed, size, buffered):
        replayed, reference = generator_pair(seed, buffered)
        assert english_text(replayed, size) == reference_english_text(
            reference, size
        )
        assert_same_after(replayed, reference)

    def test_crosses_many_blocks(self):
        # ~150 raw blocks, with sentence repeats and dead-end restarts.
        replayed, reference = generator_pair(20, True)
        assert english_text(replayed, 100_000) == reference_english_text(
            reference, 100_000
        )
        assert_same_after(replayed, reference)


    def test_rejection_in_the_per_character_draw(self):
        # Lemire rejects a word with probability under 27 / 2**32 for
        # the model's n, so seeded runs never reach that branch of the
        # inlined draw.  Craft the first raw output instead: its low half
        # draws a start state with n > 1 choices, n not a power of two,
        # and its high half, 0, is the buffered word the first character
        # then takes -- which Lemire rejects (0 * n < (2**32 - n) % n).
        _, rows = generators._markov_rows()
        start = next(state for state in range(N_STATES)
                     if rows[state][0] > 1 and rows[state][3])
        low = (((start + 1) << 32) - 1) // N_STATES  # accepted, picks start
        assert (low * N_STATES) >> 32 == start
        assert generator_emitting(low).bit_generator.random_raw() == low
        replayed, reference = generator_emitting(low), generator_emitting(low)
        assert english_text(replayed, 2_000) == reference_english_text(
            reference, 2_000
        )
        assert_same_after(replayed, reference)


class TestWordproc:
    # wordproc's own integers(lo, hi) draws share the buffered 32-bit
    # half with the english_text calls between them.
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, size=st.integers(0, 12_000), buffered=st.booleans())
    def test_matches_per_draw_calls(self, seed, size, buffered):
        replayed, reference = generator_pair(seed, buffered)
        assert wordproc(replayed, size) == reference_wordproc(reference, size)
        assert_same_after(replayed, reference)


#: n = 2**31 + 1 rejects about half of its 32-bit words.
BOUNDS = [1, 2, 7, N_STATES, 2**31 + 1]


class TestReplayDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, plan_seed=seeds, length=st.integers(0, 3_000),
           buffered=st.booleans())
    def test_interleaved_draws_then_rewind(self, seed, plan_seed, length,
                                           buffered):
        replayed, reference = generator_pair(seed, buffered)
        replay = _PCG64Replay(replayed)
        plan = np.random.default_rng(plan_seed).integers(
            len(BOUNDS) + 1, size=length
        )
        for op in plan.tolist():
            if op == len(BOUNDS):
                raw = replay.raw()
                value = reference.random()
                assert (raw >> 11) * 2.0**-53 == value
                assert (raw < generators._REPEAT_RAW) == (value < 0.002)
            else:
                n = BOUNDS[op]
                assert replay.integers(n) == reference.integers(n)
        replay.rewind()
        assert_same_after(replayed, reference)

    def test_rejection_consumes_extra_words(self):
        replayed, reference = generator_pair(4, False)
        replay = _PCG64Replay(replayed)
        for _ in range(2_000):
            assert replay.integers(2**31 + 1) == reference.integers(2**31 + 1)
        # 2,000 words, two per raw output, would take 1,000 raws.
        assert replay._spent + replay.pos > 1_500
        replay.rewind()
        assert replayed.bit_generator.state == reference.bit_generator.state

    def test_repeat_threshold_is_exact(self):
        edge = generators._REPEAT_RAW
        for raw in (edge - 2049, edge - 2048, edge - 1, edge, edge + 1,
                    edge + 2047, edge + 2048):
            assert (raw < edge) == ((raw >> 11) * 2.0**-53 < 0.002)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_other_bit_generators_rejected(bit_generator):
    rng, untouched = (np.random.Generator(bit_generator(1)) for _ in range(2))
    with pytest.raises(TypeError, match="PCG64"):
        english_text(rng, 1_000)
    with pytest.raises(TypeError, match="PCG64"):
        generators.generate("english", 1_000, rng)
    assert (rng.integers(1000, size=8) == untouched.integers(1000, size=8)).all()
