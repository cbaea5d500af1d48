"""Generators for the file families the paper's filesystems contain.

Each generator is a function ``(rng, size) -> bytes`` taking a draw
source and a byte count.  The families deliberately reproduce the data
properties the paper identifies as driving checksum behaviour -- see
the module docstring of :mod:`repro.corpus`.

The generators make NumPy ``Generator`` calls: ``random()``,
``random(n)``, ``integers(low, high)``, ``integers(low, high, size=n)``
and ``choice(a, size, p)``.  They accept a bare ``Generator``, which the
tests use as the per-draw oracle, but the corpus hands them a
:class:`_PCG64Replay`: one replay of a PCG64 stream that answers those
calls from bulk ``random_raw`` blocks, decoding each draw exactly as
NumPy does, without NumPy's per-call cost.  ``build_filesystem`` makes
one replay per filesystem and :func:`generate` one per call, rewinding
the caller's generator on return, so the bytes, and the generator state
left for the next file, equal those of per-draw calls.  Other bit
generators pass through :func:`generate` unreplayed, except to
:func:`english_text` (which :func:`wordproc` also calls): it draws once
or twice per character, inlines the replay's common case, and raises
``TypeError`` for a generator that is not PCG64-backed (what
``default_rng`` returns).
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["GENERATORS", "generate"]


# ---------------------------------------------------------------------------
# English-like text (Markov chain over an embedded seed passage)
# ---------------------------------------------------------------------------

_SEED_TEXT = """\
The behaviour of checksum and cyclic redundancy check algorithms has
historically been studied under the assumption that the data fed to the
algorithms was uniformly distributed. In the real world, communications
data is rarely random. Much of the data is character data, which has a
distinct skew towards certain values, and binary data has a similarly
non random distribution of values, such as a propensity to contain long
runs of zeros. When a file system is measured over many millions of
packets, the distribution of checksum values over small cells of data
shows sharp hotspots, and the most common value occurs far more often
than a uniform model would suggest. The sum of a set of sixteen bit
values is the same regardless of the order in which the values appear,
and this is precisely the weakness that a packet splice probes. If the
replacement cells carry the same sum as the cells that were dropped,
the checksum cannot see the difference, and the corrupted packet is
delivered to the application as if nothing had happened on the wire.
"""

_MARKOV_ORDER = 2
_MARKOV_MODEL = None
_MARKOV_ROWS = None

_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1
_REPLAY_BLOCK = 1024
_NO_RAWS = np.empty(0, dtype=np.uint64)
#: ``random()`` is ``(raw >> 11) * _TO_UNIT``.
_TO_UNIT = 2.0**-53
#: ``integers(..., size=n)`` draws up to this many values one at a time,
#: which costs less than the vectorized decode's fixed NumPy calls.
_SCALAR_BULK = 4
#: A raw output, and the 32-bit words it holds (low half first).
_RAW_DTYPE = np.dtype("<u8")
_WORD_DTYPE = np.dtype("<u4")
#: ``rng.random() < 0.002`` on a raw output ``raw``: ``random()`` is
#: ``(raw >> 11) * 2**-53``, so the test is ``raw >> 11 < 0.002 * 2**53``,
#: i.e. ``raw < _REPEAT_RAW``.
_REPEAT_RAW = math.ceil(0.002 * 2**53) << 11


def _markov_model():
    """Order-2 character Markov model over the embedded seed passage."""
    global _MARKOV_MODEL
    if _MARKOV_MODEL is None:
        text = _SEED_TEXT
        model = {}
        for i in range(len(text) - _MARKOV_ORDER):
            state = text[i : i + _MARKOV_ORDER]
            model.setdefault(state, []).append(text[i + _MARKOV_ORDER])
        _MARKOV_MODEL = {state: "".join(chars) for state, chars in model.items()}
    return _MARKOV_MODEL


def _markov_rows():
    """``(names, rows)``: the model as a transition table over state ids.

    Ids ``0 .. len(model) - 1`` are the model's states in ``list(model)``
    order, which the start and restart draws index.  A successor that
    is not a key of the model (it only ends the seed passage) gets a
    later id and an empty row.  ``rows[id]`` is ``[n, chars,
    successors, threshold]``: the ``n`` possible next characters, the
    row each one leads to, and Lemire's rejection threshold ``(2**32 -
    n) % n`` for ``integers(n)``.
    """
    global _MARKOV_ROWS
    if _MARKOV_ROWS is None:
        model = _markov_model()
        names = list(model)
        ids = {name: i for i, name in enumerate(names)}
        rows = []
        for name in names:  # grows as dead-end successors get ids
            chars = model.get(name, "")
            successors = []
            for char in chars:
                successor = name[1:] + char
                if successor not in ids:
                    ids[successor] = len(names)
                    names.append(successor)
                successors.append(ids[successor])
            n = len(chars)
            threshold = (_TWO32 - n) % n if n else 0
            rows.append([n, chars, successors, threshold])
        for row in rows:  # successor ids -> rows, once every row exists
            row[2] = tuple(rows[i] for i in row[2])
        _MARKOV_ROWS = (names, rows)
    return _MARKOV_ROWS


def _count(size):
    """A ``size`` argument as a number of draws."""
    size = operator.index(size)  # a shape tuple raises here
    if size < 0:
        raise ValueError("negative size: %d" % size)
    return size


class _PCG64Replay:
    """The draws of a PCG64 ``Generator``, replayed from bulk raw words.

    Raw 64-bit outputs come from ``random_raw`` in blocks of at most
    ``_REPLAY_BLOCK`` words and are decoded exactly as NumPy decodes
    them: ``random()`` is ``(raw >> 11) * 2**-53``, and ``integers(low,
    high)`` is ``low`` plus Lemire's rejection over 32-bit words -- the
    high half buffered by the previous 32-bit draw, else the low half of
    a fresh raw whose high half is then buffered.  ``random(n)``,
    ``integers(low, high, size=n)`` and ``choice(a, size, p)`` (NumPy's
    cdf search over ``random(n)``) decode a slice of the block at once,
    and what lies past the block straight from the generator; a word
    Lemire rejects is skipped, as his loop skips it.  Any other call
    form, or a range wider than ``2**32``, raises instead of drawing
    differently.

    The generator runs ahead by up to a block meanwhile; :meth:`rewind`
    puts it exactly where per-draw calls would have left it.
    :func:`english_text` inlines the common case of :meth:`raw` and
    :meth:`integers` on the public slots: a method call per draw made
    its loop about 30% slower.
    """

    # raws[pos:] are the block's unread outputs (``_block`` holds the
    # same words as an array); has32 and half mirror PCG64's has_uint32
    # and uinteger (the buffered high half).  _spent counts the outputs
    # drawn before the block, and _block_size is the next block's size.
    __slots__ = ("raws", "pos", "has32", "half", "_block", "_block_size",
                 "_rng", "_bg", "_saved", "_spent")

    def __init__(self, rng):
        bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise TypeError(
                "the corpus replays a PCG64 stream; got a %s-backed generator"
                % type(bg).__name__
            )
        self._rng = rng
        self._bg = bg
        self._saved = bg.state
        self.has32 = self._saved["has_uint32"]
        self.half = self._saved["uinteger"]
        self.raws = []
        self._block = _NO_RAWS
        self._block_size = 1
        self.pos = 0
        self._spent = 0

    def refill(self):
        """Replace the exhausted block with the next one."""
        self._spent += len(self.raws)
        self._block = self._bg.random_raw(self._block_size)
        self.raws = self._block.tolist()
        self.pos = 0
        self._block_size = min(2 * self._block_size, _REPLAY_BLOCK)

    def raw(self):
        """The next raw 64-bit output; ``random()`` is ``(raw >> 11) * 2**-53``."""
        if self.pos == len(self.raws):
            self.refill()
        self.pos += 1
        return self.raws[self.pos - 1]

    def random(self, size=None):
        """``Generator.random()``, or ``random(size)`` as a float64 array."""
        if size is None:
            if self.pos == len(self.raws):
                self.refill()
            self.pos += 1
            return (self.raws[self.pos - 1] >> 11) * _TO_UNIT
        size = _count(size)
        head = min(size, len(self.raws) - self.pos)
        if head == size:
            return (self._raw_array(size) >> 11) * _TO_UNIT
        # The generator stands at the block's end, so it decodes the
        # rest itself: random() reads no buffered half.
        if head:
            out = np.empty(size)
            out[:head] = (self._raw_array(head) >> 11) * _TO_UNIT
            self._rng.random(out=out[head:])
        else:
            out = self._rng.random(size)
        self._pass_block(size - head)
        return out

    def integers(self, low, high=None, size=None):
        """``Generator.integers(low, high, size)`` over at most ``2**32`` values."""
        if high is None:
            low, high = 0, low
        n = operator.index(high) - operator.index(low)
        if not 0 < n <= _TWO32:
            raise ValueError(
                "the replay draws integers over 1 to 2**32 values; got %r" % n
            )
        if size is not None:
            size = _count(size)
            if n == 1:
                return np.full(size, low, dtype=np.int64)
            values = self._integers_array(n, size)
            if low:
                values += low
            return values
        if n == 1:
            return low
        threshold = (_TWO32 - n) % n
        while True:
            if self.has32:
                self.has32 = 0
                word = self.half
            else:
                if self.pos == len(self.raws):
                    self.refill()
                raw = self.raws[self.pos]
                self.pos += 1
                self.has32, self.half = 1, raw >> 32
                word = raw & _MASK32
            m = word * n
            if m & _MASK32 >= threshold:
                return low + (m >> 32)

    def choice(self, a, size, p):
        """``Generator.choice(a, size, p=p)`` over a 1-D ``a``, with replacement."""
        a = np.asarray(a)
        if p is None or a.ndim != 1 or len(p) != len(a):
            raise TypeError("the replay draws choice(a, size, p) over a 1-D a only")
        # NumPy's weighted draw: the normalized cdf, searched by random().
        cdf = np.asarray(p, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        return a[cdf.searchsorted(self.random(size), side="right")]

    def rewind(self):
        """Leave the generator where per-draw calls would have left it."""
        bg = self._bg
        if self.pos < len(self.raws):  # it ran ahead: step it back
            bg.state = self._saved
            bg.advance(self._spent + self.pos)
        state = bg.state
        state["has_uint32"], state["uinteger"] = self.has32, self.half
        bg.state = state

    def _raw_array(self, count):
        """The next ``count`` raw outputs, as a uint64 array."""
        start, stop = self.pos, self.pos + count
        if stop <= len(self.raws):
            self.pos = stop
            return self._block[start:stop]
        fresh = stop - len(self.raws)
        head = self._block[start:]
        self._pass_block(fresh)
        if not len(head):
            return self._bg.random_raw(fresh)
        return np.concatenate((head, self._bg.random_raw(fresh)))

    def _pass_block(self, fresh):
        """Count the block spent and ``fresh`` outputs drawn past its end."""
        self._spent += len(self.raws) + fresh
        self.raws, self._block, self.pos = [], _NO_RAWS, 0
        if fresh > _REPLAY_BLOCK:
            # A long bulk draw: the next scalar draw lists one output,
            # not a block that the next bulk draw may skip.  Each refill
            # doubles the block again.
            self._block_size = 1

    def _integers_array(self, n, size):
        """``size`` draws of ``integers(n)``, decoded a slice of words at a time."""
        out = np.empty(size, dtype=np.int64)
        threshold = (_TWO32 - n) % n
        filled = 0
        while filled < size:
            count = size - filled
            if self.has32 or count <= _SCALAR_BULK:
                # The buffered half, or a short tail: one draw at a time.
                out[filled] = self.integers(n)
                filled += 1
                continue
            raws = self._raw_array((count + 1) // 2)
            # A raw output is two words, its low half first: its
            # little-endian 32-bit view.  An odd count leaves the last
            # high half buffered; NumPy keeps it even once it is drawn.
            self.has32, self.half = count & 1, int(raws[-1]) >> 32
            words = raws.astype(_RAW_DTYPE, copy=False).view(_WORD_DTYPE)[:count]
            if not threshold:  # n is a power of two: (word * n) >> 32 is a shift
                np.right_shift(words, 33 - n.bit_length(), out=out[filled:])
                break
            m = np.multiply(words, n, dtype=np.uint64)
            m = m[m & _MASK32 >= threshold]  # Lemire rejects these words
            np.right_shift(m, 32, out=out[filled : filled + len(m)])
            filled += len(m)
        return out


_BOILERPLATE = (
    "This document is part of the measurement corpus. Redistribution and\n"
    "use in source and binary forms, with or without modification, are\n"
    "permitted provided that the above notice and this paragraph are\n"
    "duplicated in all such forms and that any documentation and other\n"
    "materials related to such distribution and use acknowledge the work.\n\n"
)


def english_text(rng, size):
    """English-like prose with realistic letter skew and correlation.

    Files open with a shared boilerplate paragraph (as README/licence
    headers do on real filesystems) and occasionally repeat an earlier
    sentence verbatim, reproducing the block-level self-similarity the
    paper's locality analysis depends on.

    ``rng`` is a :class:`_PCG64Replay`, which is drawn from and left
    where the draws end, or a PCG64 ``Generator``, which is replayed and
    rewound on return; bytes and the final state equal those of calling
    ``rng.random()`` and ``rng.integers(n)`` once per draw.
    """
    names, rows = _markov_rows()
    n_states = len(_markov_model())
    replay = rng if type(rng) is _PCG64Replay else _PCG64Replay(rng)
    out = [_BOILERPLATE]
    produced = len(_BOILERPLATE)
    sentences = []
    start = replay.integers(n_states)
    current = [names[start]]
    produced += _MARKOV_ORDER
    state = rows[start]
    repeat_raw, mask = _REPEAT_RAW, _MASK32
    # The replay's block, position and buffered half live in locals; a
    # draw through the replay itself stores them first and reloads them.
    raws, pos, has32, half = replay.raws, replay.pos, replay.has32, replay.half
    end = len(raws)
    while produced < size:
        # Each pass adds one character; a sentence repeat ends the loop
        # early, having added i characters.
        for i in range(size - produced):
            if sentences:
                # rng.random() < 0.002, on the raw word.
                if pos == end:
                    replay.refill()
                    raws, pos, end = replay.raws, 0, len(replay.raws)
                raw = raws[pos]
                pos += 1
                if raw < repeat_raw:
                    replay.pos, replay.has32, replay.half = pos, has32, half
                    repeat = sentences[replay.integers(len(sentences))]
                    raws, pos, has32, half = replay.raws, replay.pos, replay.has32, replay.half
                    end = len(raws)
                    out.append("".join(current))
                    current = []
                    out.append(repeat)
                    produced += i + len(repeat)
                    break
            n, chars, successors, threshold = state
            if n < 2:
                if not n:  # a dead end: restart from a random state
                    replay.pos, replay.has32, replay.half = pos, has32, half
                    state = rows[replay.integers(n_states)]
                    raws, pos, has32, half = replay.raws, replay.pos, replay.has32, replay.half
                    end = len(raws)
                    current.append(" ")
                    continue
                k = 0
            else:
                # integers(n): its first word inline, any rejection
                # redrawn by the replay.
                if has32:
                    has32 = 0
                    m = half * n
                else:
                    if pos == end:
                        replay.refill()
                        raws, pos, end = replay.raws, 0, len(replay.raws)
                    raw = raws[pos]
                    pos += 1
                    has32, half = 1, raw >> 32
                    m = (raw & mask) * n
                if m & mask >= threshold:
                    k = m >> 32
                else:
                    replay.pos, replay.has32, replay.half = pos, has32, half
                    k = replay.integers(n)
                    raws, pos, has32, half = replay.raws, replay.pos, replay.has32, replay.half
                    end = len(raws)
            char = chars[k]
            current.append(char)
            state = successors[k]
            if char == "." and len(current) > 40:
                sentence = "".join(current)
                if len(sentences) < 32:
                    sentences.append(sentence)
                out.append(sentence)
                current = []
        else:
            break
    out.append("".join(current))
    replay.pos, replay.has32, replay.half = pos, has32, half
    if replay is not rng:
        replay.rewind()
    return "".join(out).encode("ascii")[:size]


# ---------------------------------------------------------------------------
# C source code (templated, heavy on repeated idioms and indentation)
# ---------------------------------------------------------------------------

_C_HEADERS = [
    "#include <stdio.h>\n",
    "#include <stdlib.h>\n",
    "#include <string.h>\n",
    "#include <sys/types.h>\n",
    '#include "config.h"\n',
]

_C_FUNCTIONS = [
    "static int %(name)s_init(struct %(name)s *sp)\n{\n"
    "\tint i;\n\n\tif (sp == NULL)\n\t\treturn (-1);\n"
    "\tfor (i = 0; i < %(n)d; i++)\n\t\tsp->slots[i] = 0;\n"
    "\tsp->count = 0;\n\treturn (0);\n}\n\n",
    "int %(name)s_insert(struct %(name)s *sp, int value)\n{\n"
    "\tif (sp->count >= %(n)d) {\n\t\terrno = ENOSPC;\n\t\treturn (-1);\n\t}\n"
    "\tsp->slots[sp->count++] = value;\n\treturn (0);\n}\n\n",
    "static void %(name)s_dump(const struct %(name)s *sp, FILE *fp)\n{\n"
    "\tint i;\n\n\tfor (i = 0; i < sp->count; i++)\n"
    '\t\tfprintf(fp, "%%d: %%d\\n", i, sp->slots[i]);\n}\n\n',
    "struct %(name)s {\n\tint count;\n\tint slots[%(n)d];\n};\n\n",
]

_C_NAMES = ["table", "queue", "cache", "ring", "pool", "hash", "list", "heap"]


_C_LICENSE = (
    "/*\n * Copyright (c) 1990, 1993\n"
    " *\tThe Regents of the University. All rights reserved.\n"
    " *\n * Redistribution and use in source and binary forms, with or\n"
    " * without modification, are permitted provided that the following\n"
    " * conditions are met: see the accompanying file LICENSE.\n */\n\n"
)


def c_source(rng, size):
    """C source: repeated idioms, tabs, and a small identifier pool.

    Every file opens with the same licence banner and functions repeat
    verbatim within a file (as generated accessors and copied idioms do
    in real trees), giving the strong local self-similarity the paper
    measures on the SICS source volumes.
    """
    parts = [_C_LICENSE]
    parts += [_C_HEADERS[i] for i in range(int(rng.integers(2, len(_C_HEADERS))))]
    parts.append("\n")
    produced = sum(len(p) for p in parts)
    emitted = []
    while produced < size:
        if emitted and rng.random() < 0.25:
            chunk = emitted[int(rng.integers(len(emitted)))]
        else:
            name = _C_NAMES[rng.integers(len(_C_NAMES))]
            template = _C_FUNCTIONS[rng.integers(len(_C_FUNCTIONS))]
            chunk = template % {"name": name, "n": int(rng.integers(8, 128))}
            if len(emitted) < 16:
                emitted.append(chunk)
        parts.append(chunk)
        produced += len(chunk)
    return "".join(parts).encode("ascii")[:size]


# ---------------------------------------------------------------------------
# Executables (ELF-like: skewed opcode bytes, zero runs, string tables)
# ---------------------------------------------------------------------------

_OPCODES = np.array(
    [0x00, 0x48, 0x89, 0x8B, 0xE8, 0xFF, 0x0F, 0x83, 0x85, 0xC3, 0x55, 0x5D,
     0x90, 0x74, 0x75, 0xEB, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80],
    dtype=np.uint8,
)
_OPCODE_WEIGHTS = np.array(
    [20, 12, 10, 8, 5, 5, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1],
    dtype=np.float64,
)
_OPCODE_WEIGHTS /= _OPCODE_WEIGHTS.sum()

_SYMBOL_PREFIXES = [b"_init", b"_fini", b"main", b"malloc", b"memcpy",
                    b"printf", b"strlen", b"sys_", b"lib_", b"do_"]


def executable(rng, size):
    """Executable-like binary: code, zero-padded sections, strings."""
    parts = [b"\x7fELF\x02\x01\x01\x00" + bytes(8)]
    produced = len(parts[0])
    while produced < size:
        section = rng.random()
        if section < 0.55:  # machine-code-like bytes
            n = int(rng.integers(256, 4096))
            code = rng.choice(_OPCODES, size=n, p=_OPCODE_WEIGHTS)
            chunk = code.tobytes()
        elif section < 0.70:  # bss / page-alignment zero run
            chunk = bytes(int(rng.integers(128, 1024)))
        else:  # string table with repeated prefixes
            names = []
            for _ in range(int(rng.integers(8, 64))):
                prefix = _SYMBOL_PREFIXES[rng.integers(len(_SYMBOL_PREFIXES))]
                names.append(prefix + b"%d" % int(rng.integers(1000)) + b"\x00")
            chunk = b"".join(names)
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


# ---------------------------------------------------------------------------
# PBM/PGM black-and-white plots (Section 5.5's Fletcher-255 killer)
# ---------------------------------------------------------------------------

def pbm_plot(rng, size):
    """8-bit greymap plots whose bytes are all 0 or 255.

    Mimics the Stanford directory of RTT measurement graphs: a white
    (255) background with black (0) axes and a black measurement trace.
    Every data byte is 0 or 255, the pattern that defeats the mod-255
    Fletcher sum outright.
    """
    width = 256
    height = max(4, -(-(size - 16) // width))
    header = b"P5\n%d %d\n255\n" % (width, height)
    raster = np.full((height, width), 255, dtype=np.uint8)
    raster[:, 16] = 0  # y axis
    if height > 16:
        raster[height - 16, :] = 0  # x axis
    # A bounded random-walk trace.
    level = int(rng.integers(height // 4, 3 * height // 4)) if height > 4 else 0
    for x in range(width):
        level = int(np.clip(level + rng.integers(-2, 3), 0, height - 1))
        raster[level, x] = 0
    data = header + raster.tobytes()
    if len(data) < size:  # tiny sizes where the header dominates
        data += b"\xff" * (size - len(data))
    return data[:size]


# ---------------------------------------------------------------------------
# Hex-encoded PostScript bitmaps (Section 5.5's F-256 and TCP killer)
# ---------------------------------------------------------------------------

def hex_postscript(rng, size):
    """ASCII-hex bitmap data with power-of-two line widths.

    Each encoded line is ``2 * width`` hex digits plus a newline, so
    near-identical lines repeat exactly ``2 * width + 1`` bytes apart --
    the periodicity the paper isolates in font and solid-colour bitmaps.
    """
    width = int(2 ** rng.integers(5, 8))  # 32, 64, or 128 bytes per row
    header = b"%!PS-Adobe-2.0\n/picstr 256 string def\nimage\n"
    base_row = bytearray(b"FF" * width)
    # A couple of fixed blemishes, as in repeated glyph rows.
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(width)) * 2
        base_row[pos : pos + 2] = b"F7"
    rows = [header]
    produced = len(header)
    while produced < size:
        if rng.random() < 0.1:  # occasionally a different row
            row = bytearray(base_row)
            pos = int(rng.integers(width)) * 2
            row[pos : pos + 2] = b"00"
        else:
            row = base_row
        chunk = bytes(row) + b"\n"
        rows.append(chunk)
        produced += len(chunk)
    return b"".join(rows)[:size]


# ---------------------------------------------------------------------------
# BinHex-style encodings (64-byte lines)
# ---------------------------------------------------------------------------

_BINHEX_ALPHABET = (
    b"!\"#$%&'()*+,-012345689@ABCDEFGHIJKLMNPQRSTUVXYZ[`abcdefhijklmpqr"
)


def binhex_like(rng, size):
    """BinHex-style text: very similar 64-character lines."""
    header = b"(This file must be converted with BinHex 4.0)\n:"
    line = bytes(
        np.asarray(memoryview(_BINHEX_ALPHABET), dtype=np.uint8)[
            rng.integers(0, len(_BINHEX_ALPHABET), size=64)
        ]
    )
    parts = [header]
    produced = len(header)
    while produced < size:
        row = bytearray(line)
        for _ in range(int(rng.integers(0, 3))):  # small per-line variation
            row[int(rng.integers(64))] = _BINHEX_ALPHABET[
                int(rng.integers(len(_BINHEX_ALPHABET)))
            ]
        chunk = bytes(row) + b"\n"
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


# ---------------------------------------------------------------------------
# gmon.out-style sparse profiles (Section 5.5's TCP killer)
# ---------------------------------------------------------------------------

def gmon_profile(rng, size):
    """Profiling data: mostly zero counters, sparse identical values.

    Packetizing this yields very few distinct checksums, so a large
    fraction of splices pass the Internet checksum.
    """
    entries = np.zeros(max(1, size // 2), dtype=">u2")
    hot = rng.random(entries.size) < 0.02
    values = np.asarray([1, 1, 1, 2, 2, 3, 5, 17], dtype=">u2")
    entries[hot] = values[rng.integers(0, len(values), size=int(hot.sum()))]
    header = b"gmon\x00\x01\x00\x00"
    return (header + entries.tobytes())[:size]


# ---------------------------------------------------------------------------
# Word-processor documents with 0x00 / 0xFF run separators
# ---------------------------------------------------------------------------

def wordproc(rng, size):
    """Document sections separated by ~200-byte runs of 0x00 then 0xFF."""
    parts = []
    produced = 0
    while produced < size:
        text = english_text(rng, int(rng.integers(400, 1200)))
        zeros = bytes(int(rng.integers(150, 250)))
        ones = b"\xff" * int(rng.integers(150, 250))
        chunk = text + zeros + ones
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


# ---------------------------------------------------------------------------
# Zero-heavy data and controls
# ---------------------------------------------------------------------------

def zero_heavy(rng, size):
    """Sparse binary data: zero blocks with occasional records.

    Models the UNIX-filesystem optimisation the paper notes: wholly
    zero blocks are never written to disk, so sparse files read back
    as long zero runs.
    """
    parts = []
    produced = 0
    while produced < size:
        if rng.random() < 0.45:
            chunk = bytes(int(rng.integers(192, 1024)))
        else:
            chunk = rng.integers(0, 256, size=int(rng.integers(32, 256))).astype(
                np.uint8
            ).tobytes()
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


def record_table(rng, size):
    """Fixed-size binary records with field-swapped near-duplicates.

    Databases, index files and araay dumps repeat a record layout with
    most bytes identical across rows; reordered rows and swapped
    fields produce cells whose bytes differ but whose 16-bit word
    *sums* agree -- the order-independence of the Internet checksum
    made flesh, and a major source of congruent-but-unequal cells.
    """
    record_len = 96  # two cells, keeping records cell-aligned
    words = rng.integers(0, 256, size=record_len).astype(np.uint8)
    base = words.reshape(-1, 2)
    parts = [b"IDX1" + bytes(44)]  # header padding to a cell boundary
    produced = len(parts[0])
    while produced < size:
        record = base.copy()
        roll = rng.random()
        if roll < 0.4:
            # Swap two 16-bit fields: different bytes, same checksum.
            i, j = rng.integers(0, record.shape[0], size=2)
            record[[i, j]] = record[[j, i]]
        elif roll < 0.6:
            # Update a counter field: a genuinely different record.
            pos = int(rng.integers(record.shape[0]))
            record[pos] = rng.integers(0, 256, size=2)
        chunk = record.tobytes()
        parts.append(chunk)
        produced += len(chunk)
    return b"".join(parts)[:size]


def log_text(rng, size):
    """Syslog-style lines: long shared prefixes, small varying fields."""
    hosts = [b"gw0", b"gw1", b"fafner", b"smeg", b"pompano"]
    parts = []
    produced = 0
    tick = 0
    while produced < size:
        tick += int(rng.integers(1, 30))
        host = hosts[int(rng.integers(len(hosts)))]
        line = b"Jul  7 04:%02d:%02d %s kernel: le0: RTT %d ms, window %d\n" % (
            (tick // 60) % 60,
            tick % 60,
            host,
            int(rng.integers(1, 400)),
            int(rng.integers(512, 32768)),
        )
        parts.append(line)
        produced += len(line)
    return b"".join(parts)[:size]


def uniform_random(rng, size):
    """Uniformly random bytes (the classical analyses' assumption)."""
    return rng.integers(0, 256, size=size).astype(np.uint8).tobytes()


GENERATORS = {
    "english": english_text,
    "c-source": c_source,
    "executable": executable,
    "pbm-plot": pbm_plot,
    "hex-postscript": hex_postscript,
    "binhex": binhex_like,
    "gmon": gmon_profile,
    "wordproc": wordproc,
    "zero-heavy": zero_heavy,
    "records": record_table,
    "log": log_text,
    "uniform": uniform_random,
}


def generate(kind, size, rng):
    """Generate ``size`` bytes of the named file family."""
    if kind not in GENERATORS:
        raise KeyError(
            "unknown generator %r; available: %s" % (kind, ", ".join(sorted(GENERATORS)))
        )
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if type(rng.bit_generator) is not np.random.PCG64:
        return GENERATORS[kind](rng, int(size))
    replay = _PCG64Replay(rng)
    data = GENERATORS[kind](replay, int(size))
    replay.rewind()
    return data
