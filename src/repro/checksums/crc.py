"""A generic table-driven CRC engine plus GF(2) combine operators.

CRCs are polynomial division over GF(2); everything a CRC register does
to its *state* is linear over GF(2), and the data bytes enter the state
additively.  Concretely, processing a chunk ``X`` from register ``r``
yields

    ``f_X(r) = Z^{|X|}(r)  XOR  c_X``

where ``Z`` is the linear "feed one zero byte" operator and
``c_X = f_X(0)`` is the chunk's image from the zero register.  The
splice engine exploits this: it computes ``c`` once per 48-byte ATM cell
and then evaluates any splice as a fold of cheap ``Z^48`` applications
and XORs -- no byte is ever re-read.  :class:`ZeroFeedOperator`
materialises ``Z^n`` as byte-sliced XOR lookup tables so the fold
vectorizes over millions of splices.

Two kernels do the byte-serial work:

* :meth:`CRCEngine.process` (under ``compute``, ``field`` and
  ``verify``) runs in C through a feed chosen once per spec.  CRC-32
  polynomial ``0x04C11DB7`` goes to :func:`zlib.crc32`; the reflected
  spec directly, the MSB-first AAL5 spec through the bit-reversal
  identity

      ``f(r, X) = rev32(zlib.crc32(rev8(X), rev32(r) ^ M) ^ M)``

  where ``rev8`` reverses the bits of every byte, ``rev32`` those of
  the register and ``M = 0xFFFFFFFF`` undoes zlib's pre- and
  post-complement.  The non-reflected CRC-16 ``0x1021`` goes to
  :func:`binascii.crc_hqx`.  Every other spec folds :meth:`step` over
  the bytes, the loop the conformance tests hold the C feeds to.
* :meth:`CRCEngine.process_cells` computes per-cell images by
  slicing-by-``L``: with per-offset tables ``T_k = Z^k(table)``, the
  image of an ``L``-byte cell ``d_0..d_{L-1}`` from register ``r`` is

      ``Z^L(r) XOR T_{L-1}[d_0] XOR ... XOR T_0[d_{L-1}]``

  one gather over every byte of every row at once (the ``L`` tables
  laid end to end) and one XOR reduction.  The tables are grown one
  ``Z^1`` step at a time in a per-polynomial cache whose first eight
  rows are also the slicing-by-8 tables of
  :meth:`CRCEngine.compute_many`.

NumPy serves these vector forms and the zero-feed tables, imported
where they run: an engine whose caller only computes, frames and
verifies (the store's integrity trailers, the receiver's frame check)
never loads it.

The specific CRCs the paper relies on are provided as specs:

* :data:`CRC32_AAL5` -- the AAL5 CPCS CRC-32 (the non-reflected,
  complemented CRC-32 used when bits go on the wire MSB-first).
* :data:`CRC16_CCITT`, :data:`CRC16_ARC` -- observable-rate stand-ins
  used to verify the "CRC behaves like the uniform prediction" claim at
  simulation scale.
* :data:`CRC10_ATM` -- the ATM OAM CRC-10.
"""

from __future__ import annotations

import binascii
import zlib
from dataclasses import dataclass

from repro.checksums.batch import block_matrix

__all__ = [
    "CRC10_ATM",
    "CRC32C",
    "CRC16_ARC",
    "CRC16_CCITT",
    "CRC32_AAL5",
    "CRCEngine",
    "CRCSpec",
    "ZeroFeedOperator",
    "reflect_bits",
]


def reflect_bits(value, width):
    """Reverse the low ``width`` bits of ``value``."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@dataclass(frozen=True)
class CRCSpec:
    """A CRC parameter set in the Rocksoft/catalogue convention."""

    name: str
    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int

    def __post_init__(self):
        if not 8 <= self.width <= 32:
            raise ValueError("supported CRC widths are 8..32 bits")
        mask = (1 << self.width) - 1
        if self.poly & ~mask or self.init & ~mask or self.xorout & ~mask:
            raise ValueError("poly/init/xorout exceed the CRC width")


#: AAL5 CPCS CRC-32: CRC-32 polynomial, all-ones preset, complemented,
#: no reflection (ATM transmits most-significant bit first).
CRC32_AAL5 = CRCSpec("crc32-aal5", 32, 0x04C11DB7, 0xFFFFFFFF, False, False, 0xFFFFFFFF)

#: Classic reflected CRC-16 (ARC / IBM).
CRC16_ARC = CRCSpec("crc16-arc", 16, 0x8005, 0x0000, True, True, 0x0000)

#: CRC-16/CCITT-FALSE, the common X.25-family parameterisation.
CRC16_CCITT = CRCSpec("crc16-ccitt", 16, 0x1021, 0xFFFF, False, False, 0x0000)

#: ATM OAM cell CRC-10.
CRC10_ATM = CRCSpec("crc10-atm", 10, 0x233, 0x000, False, False, 0x000)

#: CRC-32C (Castagnoli): the post-paper polynomial chosen for its
#: superior Hamming distance, used by SCTP and iSCSI.
CRC32C = CRCSpec("crc32c", 32, 0x1EDC6F41, 0xFFFFFFFF, True, True, 0xFFFFFFFF)


class CRCEngine:
    """Table-driven CRC computation over a :class:`CRCSpec`.

    The engine exposes both a conventional ``compute``/``verify`` API
    and the register-level API (``register_init`` / ``process`` /
    ``finalize``) that the splice engine composes with
    :class:`ZeroFeedOperator`.
    """

    def __init__(self, spec: CRCSpec) -> None:
        self.spec = spec
        self.mask: int = (1 << spec.width) - 1
        self.name: str = spec.name
        self.width: int = spec.width
        self._table = self._build_table()
        self._feed = _c_feed(spec)
        self._zero_ops = {}
        self._cell_tables: dict = {}
        self._residue = None

    # -- table construction -------------------------------------------------

    def _build_table(self):
        spec = self.spec
        table = []
        if spec.refin:
            poly = reflect_bits(spec.poly, spec.width)
            for index in range(256):
                reg = index
                for _ in range(8):
                    reg = (reg >> 1) ^ (poly if reg & 1 else 0)
                table.append(reg)
        else:
            top = 1 << (spec.width - 1)
            for index in range(256):
                reg = index << (spec.width - 8)
                for _ in range(8):
                    reg = ((reg << 1) ^ spec.poly if reg & top else reg << 1) & self.mask
                table.append(reg)
        return table

    # -- register-level API --------------------------------------------------

    @property
    def register_init(self):
        """The register image of the spec's ``init`` value."""
        if self.spec.refin:
            return reflect_bits(self.spec.init, self.spec.width)
        return self.spec.init

    def step(self, reg, byte):
        """Feed one data byte into the register."""
        if self.spec.refin:
            return (reg >> 8) ^ self._table[(reg ^ byte) & 0xFF]
        shift = self.spec.width - 8
        return ((reg << 8) & self.mask) ^ self._table[((reg >> shift) ^ byte) & 0xFF]

    def process(self, reg, data):
        """Feed ``data`` into register ``reg`` and return the new register.

        Runs in C when the spec has a stdlib feed (see the module
        docstring); otherwise folds :meth:`step` over the bytes.
        """
        reg = int(reg)
        data = bytes(data)
        if self._feed is not None:
            return self._feed(data, reg)
        for byte in data:
            reg = self.step(reg, byte)
        return reg

    def finalize(self, reg):
        """Map a register value to the spec's external CRC value."""
        if self.spec.refout != self.spec.refin:
            reg = reflect_bits(reg, self.spec.width)
        return reg ^ self.spec.xorout

    # -- conventional API ----------------------------------------------------

    def compute(self, data) -> int:
        """The CRC value of ``data``."""
        return self.finalize(self.process(self.register_init, data))

    @property
    def _wire_order(self):
        """The byte order CRC bytes travel in for this spec.

        Reflected CRCs ship least-significant byte first (Ethernet
        convention); non-reflected ones most-significant first (the
        AAL5/ATM convention) -- the order under which the residue
        register is a constant of the spec.
        """
        return "little" if self.spec.refout else "big"

    def _feed_zero_bits(self, reg, count):
        """Feed ``count`` single zero *bits* into the register.

        Needed for specs whose width is not a byte multiple (CRC-10):
        the stored field pads the CRC to whole bytes, and the pad bits
        must enter the polynomial division for the framed message to
        land on a message-independent residue.
        """
        if self.spec.refin:
            poly = reflect_bits(self.spec.poly, self.spec.width)
            for _ in range(count):
                reg = (reg >> 1) ^ (poly if reg & 1 else 0)
        else:
            top = 1 << (self.spec.width - 1)
            for _ in range(count):
                reg = ((reg << 1) ^ self.spec.poly if reg & top else reg << 1)
                reg &= self.mask
        return reg

    def field(self, data) -> bytes:
        """The CRC bytes to append to ``data`` (spec wire order).

        ``data + field(data)`` streams to :meth:`residue_register`, so
        :meth:`verify` accepts the framed whole.  For CRC-10 the value
        is bit-aligned so the 6 pad bits participate in the division
        (the ATM OAM cell layout).
        """
        width_bytes = (self.spec.width + 7) // 8
        reg = self.process(self.register_init, data)
        pad = 8 * width_bytes - self.spec.width
        if pad:
            reg = self._feed_zero_bits(reg, pad)
        return self.finalize(reg).to_bytes(width_bytes, self._wire_order)

    def verify(self, data) -> bool:
        """True if ``data`` (trailing CRC bytes included) validates.

        Streams the whole frame and compares the register against
        :meth:`residue_register` -- the check a receiver that cannot
        see the frame boundary performs, and the one the splice engine
        models.
        """
        return self.process(self.register_init, data) == self.residue_register()

    def residue_register(self):
        """Register value after a message *and* its :meth:`field`.

        This is a constant of the spec, so a verifier that has streamed
        an entire frame can validate it by comparing the register to
        this value -- the check :meth:`verify` and the splice engine
        make.
        """
        if self._residue is None:
            probe = b"\xa5\x5a\x00\xff checksum residue probe"
            reg = self.process(self.register_init, probe)
            self._residue = self.process(reg, self.field(probe))
        return self._residue

    # -- vectorized forms ----------------------------------------------------

    def process_cells(self, cells, init=0):
        """Register images of many equal-length chunks, vectorized.

        ``cells`` is a ``(..., L)`` uint8 array; each chunk is processed
        starting from register ``init`` (default 0, producing the ``c_X``
        images that :class:`ZeroFeedOperator` composes), a scalar or an
        array of one register per chunk.  Returns a ``(...,)`` uint32
        array of register values.  Slicing-by-``L``: column ``j`` enters
        through the per-offset table ``T_{L-1-j}``.
        """
        import numpy as np

        cells = np.asarray(cells, dtype=np.uint8)
        length = cells.shape[-1]
        if length not in self._cell_tables:
            # T_{L-1} .. T_0 end to end: column j indexes block j.
            tables = _offset_tables(self, length)[:length][::-1]
            self._cell_tables[length] = (
                np.concatenate(tables) if tables else np.zeros(0, np.uint32),
                256 * np.arange(length),
            )
        flat, offsets = self._cell_tables[length]
        reg = np.bitwise_xor.reduce(np.take(flat, cells + offsets), axis=-1)
        init = np.asarray(init, dtype=np.uint32)
        if init.any():
            reg = reg ^ self.zero_feed(length).apply_vec(init)
        return reg

    def zero_feed(self, nbytes):
        """The cached :class:`ZeroFeedOperator` for ``nbytes`` zero bytes."""
        if nbytes not in self._zero_ops:
            self._zero_ops[nbytes] = ZeroFeedOperator(self, nbytes)
        return self._zero_ops[nbytes]

    # -- batch tier (slicing-by-8) -------------------------------------------

    def _advance_many(self, regs, blocks):
        """Feed each ``(..., L)`` row of ``blocks`` into its register.

        The hot kernel behind :meth:`compute_many`: eight data bytes
        enter the register per iteration via the first eight
        per-offset tables (``T_k = Z^k(table)``), so the Python-level
        loop runs ``L // 8`` times instead of ``L``.  By GF(2)
        linearity, feeding bytes ``d0..d7`` from register ``r`` is

            ``Z^8(r) XOR T_7[d0] XOR T_6[d1] XOR ... XOR T_0[d7]``

        which is exactly what the body evaluates.  The byte tail goes
        through :meth:`process_cells`.
        """
        import numpy as np

        blocks = np.asarray(blocks, dtype=np.uint8)
        length = blocks.shape[-1]
        head = length - length % 8
        if head:
            sliced = _offset_tables(self, 8)
            z8 = self.zero_feed(8)
            for base in range(0, head, 8):
                acc = sliced[7][blocks[..., base]]
                for k in range(1, 8):
                    acc = acc ^ sliced[7 - k][blocks[..., base + k]]
                regs = z8.apply_vec(regs) ^ acc
        if head != length:
            regs = self.process_cells(blocks[..., head:], init=regs)
        return regs

    def finalize_many(self, regs):
        """Vectorized :meth:`finalize` over a uint32 register array."""
        import numpy as np

        regs = np.asarray(regs, dtype=np.uint32)
        if self.spec.refout != self.spec.refin:
            regs = _reflect_many(regs, self.spec.width)
        return regs ^ np.uint32(self.spec.xorout)

    def compute_many(self, blocks):
        """CRC values of equal-length buffers, one vectorized pass.

        ``blocks`` is a ``(..., L)`` uint8 array (or an iterable of
        equal-length bytes); the result is a ``(...,)`` uint64 array of
        external CRC values, bit-identical to mapping :meth:`compute`
        over the rows.
        """
        import numpy as np

        blocks = block_matrix(blocks)
        regs = np.empty(blocks.shape[:-1], dtype=np.uint32)
        regs[...] = np.uint32(self.register_init)
        regs = self._advance_many(regs, blocks)
        return self.finalize_many(regs).astype(np.uint64)

    def prefix_state(self, data) -> int:
        """The register after absorbing ``data`` from the preset.

        The batch-tier state of a CRC *is* its register; combine two
        with :meth:`combine` and externalise with :meth:`state_value`.
        """
        import numpy as np

        blob = np.frombuffer(bytes(data), dtype=np.uint8)
        regs = np.asarray(np.uint32(self.register_init))
        return int(self._advance_many(regs, blob))

    def combine(self, state_a, state_b, len_b) -> int:
        """Register of ``A || B`` from the registers of A and B.

        Both input states start from the preset register, so B's
        preset contribution must be cancelled:

            ``Z^{len_b}(state_a) XOR state_b XOR Z^{len_b}(init)``
        """
        op = self.zero_feed(len_b)
        return op.apply(state_a) ^ state_b ^ op.apply(self.register_init)

    def state_value(self, state) -> int:
        """External CRC value of a batch-tier state (a register)."""
        return self.finalize(state)


class ZeroFeedOperator:
    """The GF(2)-linear operator ``Z^n``: feed ``n`` zero bytes.

    Built by exponentiating the one-byte bit-matrix and baked into
    byte-sliced XOR lookup tables so it applies in a handful of gathers
    per call even across large NumPy register arrays: ``tables[k][v]``
    is the image of a register whose byte ``k`` is ``v`` and whose
    other bytes are zero.
    """

    def __init__(self, engine, nbytes):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.engine = engine
        self.nbytes = nbytes
        width = engine.spec.width
        matrix = _matrix_power(_one_byte_matrix(engine), nbytes, width)
        self._matrix = matrix
        self.tables = _bake_tables(matrix, width)

    def apply(self, reg):
        """Apply the operator to a scalar register value."""
        result = 0
        for k, table in enumerate(self.tables):
            result ^= int(table[(reg >> (8 * k)) & 0xFF])
        return result

    def apply_vec(self, regs):
        """Apply the operator to a uint32 array of register values."""
        import numpy as np

        regs = np.asarray(regs, dtype=np.uint32)
        result = self.tables[0][regs & np.uint32(0xFF)]
        for k in range(1, len(self.tables)):
            result = result ^ self.tables[k][
                (regs >> np.uint32(8 * k)) & np.uint32(0xFF)
            ]
        return result


def _one_byte_matrix(engine):
    """Images of each register basis bit under one zero-byte feed."""
    return [engine.step(1 << j, 0) for j in range(engine.spec.width)]


def _matrix_apply(matrix, value):
    """Image of ``value`` under a bit-matrix (list of basis images)."""
    result = 0
    j = 0
    while value:
        if value & 1:
            result ^= matrix[j]
        value >>= 1
        j += 1
    return result


def _matrix_compose(first, second, width):
    """The matrix applying ``first`` then ``second``."""
    return [_matrix_apply(second, first[j]) for j in range(width)]


def _matrix_power(matrix, exponent, width):
    """``matrix`` composed with itself ``exponent`` times."""
    result = [1 << j for j in range(width)]  # identity
    base = matrix
    while exponent:
        if exponent & 1:
            result = _matrix_compose(result, base, width)
        base = _matrix_compose(base, base, width)
        exponent >>= 1
    return result


def _bake_tables(matrix, width):
    """Byte-sliced XOR lookup tables realising a bit-matrix."""
    import numpy as np

    tables = []
    for k in range((width + 7) // 8):
        table = np.zeros(256, dtype=np.uint32)
        for j in range(min(8, width - 8 * k)):
            bit = 1 << j
            image = np.uint32(matrix[8 * k + j])
            # Extend the table to indices with bit j set via superposition.
            table[bit : 2 * bit] = table[:bit] ^ image
        tables.append(table)
    return tables


#: ``bytes.translate`` table reversing the bits of every byte.
_REV8_BYTES = bytes(reflect_bits(b, 8) for b in range(256))


def _rev32(value):
    """Reverse the 32 bits of ``value``."""
    flipped = value.to_bytes(4, "big").translate(_REV8_BYTES)
    return int.from_bytes(flipped, "little")


def _zlib_feed(data, reg):
    """The reflected CRC-32 register fed by zlib (pre/post-complemented)."""
    return zlib.crc32(data, reg ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def _zlib_msb_first_feed(data, reg):
    """The MSB-first CRC-32 register via zlib and bit reversal."""
    return _rev32(_zlib_feed(data.translate(_REV8_BYTES), _rev32(reg)))


def _c_feed(spec):
    """The stdlib feed ``feed(data, reg)`` for ``spec``, or None."""
    if spec.width == 32 and spec.poly == 0x04C11DB7:
        return _zlib_feed if spec.refin else _zlib_msb_first_feed
    if spec.width == 16 and spec.poly == 0x1021 and not spec.refin:
        return binascii.crc_hqx
    return None


def _reflect_many(values, width):
    """Reverse the low ``width`` bits of each element, vectorized.

    Serves the vectorized finalize of specs with ``refout != refin``
    (none of the paper's specs, but the engine stays generic).
    """
    import numpy as np

    rev8 = np.frombuffer(_REV8_BYTES, dtype=np.uint8).astype(np.uint32)
    values = np.asarray(values, dtype=np.uint32)
    full = (
        (rev8[values & np.uint32(0xFF)] << np.uint32(24))
        | (rev8[(values >> np.uint32(8)) & np.uint32(0xFF)] << np.uint32(16))
        | (rev8[(values >> np.uint32(16)) & np.uint32(0xFF)] << np.uint32(8))
        | rev8[(values >> np.uint32(24)) & np.uint32(0xFF)]
    )
    return full >> np.uint32(32 - width)


#: Per-offset table cache, keyed per polynomial -- ``T_k = Z^k(table)``
#: depends only on ``(width, poly, refin)``, so every engine instance
#: (and every worker process) grows one list per spec.
_OFFSET_TABLES: dict = {}


def _offset_tables(engine, count):
    """At least ``count`` per-offset tables ``T_k = Z^k(table)``."""
    key = (engine.spec.width, engine.spec.poly, engine.spec.refin)
    tables = _OFFSET_TABLES.get(key)
    if tables is None:
        import numpy as np

        tables = _OFFSET_TABLES[key] = [np.asarray(engine._table, np.uint32)]
    if len(tables) < count:
        z1 = engine.zero_feed(1)
        while len(tables) < count:
            tables.append(z1.apply_vec(tables[-1]))
    return tables

