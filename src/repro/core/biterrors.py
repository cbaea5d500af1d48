"""Alternative error models: bit flips, bursts, swaps, and run overwrites.

Section 7 of the paper contrasts the splice model with "alternative
error models where data is replaced by garbage" and with hardware
faults that produce runs of zeros or ones.  This module injects such
errors into framed packets and measures each check code's detection
rate, empirically confirming the classical guarantees the paper cites
in Section 2:

* the TCP sum catches every burst of 15 bits or fewer (and every
  16-bit burst except a 0x0000 <-> 0xFFFF swap);
* CRC-32 catches all bursts shorter than 32 bits and all odd-weight
  errors of the spec's class;
* *no* sum catches a transposition of 16-bit words -- while Fletcher
  and the CRC do;
* random garbage is caught at 1 - 2^-16 by any decent 16-bit sum.

Errors are injected into the TCP payload region of a framed packet, so
the header checks stay satisfied and the measurement isolates the
check codes (injectors report the byte region they touched, so callers
can also aim at headers if they wish).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reference import _crc32_ok, _transport_ok
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.ip import IP_HEADER_LEN

__all__ = [
    "BitFlips",
    "BurstError",
    "DetectionRow",
    "GarbageRun",
    "RunOverwrite",
    "WordSwap",
    "error_detection_experiment",
]

_TCP_DATA_START = IP_HEADER_LEN + 20


class BitFlips:
    """Flip ``count`` distinct random bits within the target region."""

    def __init__(self, count=1):
        if count < 1:
            raise ValueError("count must be positive")
        self.count = count
        self.name = "%d-bit flip%s" % (count, "" if count == 1 else "s")

    def apply(self, buf, lo, hi, rng):
        span_bits = (hi - lo) * 8
        if span_bits < self.count:
            return False
        positions = rng.choice(span_bits, size=self.count, replace=False)
        for position in positions:
            buf[lo + position // 8] ^= 1 << (7 - position % 8)
        return True


class BurstError:
    """XOR a random pattern across ``bits`` contiguous bit positions.

    The first and last bit of the burst are always flipped (that is
    what defines the burst length).
    """

    def __init__(self, bits):
        if bits < 1:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.name = "%d-bit burst" % bits

    def apply(self, buf, lo, hi, rng):
        span_bits = (hi - lo) * 8
        if span_bits < self.bits:
            return False
        start = int(rng.integers(0, span_bits - self.bits + 1))
        if self.bits == 1:
            pattern = 1
        else:
            inner = int(rng.integers(0, 1 << (self.bits - 2))) if self.bits > 2 else 0
            pattern = (1 << (self.bits - 1)) | (inner << 1) | 1
        for offset in range(self.bits):
            if pattern >> (self.bits - 1 - offset) & 1:
                position = start + offset
                buf[lo + position // 8] ^= 1 << (7 - position % 8)
        return True


class WordSwap:
    """Transpose two random (distinct-valued) 16-bit aligned words.

    The Internet checksum cannot see this by construction -- "the sum
    of a set of 16-bit values is the same, regardless of the order".
    """

    name = "16-bit word swap"

    def apply(self, buf, lo, hi, rng):
        lo += lo % 2
        words = (hi - lo) // 2
        if words < 2:
            return False
        for _ in range(16):  # find two words that actually differ
            i, j = rng.choice(words, size=2, replace=False)
            a = slice(lo + 2 * int(i), lo + 2 * int(i) + 2)
            b = slice(lo + 2 * int(j), lo + 2 * int(j) + 2)
            if buf[a] != buf[b]:
                buf[a], buf[b] = buf[b], buf[a]
                return True
        return False


class RunOverwrite:
    """Overwrite ``length`` bytes with a constant (0x00 or 0xFF) run.

    Models DMA/buffer-management faults that deposit runs of zeros or
    ones (Section 7's hardware-fault discussion).
    """

    def __init__(self, length, value=0):
        if length < 1:
            raise ValueError("length must be positive")
        if value not in (0x00, 0xFF):
            raise ValueError("run value is 0x00 or 0xFF")
        self.length = length
        self.value = value
        self.name = "%d-byte 0x%02X run" % (length, value)

    def apply(self, buf, lo, hi, rng):
        if hi - lo < self.length:
            return False
        start = int(rng.integers(lo, hi - self.length + 1))
        region = buf[start : start + self.length]
        replacement = bytes([self.value]) * self.length
        if bytes(region) == replacement:
            return False
        buf[start : start + self.length] = replacement
        return True


class GarbageRun:
    """Replace ``length`` bytes with uniform random garbage."""

    def __init__(self, length):
        if length < 1:
            raise ValueError("length must be positive")
        self.length = length
        self.name = "%d-byte garbage" % length

    def apply(self, buf, lo, hi, rng):
        if hi - lo < self.length:
            return False
        start = int(rng.integers(lo, hi - self.length + 1))
        original = bytes(buf[start : start + self.length])
        garbage = rng.integers(0, 256, size=self.length).astype(np.uint8).tobytes()
        if garbage == original:
            return False
        buf[start : start + self.length] = garbage
        return True


@dataclass
class DetectionRow:
    """Detection statistics of one injector over one corpus."""

    injector: str
    trials: int = 0
    transport_detected: int = 0
    crc32_detected: int = 0

    def transport_rate(self):
        return 100.0 * self.transport_detected / self.trials if self.trials else 0.0

    def crc32_rate(self):
        return 100.0 * self.crc32_detected / self.trials if self.trials else 0.0


def error_detection_experiment(
    filesystem, config, injectors, trials_per_packet=4, seed=0, max_packets=None
):
    """Measure per-injector detection rates over a filesystem.

    For each packet of the simulated transfer, each injector corrupts
    the TCP payload region of the framed packet ``trials_per_packet``
    times; the corrupted frame is then checked by the transport
    checksum and the AAL5 CRC-32 exactly as a receiver would.

    Returns ``{injector.name: DetectionRow}``.
    """
    from repro.core.engine import EngineOptions

    options = EngineOptions.from_packetizer(config, aux_crcs=())
    simulator = FileTransferSimulator(config)
    rng = np.random.default_rng(seed)
    rows = {injector.name: DetectionRow(injector.name) for injector in injectors}

    packets_seen = 0
    for file in filesystem:
        for unit in simulator.transfer(file.data):
            if max_packets is not None and packets_seen >= max_packets:
                return rows
            packets_seen += 1
            frame = unit.frame.frame
            iplen = len(unit.packet.ip_packet)
            lo, hi = _TCP_DATA_START, iplen
            if hi - lo < 4:
                continue
            for injector in injectors:
                for _ in range(trials_per_packet):
                    buf = bytearray(frame)
                    if not injector.apply(buf, lo, hi, rng):
                        continue
                    row = rows[injector.name]
                    row.trials += 1
                    if not _transport_ok(buf, iplen, options):
                        row.transport_detected += 1
                    if not _crc32_ok(buf):
                        row.crc32_detected += 1
    return rows
