"""Section 2's cost claim, and the engine's own throughput.

The paper notes the TCP checksum was historically 2x-4x faster than
Fletcher's sum.  These benchmarks measure the implementations here
(vectorized NumPy, so the ratios reflect this library, not 1990s CPUs)
plus the splice engine's splices-per-second rate.
"""

import numpy as np
import pytest

from repro.checksums.crc import CRC32_AAL5, CRCEngine
from repro.checksums.fletcher import fletcher8
from repro.checksums.internet import InternetChecksum, ones_complement_sum
from repro.core.engine import EngineOptions, SpliceEngine
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig

BUFFER = generate("english", 65536, 1)


def test_internet_checksum_throughput(benchmark):
    result = benchmark(ones_complement_sum, BUFFER)
    assert 0 <= result <= 0xFFFF


@pytest.mark.parametrize("modulus", [255, 256])
def test_fletcher_throughput(benchmark, modulus):
    sums = benchmark(fletcher8, BUFFER, modulus)
    assert 0 <= sums.a < modulus


def test_crc32_throughput(benchmark):
    engine = CRCEngine(CRC32_AAL5)
    value = benchmark(engine.compute, BUFFER)
    assert 0 <= value <= 0xFFFFFFFF


def test_cell_sums_vectorized_throughput(benchmark):
    cells = np.frombuffer(BUFFER[: 48 * 1024], dtype=np.uint8).reshape(-1, 48)
    sums = benchmark(InternetChecksum.cell_sums, cells)
    assert sums.shape == (1024,)


def test_crc_cells_vectorized_throughput(benchmark):
    engine = CRCEngine(CRC32_AAL5)
    cells = np.frombuffer(BUFFER[: 48 * 1024], dtype=np.uint8).reshape(-1, 48)
    regs = benchmark(engine.process_cells, cells)
    assert regs.shape == (1024,)


def test_splice_engine_throughput(benchmark):
    """Splices evaluated per second by the full engine."""
    data = generate("english", 100_000, 2)
    wire = FileTransferSimulator(PacketizerConfig()).wire(data)
    engine = SpliceEngine(EngineOptions())

    counters = benchmark.pedantic(
        lambda: engine.evaluate_stream(wire), rounds=3, iterations=1
    )
    assert counters.total > 300_000
    rate = counters.total / benchmark.stats["mean"]
    print("\nsplice engine: %.0f splices/second (%d splices/run)" % (
        rate, counters.total))

