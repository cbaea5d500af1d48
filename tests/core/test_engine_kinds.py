"""Engine-vs-reference conformance: one engine, one oracle, one answer.

The splice engine's contract is *bit identity* with the byte-at-a-time
reference receiver of :mod:`repro.core.reference`: run over the same
enumeration, the two must agree on every per-splice verdict, and the
reference counter (:func:`repro.core.reference.count_splices`), which
tallies each splice itself, must equal the engine's counters on every
configuration and aggregation layout (``--workers 1`` vs
``--workers 4``).  The counter-level tests also cover the engine's
header pruning, which ``splice_verdicts`` never applies.
"""

import numpy as np
import pytest

from repro.checksums.registry import get_algorithm
from repro.core import batch as core_batch
from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.enumeration import structural_splice_count
from repro.core.experiment import run_splice_experiment
from repro.core.reference import count_splices, judge_splice_cells
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig
from tests.conftest import make_filesystem, reference_run
from tests.core.test_reference_crosscheck import CONFIGS as CROSSCHECK_CONFIGS

CONFIGS = [
    PacketizerConfig(),
    PacketizerConfig(placement=ChecksumPlacement.TRAILER),
    PacketizerConfig(algorithm="fletcher255"),
    PacketizerConfig(algorithm="fletcher256"),
]

_KEYS = ("header_pass", "transport", "crc32", "identical")


def _pairs(units):
    for first, second in zip(units, units[1:]):
        yield (
            first.frame.cells()[None],
            second.frame.cells()[None],
            len(first.packet.ip_packet),
            len(second.packet.ip_packet),
        )


def _reference_verdicts(enum, cells1, cells2, iplen1, iplen2, options):
    """The reference receiver's verdicts in ``splice_verdicts``' layout."""
    aux_engines = [(name, get_algorithm(name)) for name in options.aux_crcs]
    verdicts = [
        judge_splice_cells(
            cells1[0], cells2[0], iplen1, iplen2, row, options, aux_engines
        )
        for row in enum.selection
    ]
    by_key = {
        key: np.array([[v[key] for v in verdicts]], dtype=bool) for key in _KEYS
    }
    by_key["aux"] = {
        name: np.array([[v["aux"][name] for v in verdicts]], dtype=bool)
        for name, _ in aux_engines
    }
    return by_key


def _engine_and_oracle(config, data, **overrides):
    """Engine counters and reference counters of one file's transfer."""
    options = EngineOptions.from_packetizer(config, **overrides)
    simulator = FileTransferSimulator(config)
    engine = SpliceEngine(options).evaluate_stream(simulator.wire(data))
    frames = [unit.frame for unit in simulator.transfer(data)]
    return engine, count_splices(frames, options)


class TestVerdictIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "%s-%s" % (
        c.algorithm, c.placement.value,
    ))
    def test_every_verdict_bit_matches(self, config):
        options = EngineOptions.from_packetizer(config)
        engine = SpliceEngine(options)
        units = FileTransferSimulator(config).transfer(
            generate("gmon", 5_000, 11)
        )
        compared = 0
        for cells1, cells2, iplen1, iplen2 in _pairs(units):
            enum, got = engine.splice_verdicts(cells1, cells2, iplen1, iplen2)
            want = _reference_verdicts(
                enum, cells1, cells2, iplen1, iplen2, options
            )
            for key in _KEYS:
                assert np.array_equal(got[key], want[key]), key
            assert got["aux"].keys() == want["aux"].keys()
            for name in got["aux"]:
                assert np.array_equal(got["aux"][name], want["aux"][name]), name
            compared += enum.splices
        assert compared > 0

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "%s-%s" % (
        c.algorithm, c.placement.value,
    ))
    def test_duplicate_frame_verdicts_match(self, config):
        # A frame followed by a copy of itself: the splices that rebuild
        # its bytes (frame 1's first k cells, then frame 2's rest) pass
        # the CRC-32 and the auxiliary CRC, which splices of distinct
        # frames practically never do.
        unit = FileTransferSimulator(config).transfer(generate("english", 600, 3))[0]
        cells = unit.frame.cells()[None]
        iplen = len(unit.packet.ip_packet)
        options = EngineOptions.from_packetizer(config)
        enum, got = SpliceEngine(options).splice_verdicts(cells, cells, iplen, iplen)
        want = _reference_verdicts(enum, cells, cells, iplen, iplen, options)
        rebuilt = unit.frame.cell_count - 1
        assert int(got["crc32"].sum()) == rebuilt
        for key in _KEYS:
            assert np.array_equal(got[key], want[key]), key
        for name in got["aux"]:
            assert got["aux"][name].sum() >= rebuilt
            assert np.array_equal(got["aux"][name], want["aux"][name])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stream_counters_identical_across_seeds(self, seed):
        engine, oracle = _engine_and_oracle(
            PacketizerConfig(), generate("english", 6_000, seed)
        )
        assert engine.total > 0
        assert engine == oracle

    @pytest.mark.parametrize(
        "name", sorted(set(CROSSCHECK_CONFIGS) - {"tcp-header"})
    )
    def test_stream_counters_identical_across_configs(self, name):
        engine, oracle = _engine_and_oracle(
            CROSSCHECK_CONFIGS[name], generate("english", 2_500, 4)
        )
        assert engine.total > 0
        assert engine == oracle

    def test_stream_counters_identical_on_sampled_enumeration(self):
        config = PacketizerConfig()
        data = generate("gmon", 3_000, 5)
        limit = 300
        cells = FileTransferSimulator(config).wire(data)[0].frames.shape[1]
        assert limit < structural_splice_count(cells, cells)
        engine, oracle = _engine_and_oracle(config, data, sample_splices=limit)
        assert 0 < engine.total <= limit * engine.pairs
        assert engine == oracle

    @pytest.mark.parametrize(
        "placement", list(ChecksumPlacement), ids=lambda p: p.value
    )
    def test_stream_counters_identical_on_repeated_data(self, placement):
        # Zero-heavy data makes identical splices common, and the
        # trailer sum rejects them (Table 10's false positives).
        engine, oracle = _engine_and_oracle(
            PacketizerConfig(placement=placement),
            generate("zero-heavy", 2_500, 4),
        )
        assert engine.identical > 0
        trailer = placement is ChecksumPlacement.TRAILER
        assert (engine.identical_rejected > 0) == trailer
        assert engine == oracle

    def test_stream_counters_identical_with_blocked_partials(self, monkeypatch):
        # Sampled enumerations of large frames fold their parts in
        # blocks; force one part per block on a small input.
        monkeypatch.setattr(core_batch, "_PART_GATHER_ELEMENTS", 1)
        engine, oracle = _engine_and_oracle(
            PacketizerConfig(), generate("english", 2_500, 6)
        )
        assert engine.total > 0
        assert engine == oracle


def _embedded_header_file(config, chunks):
    """Payload whose even segments carry a valid IP/TCP header in cell 1.

    The header is the packetizer's own for a full segment (total length
    296, ACK set, the configured addresses); each even 256-byte chunk
    holds it at payload offset 8, so it fills the first 40 bytes of the
    frame's second cell.  Odd chunks hold the filler there instead, so
    in a batch of pairs cell 1 leads a valid header for some pairs only.
    """
    header = FileTransferSimulator(config).transfer(bytes(config.mss))[0]
    header = header.packet.ip_packet[:40]
    step = config.mss - 40
    filler = generate("english", chunks * step, 7)
    pieces = [filler[i : i + step] for i in range(0, chunks * step, step)]
    return b"".join(
        piece[:8] + (header if index % 2 == 0 else piece[8:48]) + piece[8:]
        for index, piece in enumerate(pieces)
    )


class TestHeaderPruning:
    def test_embedded_headers_lead_splices(self):
        # evaluate_batch judges only rows whose leading cell passes the
        # header checks for some pair; data that embeds a header lets
        # rows led by a data cell through, and pruning must keep them
        # even when other pairs of the batch fail there.
        config = PacketizerConfig()
        data = _embedded_header_file(config, chunks=4)
        units = FileTransferSimulator(config).transfer(data)
        engine = SpliceEngine(EngineOptions.from_packetizer(config))
        cells1, cells2, iplen1, iplen2 = next(_pairs(units))
        enum, verdicts = engine.splice_verdicts(cells1, cells2, iplen1, iplen2)
        lead = enum.selection[:, 0]
        header_pass = verdicts["header_pass"][0]
        assert header_pass[lead == 1].all()
        assert int(header_pass[lead != 0].sum()) == int((lead == 1).sum()) == 252
        counters, oracle = _engine_and_oracle(config, data)
        assert counters == oracle


class TestWorkerLayouts:
    def test_counters_identical_across_workers(self):
        fs = make_filesystem([("english", 4_000), ("gmon", 3_000)])
        one = run_splice_experiment(fs, workers=1)
        four = run_splice_experiment(fs, workers=4)
        assert one.counters == four.counters

    def test_scalar_equals_batch_through_the_driver(self):
        # The scalar side is the reference counter, file by file; the
        # engine side fans the same files over four workers.
        fs = make_filesystem([("c-source", 4_000), ("zero-heavy", 3_000)])
        batch = run_splice_experiment(fs, workers=4)
        assert batch.counters.total > 0
        assert batch.counters == reference_run(fs, PacketizerConfig())
