"""Scalar-vs-batch conformance: two evaluation paths, one answer.

The batch compute tier's contract is *bit identity*: the vectorized
path (``--engine batch``) and the byte-at-a-time reference receiver
(``--engine scalar``) run the same enumeration and must agree on every
per-splice verdict, every counter, and every aggregation layout
(``--workers 1`` vs ``--workers 4``).  These tests pin that contract
at all three levels.  The counter-level tests also cover the batch
path's header pruning, which ``splice_verdicts`` never applies.
"""

import dataclasses

import numpy as np
import pytest

from repro.checksums.batch import EngineKind
from repro.core import batch as core_batch
from repro.core.batch import resolve_engine_kind
from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.enumeration import structural_splice_count
from repro.core.experiment import run_splice_experiment
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig
from tests.conftest import make_filesystem
from tests.core.test_reference_crosscheck import CONFIGS as CROSSCHECK_CONFIGS

CONFIGS = [
    PacketizerConfig(),
    PacketizerConfig(placement=ChecksumPlacement.TRAILER),
    PacketizerConfig(algorithm="fletcher255"),
    PacketizerConfig(algorithm="fletcher256"),
]


def _engines(config, **overrides):
    options = EngineOptions.from_packetizer(config, **overrides)
    return (
        SpliceEngine(dataclasses.replace(options, engine="batch")),
        SpliceEngine(dataclasses.replace(options, engine="scalar")),
    )


def _pairs(units):
    for first, second in zip(units, units[1:]):
        yield (
            first.frame.cells()[None],
            second.frame.cells()[None],
            len(first.packet.ip_packet),
            len(second.packet.ip_packet),
        )


class TestVerdictIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "%s-%s" % (
        c.algorithm, c.placement.value,
    ))
    def test_every_verdict_bit_matches(self, config):
        batch, scalar = _engines(config)
        assert batch.engine_kind is EngineKind.BATCH
        assert scalar.engine_kind is EngineKind.SCALAR
        units = FileTransferSimulator(config).transfer(
            generate("gmon", 5_000, 11)
        )
        compared = 0
        for cells1, cells2, iplen1, iplen2 in _pairs(units):
            enum_b, v_batch = batch.splice_verdicts(
                cells1, cells2, iplen1, iplen2
            )
            enum_s, v_scalar = scalar.splice_verdicts(
                cells1, cells2, iplen1, iplen2
            )
            assert np.array_equal(enum_b.selection, enum_s.selection)
            for key in ("header_pass", "transport", "crc32", "identical"):
                assert np.array_equal(v_batch[key], v_scalar[key]), key
            assert v_batch["aux"].keys() == v_scalar["aux"].keys()
            for name in v_batch["aux"]:
                assert np.array_equal(
                    v_batch["aux"][name], v_scalar["aux"][name]
                ), name
            compared += enum_b.splices
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
        batch, scalar = _engines(config)
        _, v_batch = batch.splice_verdicts(cells, cells, iplen, iplen)
        _, v_scalar = scalar.splice_verdicts(cells, cells, iplen, iplen)
        rebuilt = unit.frame.cell_count - 1
        assert int(v_batch["crc32"].sum()) == rebuilt
        for key in ("header_pass", "transport", "crc32", "identical"):
            assert np.array_equal(v_batch[key], v_scalar[key]), key
        for name in v_batch["aux"]:
            assert v_batch["aux"][name].sum() >= rebuilt
            assert np.array_equal(v_batch["aux"][name], v_scalar["aux"][name])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stream_counters_identical_across_seeds(self, seed):
        batch, scalar = _engines(PacketizerConfig())
        wire = FileTransferSimulator(PacketizerConfig()).wire(
            generate("english", 6_000, seed)
        )
        assert batch.evaluate_stream(wire) == scalar.evaluate_stream(wire)

    @pytest.mark.parametrize(
        "name", sorted(set(CROSSCHECK_CONFIGS) - {"tcp-header"})
    )
    def test_stream_counters_identical_across_configs(self, name):
        config = CROSSCHECK_CONFIGS[name]
        batch, scalar = _engines(config)
        wire = FileTransferSimulator(config).wire(generate("english", 2_500, 4))
        counters = batch.evaluate_stream(wire)
        assert counters.total > 0
        assert counters == scalar.evaluate_stream(wire)

    def test_stream_counters_identical_on_sampled_enumeration(self):
        config = PacketizerConfig()
        wire = FileTransferSimulator(config).wire(generate("gmon", 3_000, 5))
        limit = 300
        cells = wire[0].frames.shape[1]
        assert limit < structural_splice_count(cells, cells)
        batch, scalar = _engines(config, sample_splices=limit)
        counters = batch.evaluate_stream(wire)
        assert 0 < counters.total <= limit * counters.pairs
        assert counters == scalar.evaluate_stream(wire)

    def test_stream_counters_identical_with_blocked_partials(self, monkeypatch):
        # Sampled enumerations of large frames fold their parts in
        # blocks; force one part per block on a small input.
        monkeypatch.setattr(core_batch, "_PART_GATHER_ELEMENTS", 1)
        batch, scalar = _engines(PacketizerConfig())
        wire = FileTransferSimulator(PacketizerConfig()).wire(
            generate("english", 2_500, 6)
        )
        assert batch.evaluate_stream(wire) == scalar.evaluate_stream(wire)


def _embedded_header_file(config, chunks):
    """Payload whose every segment carries a valid IP/TCP header in cell 1.

    The header is the packetizer's own for a full segment (total length
    296, ACK set, the configured addresses); each 256-byte chunk holds it
    at payload offset 8, so it fills the first 40 bytes of the frame's
    second cell.
    """
    header = FileTransferSimulator(config).transfer(bytes(config.mss))[0]
    header = header.packet.ip_packet[:40]
    step = config.mss - 40
    filler = generate("english", chunks * step, 7)
    pieces = [filler[i : i + step] for i in range(0, chunks * step, step)]
    return b"".join(piece[:8] + header + piece[8:] for piece in pieces)


class TestHeaderPruning:
    def test_embedded_headers_lead_splices(self):
        # evaluate_batch judges only rows whose leading cell passes the
        # header checks for some pair; data that embeds a header lets
        # rows led by a data cell through, and pruning must keep them.
        config = PacketizerConfig()
        simulator = FileTransferSimulator(config)
        data = _embedded_header_file(config, chunks=4)
        units = simulator.transfer(data)
        batch, scalar = _engines(config)
        cells1, cells2, iplen1, iplen2 = next(_pairs(units))
        enum, verdicts = batch.splice_verdicts(cells1, cells2, iplen1, iplen2)
        lead = enum.selection[:, 0]
        header_pass = verdicts["header_pass"][0]
        assert header_pass[lead == 1].all()
        assert int(header_pass[lead != 0].sum()) == int((lead == 1).sum()) == 252
        wire = simulator.wire(data)
        assert batch.evaluate_stream(wire) == scalar.evaluate_stream(wire)


class TestWorkerLayouts:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_counters_identical_across_workers(self, engine):
        fs = make_filesystem([("english", 4_000), ("gmon", 3_000)])
        one = run_splice_experiment(fs, workers=1, engine=engine)
        four = run_splice_experiment(fs, workers=4, engine=engine)
        assert one.counters == four.counters
        assert one.options.engine == engine

    def test_scalar_equals_batch_through_the_driver(self):
        fs = make_filesystem([("c-source", 4_000), ("zero-heavy", 3_000)])
        batch = run_splice_experiment(fs, engine="batch")
        scalar = run_splice_experiment(fs, engine="scalar", workers=4)
        assert batch.counters == scalar.counters
        assert batch.counters.total > 0


class TestEngineResolution:
    def test_auto_resolves_to_batch_for_registry_algorithms(self):
        assert resolve_engine_kind(EngineOptions()) is EngineKind.BATCH

    def test_explicit_kind_wins(self):
        options = EngineOptions(engine="scalar")
        assert resolve_engine_kind(options) is EngineKind.SCALAR

    def test_unknown_algorithm_falls_back_to_scalar(self):
        # resolve_engine_kind must not mask the engine's own (clearer)
        # unsupported-algorithm error.
        options = EngineOptions(algorithm="md5")
        assert resolve_engine_kind(options) is EngineKind.SCALAR
        with pytest.raises(ValueError):
            SpliceEngine(options)

    def test_engine_rides_in_options_record(self):
        fs = make_filesystem([("english", 2_000)])
        result = run_splice_experiment(fs, engine="scalar")
        assert result.options.engine == "scalar"
        default = run_splice_experiment(fs)
        assert default.options.engine == "auto"
