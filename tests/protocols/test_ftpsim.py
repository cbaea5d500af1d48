"""Tests for the simulated FTP transfer."""

from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig


def test_transfer_frames_every_packet():
    sim = FileTransferSimulator()
    units = sim.transfer(bytes(700))
    assert len(units) == 3
    for unit in units:
        assert unit.frame.payload == unit.packet.ip_packet
        assert unit.cells.shape[1] == 48


def test_adjacent_packets_advance_seq_and_ipid():
    sim = FileTransferSimulator()
    units = sim.transfer(bytes(1100))
    assert len(units) == 5
    for first, second in zip(units, units[1:]):
        assert second.packet.ipid == first.packet.ipid + 1
        assert second.packet.seq == first.packet.seq + len(first.packet.payload)


def test_single_packet_file_has_no_pairs():
    sim = FileTransferSimulator()
    assert len(sim.transfer(b"tiny")) == 1


def test_config_passthrough():
    config = PacketizerConfig(mss=128)
    sim = FileTransferSimulator(config)
    assert sim.config.mss == 128
    units = sim.transfer(bytes(300))
    assert [len(u.packet.payload) for u in units] == [128, 128, 44]
