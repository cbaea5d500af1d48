"""The simulated FTP transfer that feeds the splice experiments.

The paper "simulated a file transfer with FTP of all files on a file
system via TCP/IP using AAL5 over ATM".  Each file goes on the wire
once, as :meth:`Packetizer.wire`'s frame arrays: the splice engine
walks every adjacent pair of those, and :meth:`transfer` slices a
:class:`TransferUnit` (the TCP/IP packet plus its AAL5 frame and cells)
per packet out of them for the simulators that follow one frame at a
time.

Sequence numbers and IP IDs run continuously across the packets of one
file and restart for the next, mirroring one FTP data connection per
file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.aal5 import AAL5Frame
from repro.protocols.packetizer import Packetizer

__all__ = ["FileTransferSimulator", "TransferUnit"]


@dataclass(frozen=True)
class TransferUnit:
    """One packet of a simulated transfer, framed for the wire."""

    packet: object  # TCPPacket
    frame: object  # AAL5Frame

    @property
    def cells(self):
        return self.frame.cells()


class FileTransferSimulator:
    """Simulates per-file FTP transfers under a packetizer config."""

    def __init__(self, config=None):
        self.packetizer = Packetizer(config)

    @property
    def config(self):
        return self.packetizer.config

    def wire(self, data):
        """One file's frames, grouped by length (:meth:`Packetizer.wire`)."""
        return self.packetizer.wire(data)

    def transfer(self, data):
        """Transfer one file; returns its :class:`TransferUnit` list."""
        return [
            TransferUnit(
                packet=packet,
                frame=AAL5Frame(
                    payload=packet.ip_packet,
                    frame=frame,
                    crc=int.from_bytes(frame[-4:], "big"),
                ),
            )
            for packet, frame in self.packetizer.framed(data)
        ]
