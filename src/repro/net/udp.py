"""UDP datagram header (RFC 768).

UDP carries most of the *connections* in every dataset (68-87%, Table 3):
name service, network management, and other transaction-style protocols.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import PSEUDO_HEADER_FORMAT, internet_checksum
from .ipv4 import FRAME_HEADER_LEN, PROTO_UDP, encode_frame_header

__all__ = ["UDP_HEADER_LEN", "UdpDatagram", "encode_udp_frame"]

UDP_HEADER_LEN = 8

_HEADER = struct.Struct("!HHHH")

#: The pseudo-header and the UDP header (checksum zero) in one pack; the
#: UDP header is its last 8 bytes.
_PSEUDO_AND_HEADER = struct.Struct(PSEUDO_HEADER_FORMAT + _HEADER.format[1:])
_CHECKSUM_AT = 12 + 6  # offset of the UDP checksum in that pack


def encode_udp_frame(
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    ttl: int = 64,
    ident: int = 0,
) -> bytes:
    """The wire bytes of one Ethernet/IPv4/UDP frame, both checksums set.

    This is the one UDP encoder: the generator calls it for every
    datagram it emits, and :meth:`UdpDatagram.encode` is its UDP part.
    """
    length = UDP_HEADER_LEN + len(payload)
    pseudo_and_header = _PSEUDO_AND_HEADER.pack(
        src_ip, dst_ip, PROTO_UDP, length, src_port, dst_port, length, 0
    )
    checksum = internet_checksum(pseudo_and_header + payload)
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: transmitted 0 means "no checksum"
    return b"".join(
        (
            encode_frame_header(src_mac, dst_mac, src_ip, dst_ip, PROTO_UDP, length, ttl, ident),
            pseudo_and_header[12:_CHECKSUM_AT],
            checksum.to_bytes(2, "big"),
            payload,
        )
    )


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram: ports, length, checksum, payload."""

    src_port: int
    dst_port: int
    payload: bytes = b""

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        """Serialize with a correct checksum over the pseudo-header."""
        frame = encode_udp_frame(0, 0, src_ip, dst_ip, self.src_port, self.dst_port, self.payload)
        return frame[FRAME_HEADER_LEN:]

    @classmethod
    def decode(cls, data: bytes) -> "UdpDatagram":
        """Parse wire bytes; payload may be capture-truncated."""
        if len(data) < UDP_HEADER_LEN:
            raise ValueError(f"too short for UDP: {len(data)}")
        src_port, dst_port, length, _checksum = _HEADER.unpack_from(data)
        if length < UDP_HEADER_LEN:
            raise ValueError(f"bad UDP length: {length}")
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            payload=data[UDP_HEADER_LEN:length],
        )
