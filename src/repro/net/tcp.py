"""TCP segment header (RFC 793) with flags, options, and checksum.

TCP carries 66-95% of the bytes in every dataset (Table 3); the analysis
engine's connection tracking, success-rate, and retransmission analyses
(Figure 10) all parse these headers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import PSEUDO_HEADER_FORMAT, internet_checksum
from .ipv4 import FRAME_HEADER_LEN, PROTO_TCP, encode_frame_header

__all__ = [
    "TCP_HEADER_LEN",
    "FIN",
    "SYN",
    "RST",
    "PSH",
    "ACK",
    "URG",
    "TcpSegment",
    "encode_tcp_frame",
    "flags_to_str",
]

TCP_HEADER_LEN = 20

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

_FLAG_NAMES = [(FIN, "F"), (SYN, "S"), (RST, "R"), (PSH, "P"), (ACK, "A"), (URG, "U")]

_HEADER = struct.Struct("!HHIIBBHHH")

#: The pseudo-header and the TCP header (checksum zero) in one pack; the
#: TCP header is its last 20 bytes.
_PSEUDO_AND_HEADER = struct.Struct(PSEUDO_HEADER_FORMAT + _HEADER.format[1:])
_CHECKSUM_AT = 12 + 16  # offset of the TCP checksum in that pack

_MSS_OPTION = struct.Struct("!BBH")


def encode_tcp_frame(
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    mss: int | None = None,
    ttl: int = 64,
    ident: int = 0,
    window: int = 65535,
    urgent: int = 0,
) -> bytes:
    """The wire bytes of one Ethernet/IPv4/TCP frame, both checksums set.

    This is the one TCP encoder: the generator calls it for every
    segment it emits, and :meth:`TcpSegment.encode` is its TCP part.
    The only option it writes is MSS, when ``mss`` is given.
    """
    options = b"" if mss is None else _MSS_OPTION.pack(2, 4, mss)
    header_len = TCP_HEADER_LEN + len(options)
    length = header_len + len(payload)
    pseudo_and_header = _PSEUDO_AND_HEADER.pack(
        src_ip,
        dst_ip,
        PROTO_TCP,
        length,
        src_port,
        dst_port,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        header_len << 2,  # data offset in 32-bit words, high nibble
        flags,
        window,
        0,  # checksum placeholder
        urgent,
    )
    checksum = internet_checksum(b"".join((pseudo_and_header, options, payload)))
    return b"".join(
        (
            encode_frame_header(src_mac, dst_mac, src_ip, dst_ip, PROTO_TCP, length, ttl, ident),
            pseudo_and_header[12:_CHECKSUM_AT],
            checksum.to_bytes(2, "big"),
            pseudo_and_header[_CHECKSUM_AT + 2 :],
            options,
            payload,
        )
    )


def flags_to_str(flags: int) -> str:
    """Render a flag byte as e.g. ``"SA"`` for SYN+ACK."""
    return "".join(name for bit, name in _FLAG_NAMES if flags & bit)


@dataclass(frozen=True)
class TcpSegment:
    """A TCP segment: header fields plus payload.

    The only option we emit is MSS on SYN segments, which is also the only
    option the decoder interprets; unknown options are skipped.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes = b""
    window: int = 65535
    mss: int | None = None
    urgent: int = 0

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        """Serialize with a correct checksum over the pseudo-header."""
        frame = encode_tcp_frame(
            0, 0, src_ip, dst_ip, self.src_port, self.dst_port, self.seq, self.ack,
            self.flags, self.payload, self.mss, window=self.window, urgent=self.urgent,
        )
        return frame[FRAME_HEADER_LEN:]

    @classmethod
    def decode(cls, data: bytes) -> "TcpSegment":
        """Parse wire bytes; payload may be capture-truncated."""
        if len(data) < TCP_HEADER_LEN:
            raise ValueError(f"too short for TCP: {len(data)}")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            _checksum,
            urgent,
        ) = _HEADER.unpack_from(data)
        header_len = (offset_reserved >> 4) * 4
        if header_len < TCP_HEADER_LEN:
            raise ValueError(f"bad data offset: {header_len}")
        mss = cls._parse_mss(data[TCP_HEADER_LEN:header_len])
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=data[header_len:],
            window=window,
            mss=mss,
            urgent=urgent,
        )

    @staticmethod
    def _parse_mss(options: bytes) -> int | None:
        """Scan TCP options for an MSS value; ignore everything else."""
        i = 0
        while i < len(options):
            kind = options[i]
            if kind == 0:  # end of options
                break
            if kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= len(options):
                break
            length = options[i + 1]
            if length < 2:
                break
            if kind == 2 and length == 4 and i + 4 <= len(options):
                return struct.unpack_from("!H", options, i + 2)[0]
            i += length
        return None

    @property
    def flag_str(self) -> str:
        """The flags as a compact string, e.g. ``"SA"``."""
        return flags_to_str(self.flags)
