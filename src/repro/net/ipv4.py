"""IPv4 header (RFC 791) with checksum support.

More than 95% of packets in every dataset are IPv4 (Table 2); everything
in the transport- and application-layer analyses sits on top of this.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .checksum import internet_checksum
from .ethernet import ETH_HEADER_LEN, ETHERTYPE_IPV4

__all__ = [
    "FRAME_HEADER_LEN",
    "IPV4_HEADER_LEN",
    "PROTO_ICMP",
    "PROTO_IGMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_GRE",
    "PROTO_ESP",
    "PROTO_PIM",
    "PROTO_UNIDENTIFIED_224",
    "Ipv4Packet",
    "encode_frame_header",
]

IPV4_HEADER_LEN = 20

PROTO_ICMP = 1
PROTO_IGMP = 2
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_GRE = 47
PROTO_ESP = 50
PROTO_PIM = 103
PROTO_UNIDENTIFIED_224 = 224  # the paper's "IP protocol 224 (unidentified)"

_HEADER = struct.Struct("!BBHHHBBH4s4s")

#: An Ethernet II header (each MAC as a 16-bit and a 32-bit half) followed
#: by an option-less IPv4 header whose checksum field is packed as zero.
_FRAME_HEADER = struct.Struct("!HIHIHBBHHHBBHII")

#: Bytes of Ethernet II + IPv4 header in front of every IPv4 frame.
FRAME_HEADER_LEN = ETH_HEADER_LEN + IPV4_HEADER_LEN

_CHECKSUM_AT = ETH_HEADER_LEN + 10  # offset of the IPv4 header checksum


def encode_frame_header(
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    proto: int,
    payload_len: int,
    ttl: int = 64,
    ident: int = 0,
    dscp: int = 0,
    flags_df: bool = True,
) -> bytes:
    """The Ethernet II + IPv4 header of a frame carrying ``payload_len``
    bytes of IP payload, with a correct IPv4 header checksum.

    Every IPv4 frame the generator emits starts with these
    :data:`FRAME_HEADER_LEN` bytes, so they are packed in one call.
    """
    header = _FRAME_HEADER.pack(
        dst_mac >> 32,
        dst_mac & 0xFFFFFFFF,
        src_mac >> 32,
        src_mac & 0xFFFFFFFF,
        ETHERTYPE_IPV4,
        (4 << 4) | 5,  # version 4, IHL 5
        dscp << 2,
        IPV4_HEADER_LEN + payload_len,
        ident & 0xFFFF,
        0x4000 if flags_df else 0,
        ttl,
        proto,
        0,  # checksum placeholder
        src_ip,
        dst_ip,
    )
    checksum = internet_checksum(header[ETH_HEADER_LEN:])
    return b"".join(
        (header[:_CHECKSUM_AT], checksum.to_bytes(2, "big"), header[_CHECKSUM_AT + 2 :])
    )


@dataclass(frozen=True)
class Ipv4Packet:
    """An IPv4 datagram with a 20-byte header (no options).

    ``encode`` fills in total length and header checksum; ``decode``
    verifies the checksum unless the capture truncated the packet.
    """

    src_ip: int
    dst_ip: int
    proto: int
    payload: bytes = b""
    ttl: int = 64
    ident: int = 0
    dscp: int = 0
    flags_df: bool = True
    total_length: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        """Serialize header + payload with a correct header checksum."""
        header = encode_frame_header(
            0, 0, self.src_ip, self.dst_ip, self.proto, len(self.payload),
            self.ttl, self.ident, self.dscp, self.flags_df,
        )
        return header[ETH_HEADER_LEN:] + self.payload

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = False) -> "Ipv4Packet":
        """Parse wire bytes.

        ``data`` may be truncated by the capture snaplen; the payload then
        holds whatever bytes survived, and ``total_length`` carries the
        original datagram length from the header.
        """
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError(f"too short for IPv4: {len(data)}")
        (
            version_ihl,
            tos,
            total,
            ident,
            flags_fragment,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        version = version_ihl >> 4
        if version != 4:
            raise ValueError(f"not IPv4 (version {version})")
        ihl = (version_ihl & 0xF) * 4
        if ihl < IPV4_HEADER_LEN:
            raise ValueError(f"bad IHL: {ihl}")
        if verify_checksum and len(data) >= ihl:
            if internet_checksum(data[:ihl]) != 0:
                raise ValueError("IPv4 header checksum mismatch")
        payload = data[ihl : max(total, ihl)]
        return cls(
            src_ip=int.from_bytes(src, "big"),
            dst_ip=int.from_bytes(dst, "big"),
            proto=proto,
            payload=payload,
            ttl=ttl,
            ident=ident,
            dscp=tos >> 2,
            flags_df=bool(flags_fragment & 0x4000),
            total_length=total,
        )
