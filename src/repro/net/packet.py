"""High-level packet model: crafting helpers and a flat decoder.

The generator crafts :class:`CapturedPacket` objects (full wire bytes plus
a capture timestamp); the capture model may truncate them to the dataset's
snaplen; the analysis engine turns each back into a flat
:class:`DecodedPacket` with every field the paper's analyses need.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .arp import ArpPacket
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPX,
    EthernetFrame,
)
from .icmp import IcmpMessage
from .ipv4 import IPV4_HEADER_LEN, PROTO_ICMP, PROTO_TCP, PROTO_UDP, encode_frame_header
from .ipx import IpxPacket
from .tcp import encode_tcp_frame
from .udp import encode_udp_frame

__all__ = [
    "CapturedPacket",
    "DecodedPacket",
    "decode_packet",
    "make_tcp_packet",
    "make_udp_packet",
    "make_icmp_packet",
    "make_arp_packet",
    "make_ipx_packet",
]


@dataclass(frozen=True)
class CapturedPacket:
    """A packet as it appears in a trace file.

    ``data`` holds the captured bytes (possibly truncated to the snaplen);
    ``wire_len`` is the original on-the-wire length.
    """

    ts: float
    data: bytes
    wire_len: int

    @property
    def caplen(self) -> int:
        """Number of bytes actually captured."""
        return len(self.data)

    @property
    def truncated(self) -> bool:
        """True when the capture dropped trailing bytes."""
        return self.caplen < self.wire_len

    def truncate(self, snaplen: int) -> "CapturedPacket":
        """Return a copy limited to ``snaplen`` captured bytes."""
        if self.caplen <= snaplen:
            return self
        return CapturedPacket(ts=self.ts, data=self.data[:snaplen], wire_len=self.wire_len)


@dataclass
class DecodedPacket:
    """A flat, analysis-friendly view of one captured packet.

    Transport fields are ``None`` when the packet is not IP or the capture
    was too short to parse them.  ``payload`` holds the *captured* L4
    payload bytes while ``payload_len`` holds the true on-the-wire L4
    payload length recovered from the IP total-length field — the
    distinction is what lets byte accounting stay correct for the
    header-only (snaplen 68) datasets D1 and D2.
    """

    ts: float
    wire_len: int
    caplen: int
    ethertype: int
    src_mac: int = 0
    dst_mac: int = 0
    # IPv4
    src_ip: int | None = None
    dst_ip: int | None = None
    proto: int | None = None
    ttl: int = 0
    # TCP/UDP
    src_port: int | None = None
    dst_port: int | None = None
    tcp_flags: int = 0
    seq: int = 0
    ack: int = 0
    payload: bytes = b""
    payload_len: int = 0
    # ICMP
    icmp_type: int | None = None
    icmp_code: int = 0
    #: True for frames too short to carry an Ethernet header; every other
    #: field is meaningless and the packet belongs in error accounting,
    #: not in flow or byte accounting.
    runt: bool = False

    @property
    def truncated(self) -> bool:
        """True when the capture dropped trailing bytes."""
        return self.caplen < self.wire_len

    @property
    def is_ip(self) -> bool:
        """True for IPv4 packets."""
        return self.ethertype == ETHERTYPE_IPV4

    @property
    def payload_truncated(self) -> bool:
        """True when some L4 payload bytes were not captured."""
        return len(self.payload) < self.payload_len


_ETH_UNPACK = struct.Struct("!6s6sH").unpack_from
_IP_UNPACK = struct.Struct("!BBHHHBBH4s4s").unpack_from
_TCP_UNPACK = struct.Struct("!HHIIBBH").unpack_from
_UDP_UNPACK = struct.Struct("!HHHH").unpack_from
_FROM_BYTES = int.from_bytes


def decode_packet(pkt: CapturedPacket) -> DecodedPacket:
    """Decode a captured packet down to the transport layer.

    Never raises on truncation: fields that cannot be recovered are left
    at their defaults, mirroring how a real trace analyzer must cope with
    snaplen-limited captures.  Frames too short to even carry an Ethernet
    header come back flagged ``runt`` (ethertype -1) so callers can count
    them in the error taxonomy instead of crashing the trace.  This
    parses header fields inline (rather than via the layer dataclasses)
    because it runs once per packet over whole traces.
    """
    data = pkt.data
    if len(data) < 14:
        return DecodedPacket(
            ts=pkt.ts,
            wire_len=pkt.wire_len,
            caplen=pkt.caplen,
            ethertype=-1,
            runt=True,
        )
    dst_mac, src_mac, ethertype = _ETH_UNPACK(data)
    out = DecodedPacket(
        ts=pkt.ts,
        wire_len=pkt.wire_len,
        caplen=pkt.caplen,
        ethertype=ethertype,
        src_mac=_FROM_BYTES(src_mac, "big"),
        dst_mac=_FROM_BYTES(dst_mac, "big"),
    )
    if ethertype != ETHERTYPE_IPV4 or len(data) < 14 + IPV4_HEADER_LEN:
        return out
    (version_ihl, _tos, total, _ident, _ff, ttl, proto, _cksum, src, dst) = _IP_UNPACK(
        data, 14
    )
    if version_ihl >> 4 != 4:
        return out
    ihl = (version_ihl & 0xF) * 4
    out.src_ip = _FROM_BYTES(src, "big")
    out.dst_ip = _FROM_BYTES(dst, "big")
    out.proto = proto
    out.ttl = ttl
    l4_offset = 14 + ihl
    wire_l4_len = max(total - ihl, 0)
    if proto == PROTO_TCP:
        _decode_tcp(out, data, l4_offset, wire_l4_len)
    elif proto == PROTO_UDP:
        _decode_udp(out, data, l4_offset, wire_l4_len)
    elif proto == PROTO_ICMP:
        _decode_icmp(out, data, l4_offset)
    return out


def _decode_tcp(out: DecodedPacket, data: bytes, offset: int, wire_l4_len: int) -> None:
    if len(data) < offset + 20:
        return
    src_port, dst_port, seq, ack, offset_reserved, flags, _window = _TCP_UNPACK(
        data, offset
    )
    header_len = (offset_reserved >> 4) * 4
    if header_len < 20:
        return
    out.src_port = src_port
    out.dst_port = dst_port
    out.tcp_flags = flags
    out.seq = seq
    out.ack = ack
    out.payload = data[offset + header_len :]
    out.payload_len = max(wire_l4_len - header_len, 0)


def _decode_udp(out: DecodedPacket, data: bytes, offset: int, wire_l4_len: int) -> None:
    if len(data) < offset + 8:
        return
    src_port, dst_port, length, _checksum = _UDP_UNPACK(data, offset)
    out.src_port = src_port
    out.dst_port = dst_port
    out.payload = data[offset + 8 : offset + max(length, 8)]
    out.payload_len = max(min(length, wire_l4_len) - 8, 0)


def _decode_icmp(out: DecodedPacket, data: bytes, offset: int) -> None:
    if len(data) < offset + 8:
        return
    out.icmp_type = data[offset]
    out.icmp_code = data[offset + 1]
    out.payload = data[offset + 8 :]
    out.payload_len = len(out.payload)


def make_tcp_packet(
    ts: float,
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
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/TCP packet."""
    data = encode_tcp_frame(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload,
        mss, ttl, ident,
    )
    return CapturedPacket(ts, data, len(data))


def make_udp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    ttl: int = 64,
    ident: int = 0,
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/UDP packet."""
    data = encode_udp_frame(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, ttl, ident
    )
    return CapturedPacket(ts, data, len(data))


def make_icmp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    icmp_type: int,
    code: int = 0,
    ident: int = 0,
    sequence: int = 0,
    payload: bytes = b"",
    ttl: int = 64,
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/ICMP packet."""
    msg = IcmpMessage(
        icmp_type=icmp_type, code=code, ident=ident, sequence=sequence, payload=payload
    )
    message = msg.encode()
    data = (
        encode_frame_header(src_mac, dst_mac, src_ip, dst_ip, PROTO_ICMP, len(message), ttl)
        + message
    )
    return CapturedPacket(ts=ts, data=data, wire_len=len(data))


def make_arp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    opcode: int,
    sender_mac: int,
    sender_ip: int,
    target_mac: int,
    target_ip: int,
) -> CapturedPacket:
    """Craft a full Ethernet/ARP packet."""
    arp = ArpPacket(
        opcode=opcode,
        sender_mac=sender_mac,
        sender_ip=sender_ip,
        target_mac=target_mac,
        target_ip=target_ip,
    )
    frame = EthernetFrame(
        dst_mac=dst_mac, src_mac=src_mac, ethertype=ETHERTYPE_ARP, payload=arp.encode()
    )
    data = frame.encode()
    # ARP frames are padded to the 60-byte Ethernet minimum on the wire.
    wire_len = max(len(data), 60)
    return CapturedPacket(ts=ts, data=data, wire_len=wire_len)


def make_ipx_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    ipx: IpxPacket,
) -> CapturedPacket:
    """Craft a full Ethernet/IPX packet."""
    frame = EthernetFrame(
        dst_mac=dst_mac, src_mac=src_mac, ethertype=ETHERTYPE_IPX, payload=ipx.encode()
    )
    data = frame.encode()
    wire_len = max(len(data), 60)
    return CapturedPacket(ts=ts, data=data, wire_len=wire_len)
