"""Tests for the high-level packet model (craft + flat decode)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, pseudo_header
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_IPX, EthernetFrame
from repro.net.icmp import ICMP_ECHO_REQUEST
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.net.ipx import IpxPacket
from repro.net.packet import (
    CapturedPacket,
    decode_packet,
    make_arp_packet,
    make_icmp_packet,
    make_ipx_packet,
    make_tcp_packet,
    make_udp_packet,
)
from repro.net.tcp import ACK, PSH, SYN, TcpSegment
from repro.net.udp import UdpDatagram


class TestCapturedPacket:
    def test_truncate(self):
        pkt = CapturedPacket(ts=1.0, data=b"x" * 100, wire_len=100)
        cut = pkt.truncate(68)
        assert cut.caplen == 68
        assert cut.wire_len == 100
        assert cut.truncated

    def test_truncate_noop_when_short(self):
        pkt = CapturedPacket(ts=1.0, data=b"x" * 50, wire_len=50)
        assert pkt.truncate(68) is pkt


class TestTcpCraftDecode:
    def test_fields_survive(self):
        pkt = make_tcp_packet(
            ts=2.5, src_mac=0xA, dst_mac=0xB,
            src_ip=0x83F30101, dst_ip=0x83F30202,
            src_port=44000, dst_port=25, seq=777, ack=888,
            flags=ACK | PSH, payload=b"MAIL FROM:<a@b>\r\n",
        )
        d = decode_packet(pkt)
        assert d.ts == 2.5
        assert d.src_mac == 0xA and d.dst_mac == 0xB
        assert d.src_ip == 0x83F30101 and d.dst_ip == 0x83F30202
        assert d.proto == PROTO_TCP
        assert (d.src_port, d.dst_port) == (44000, 25)
        assert (d.seq, d.ack) == (777, 888)
        assert d.tcp_flags == ACK | PSH
        assert d.payload == b"MAIL FROM:<a@b>\r\n"
        assert d.payload_len == len(d.payload)

    def test_syn_with_mss(self):
        pkt = make_tcp_packet(1, 1, 2, 3, 4, 5, 6, 0, 0, SYN, mss=1460)
        d = decode_packet(pkt)
        assert d.tcp_flags == SYN
        assert d.payload_len == 0

    def test_full_mss_wire_len(self):
        pkt = make_tcp_packet(1, 1, 2, 3, 4, 5, 6, 0, 0, ACK, payload=b"z" * 1460)
        assert pkt.wire_len == 14 + 20 + 20 + 1460

    def test_snaplen_68_recovers_transport_header(self):
        """The D1/D2 scenario: headers survive, payload does not."""
        pkt = make_tcp_packet(1, 1, 2, 3, 4, 5, 80, 9, 0, ACK | PSH, payload=b"w" * 1000)
        d = decode_packet(pkt.truncate(68))
        assert d.src_port == 5 and d.dst_port == 80
        assert d.payload_len == 1000  # true length recovered from IP header
        assert len(d.payload) < 1000
        assert d.payload_truncated

    def test_snaplen_1500_truncates_full_mss_frame(self):
        """A 1514-byte frame under snaplen 1500 loses 14 payload bytes."""
        pkt = make_tcp_packet(1, 1, 2, 3, 4, 5, 80, 9, 0, ACK, payload=b"w" * 1460)
        d = decode_packet(pkt.truncate(1500))
        assert d.payload_len == 1460
        assert len(d.payload) == 1446


class TestUdpCraftDecode:
    def test_fields_survive(self):
        pkt = make_udp_packet(3.0, 1, 2, 10, 20, 5353, 53, payload=b"query")
        d = decode_packet(pkt)
        assert d.proto == PROTO_UDP
        assert (d.src_port, d.dst_port) == (5353, 53)
        assert d.payload == b"query"

    def test_truncated_udp(self):
        pkt = make_udp_packet(1, 1, 2, 3, 4, 5, 6, payload=b"u" * 500)
        d = decode_packet(pkt.truncate(68))
        assert d.payload_len == 500
        assert len(d.payload) < 500


class TestIcmpCraftDecode:
    def test_fields_survive(self):
        pkt = make_icmp_packet(1.0, 1, 2, 3, 4, ICMP_ECHO_REQUEST, ident=9, sequence=2)
        d = decode_packet(pkt)
        assert d.proto == PROTO_ICMP
        assert d.icmp_type == ICMP_ECHO_REQUEST


class TestNonIpDecode:
    def test_arp(self):
        pkt = make_arp_packet(1.0, 5, 0xFFFFFFFFFFFF, 1, 5, 100, 0, 200)
        d = decode_packet(pkt)
        assert d.ethertype == ETHERTYPE_ARP
        assert d.src_ip is None
        assert not d.is_ip
        assert pkt.wire_len == 60  # padded to Ethernet minimum

    def test_ipx(self):
        ipx = IpxPacket(0x04, 0, 1, 1, 0, 2, 2, payload=b"sap")
        pkt = make_ipx_packet(1.0, 2, 0xFFFFFFFFFFFF, ipx)
        d = decode_packet(pkt)
        assert d.ethertype == ETHERTYPE_IPX
        assert d.proto is None

    def test_runt_frame_flagged_not_raised(self):
        decoded = decode_packet(CapturedPacket(ts=0.0, data=b"\x00" * 8, wire_len=8))
        assert decoded.runt
        assert decoded.ethertype == -1
        assert decoded.caplen == 8
        assert not decoded.is_ip


@given(
    sport=st.integers(min_value=1, max_value=65535),
    dport=st.integers(min_value=1, max_value=65535),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=1460),
)
def test_tcp_craft_decode_property(sport, dport, seq, payload):
    """Any crafted TCP packet decodes back to its inputs."""
    pkt = make_tcp_packet(0.0, 1, 2, 3, 4, sport, dport, seq, 0, ACK, payload=payload)
    d = decode_packet(pkt)
    assert d.src_port == sport
    assert d.dst_port == dport
    assert d.seq == seq
    assert d.payload == payload


# -- the one-pass frame encoders ----------------------------------------

_A_MAC, _B_MAC = 0x00A0C9000001, 0x00A0C9000102
_A_IP, _B_IP = 0x83F30105, 0x83F30206

#: Encoder cases with their wire bytes as the layer-by-layer encoders
#: (Ethernet, IPv4, TCP/UDP dataclasses, each checksummed separately)
#: produced them before the one-pass encoders replaced that chain.
_TCP_FRAMES = {
    "syn-mss": (
        dict(src_port=40000, dst_port=80, seq=1000, ack=0, flags=SYN, mss=1460),
        "00a0c900010200a0c900000108004500002c0000400040062fdb83f3010583f302069c40"
        "0050000003e8000000006002ffffecbc0000020405b4",
    ),
    "data-psh": (
        dict(src_port=40000, dst_port=80, seq=1001, ack=5001, flags=ACK | PSH,
             payload=b"GET / HTTP/1.0\r\n\r\n"),
        "00a0c900010200a0c900000108004500003a0000400040062fcd83f3010583f302069c40"
        "0050000003e9000013895018ffff12270000474554202f20485454502f312e300d0a0d0a",
    ),
    "keepalive": (
        dict(src_port=524, dst_port=1025, seq=77, ack=88, flags=ACK, payload=b"\x00"),
        "00a0c900010200a0c90000010800450000290000400040062fde83f3010583f30206020c"
        "04010000004d000000585010ffff9e30000000",
    ),
    "seq-ack-past-2**32": (
        dict(src_port=1, dst_port=2, seq=(1 << 32) + 5, ack=(3 << 32) + 9, flags=ACK),
        "00a0c900010200a0c90000010800450000280000400040062fdf83f3010583f302060001"
        "000200000005000000095010ffffa4d20000",
    ),
    "ident-ttl": (
        dict(src_port=2049, dst_port=800, seq=1, ack=2, flags=ACK, payload=b"xyz",
             ttl=3, ident=0x1ABCD),
        "00a0c900010200a0c900000108004500002babcd40000306c10e83f3010583f302060801"
        "032000000001000000025010ffffa742000078797a",
    ),
}

_UDP_FRAMES = {
    "dns": (
        dict(src_port=33000, dst_port=53, payload=b"\x12\x34\x01\x00"),
        "00a0c900010200a0c90000010800450000200000400040112fdc83f3010583f3020680e8"
        "0035000c609312340100",
    ),
    "empty": (
        dict(src_port=1, dst_port=2),
        "00a0c900010200a0c900000108004500001c0000400040112fe083f3010583f302060001"
        "00020008f4e9",
    ),
    "ident-ttl": (
        dict(src_port=137, dst_port=137, payload=b"abcde", ttl=1, ident=70000),
        "00a0c900010200a0c90000010800450000211170400001115d6b83f3010583f302060089"
        "0089000dca096162636465",
    ),
    # The payload is the checksum of the same datagram with a zero
    # payload, so the word sum is 0xFFFF and the computed checksum 0,
    # which RFC 768 reserves for "none": it goes out as 0xFFFF.
    "checksum-folds-to-zero": (
        dict(src_port=1234, dst_port=5678, payload=b"\xd9\xe8"),
        "00a0c900010200a0c900000108004500001e0000400040112fde83f3010583f3020604d2"
        "162e000affffd9e8",
    ),
}


def _composed(proto: int, transport: bytes, ttl: int = 64, ident: int = 0) -> bytes:
    ip = Ipv4Packet(src_ip=_A_IP, dst_ip=_B_IP, proto=proto, payload=transport,
                    ttl=ttl, ident=ident)
    return EthernetFrame(dst_mac=_B_MAC, src_mac=_A_MAC, ethertype=ETHERTYPE_IPV4,
                         payload=ip.encode()).encode()


def _checksums_verify(data: bytes) -> bool:
    """Both checksums verify from first principles (RFC 1071 sums to 0)."""
    ip_header = data[14:34]
    transport = data[34:]
    pseudo = pseudo_header(_A_IP, _B_IP, ip_header[9], len(transport))
    return internet_checksum(ip_header) == 0 and internet_checksum(pseudo + transport) == 0


@pytest.mark.parametrize("case", sorted(_TCP_FRAMES))
def test_tcp_encoder_matches_layer_composition(case):
    fields, wire_hex = _TCP_FRAMES[case]
    fields = dict(fields)
    ttl, ident = fields.pop("ttl", 64), fields.pop("ident", 0)
    pkt = make_tcp_packet(0.0, _A_MAC, _B_MAC, _A_IP, _B_IP, ttl=ttl, ident=ident, **fields)
    segment = TcpSegment(**fields).encode(_A_IP, _B_IP)
    assert pkt.data == _composed(PROTO_TCP, segment, ttl, ident)
    assert pkt.data.hex() == wire_hex
    assert pkt.wire_len == len(pkt.data)
    assert _checksums_verify(pkt.data)


@pytest.mark.parametrize("case", sorted(_UDP_FRAMES))
def test_udp_encoder_matches_layer_composition(case):
    fields, wire_hex = _UDP_FRAMES[case]
    fields = dict(fields)
    ttl, ident = fields.pop("ttl", 64), fields.pop("ident", 0)
    pkt = make_udp_packet(0.0, _A_MAC, _B_MAC, _A_IP, _B_IP, ttl=ttl, ident=ident, **fields)
    datagram = UdpDatagram(**fields).encode(_A_IP, _B_IP)
    assert pkt.data == _composed(PROTO_UDP, datagram, ttl, ident)
    assert pkt.data.hex() == wire_hex
    assert _checksums_verify(pkt.data)

