"""Tests for the wire-format layers in repro.net."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.arp import ARP_REQUEST, ArpPacket
import repro.net.checksum as checksum_module
from repro.net.checksum import internet_checksum, pseudo_header
from repro.net.ethernet import (
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.net.icmp import ICMP_ECHO_REQUEST, IcmpMessage
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.net.ipx import IpxPacket
from repro.net.tcp import ACK, FIN, PSH, RST, SYN, TcpSegment, flags_to_str
from repro.net.udp import UdpDatagram


def _rfc1071(data: bytes) -> int:
    """The reference: sum 16-bit big-endian words (odd tail zero-padded),
    fold the carries back in, complement."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class TestChecksum:
    def test_known_header(self):
        header = bytes.fromhex("45000003") + b"\x00" * 16
        # Verifying a header with its own checksum inserted yields 0.
        checksum = internet_checksum(header)
        patched = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        assert internet_checksum(patched) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_all_zero(self):
        assert internet_checksum(b"\x00" * 20) == 0xFFFF

    @given(st.binary(min_size=0, max_size=200))
    def test_self_verifying(self, data):
        """Inserting the checksum makes the whole block sum to zero."""
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0

    @pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
    def test_matches_rfc1071_word_loop_at_every_length(self, fill):
        """Every length from 0 to 1600 — odd ones, and both sides of the
        split between the integer and the word-array sums."""
        block = {
            "random": random.Random(1071).randbytes(1600),
            "zeros": bytes(1600),
            "ones": b"\xff" * 1600,
        }[fill]
        for length in range(1601):
            data = block[:length]
            assert internet_checksum(data) == _rfc1071(data), length

    def test_long_buffers_without_numpy(self, monkeypatch):
        monkeypatch.setattr(checksum_module, "_np", None)
        block = random.Random(768).randbytes(1600)
        for length in (1023, 1024, 1025, 1026, 1499, 1500, 1600):
            assert internet_checksum(block[:length]) == _rfc1071(block[:length])
        assert internet_checksum(b"\xff" * 1500) == _rfc1071(b"\xff" * 1500)

    def test_pseudo_header_layout(self):
        pseudo = pseudo_header(0x0A000001, 0x0A000002, PROTO_TCP, 20)
        assert len(pseudo) == 12
        assert pseudo[9] == PROTO_TCP


class TestEthernet:
    def test_round_trip(self):
        frame = EthernetFrame(
            dst_mac=0x112233445566, src_mac=0xAABBCCDDEEFF,
            ethertype=ETHERTYPE_IPV4, payload=b"hello",
        )
        back = EthernetFrame.decode(frame.encode())
        assert back == frame

    def test_broadcast_flag(self):
        frame = EthernetFrame(BROADCAST_MAC, 1, ETHERTYPE_ARP, b"")
        assert frame.is_broadcast

    def test_too_short(self):
        with pytest.raises(ValueError):
            EthernetFrame.decode(b"\x00" * 10)


class TestArp:
    def test_round_trip(self):
        arp = ArpPacket(
            opcode=ARP_REQUEST, sender_mac=1, sender_ip=0x0A000001,
            target_mac=0, target_ip=0x0A000002,
        )
        assert ArpPacket.decode(arp.encode()) == arp

    def test_length(self):
        arp = ArpPacket(1, 1, 1, 0, 2)
        assert len(arp.encode()) == 28

    def test_rejects_non_ipv4_arp(self):
        data = bytearray(ArpPacket(1, 1, 1, 0, 2).encode())
        data[0] = 9  # bogus hardware type
        with pytest.raises(ValueError):
            ArpPacket.decode(bytes(data))

    def test_too_short(self):
        with pytest.raises(ValueError):
            ArpPacket.decode(b"\x00" * 10)


class TestIpx:
    def test_round_trip(self):
        ipx = IpxPacket(
            packet_type=0x04, dst_network=0, dst_node=0xFFFFFFFFFFFF,
            dst_socket=0x452, src_network=3, src_node=0xA0C912345678,
            src_socket=0x452, payload=b"SAP?",
        )
        back = IpxPacket.decode(ipx.encode())
        assert back == ipx

    def test_header_length(self):
        ipx = IpxPacket(0x11, 0, 1, 1, 0, 2, 2)
        assert len(ipx.encode()) == 30

    def test_rejects_bad_checksum_field(self):
        data = bytearray(IpxPacket(0x11, 0, 1, 1, 0, 2, 2).encode())
        data[0] = 0
        with pytest.raises(ValueError):
            IpxPacket.decode(bytes(data))


class TestIpv4:
    def test_round_trip(self):
        packet = Ipv4Packet(
            src_ip=0x83F30101, dst_ip=0x83F30202, proto=PROTO_UDP,
            payload=b"x" * 32, ttl=63, ident=99,
        )
        back = Ipv4Packet.decode(packet.encode(), verify_checksum=True)
        assert back.src_ip == packet.src_ip
        assert back.dst_ip == packet.dst_ip
        assert back.proto == PROTO_UDP
        assert back.payload == packet.payload
        assert back.ttl == 63
        assert back.total_length == 20 + 32

    def test_checksum_valid(self):
        packet = Ipv4Packet(1, 2, PROTO_TCP, b"abc")
        header = packet.encode()[:20]
        assert internet_checksum(header) == 0

    def test_checksum_verification_fails_on_corruption(self):
        data = bytearray(Ipv4Packet(1, 2, PROTO_TCP, b"abc").encode())
        data[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(ValueError):
            Ipv4Packet.decode(bytes(data), verify_checksum=True)

    def test_rejects_non_v4(self):
        data = bytearray(Ipv4Packet(1, 2, 6).encode())
        data[0] = 0x65  # version 6
        with pytest.raises(ValueError):
            Ipv4Packet.decode(bytes(data))

    def test_truncated_payload_keeps_total_length(self):
        packet = Ipv4Packet(1, 2, PROTO_UDP, b"y" * 100)
        truncated = packet.encode()[:60]
        back = Ipv4Packet.decode(truncated)
        assert back.total_length == 120
        assert len(back.payload) == 40


class TestTcp:
    def test_round_trip(self):
        segment = TcpSegment(
            src_port=40000, dst_port=80, seq=1000, ack=2000,
            flags=ACK | PSH, payload=b"GET /", window=8192, mss=1460,
        )
        back = TcpSegment.decode(segment.encode(0x0A000001, 0x0A000002))
        assert back.src_port == 40000
        assert back.dst_port == 80
        assert back.seq == 1000
        assert back.ack == 2000
        assert back.flags == ACK | PSH
        assert back.payload == b"GET /"
        assert back.mss == 1460

    def test_no_mss_without_option(self):
        segment = TcpSegment(1, 2, 0, 0, ACK)
        assert TcpSegment.decode(segment.encode(1, 2)).mss is None

    def test_checksum_covers_pseudo_header(self):
        a = TcpSegment(1, 2, 0, 0, SYN).encode(0x0A000001, 0x0A000002)
        b = TcpSegment(1, 2, 0, 0, SYN).encode(0x0A000001, 0x0A000003)
        assert a[16:18] != b[16:18]  # different dst ip -> different checksum

    def test_flags_to_str(self):
        assert flags_to_str(SYN | ACK) == "SA"
        assert flags_to_str(FIN | RST) == "FR"
        assert TcpSegment(1, 2, 0, 0, SYN).flag_str == "S"

    def test_too_short(self):
        with pytest.raises(ValueError):
            TcpSegment.decode(b"\x00" * 10)

    def test_option_parsing_skips_unknown(self):
        # NOP, NOP, MSS
        options = b"\x01\x01\x02\x04\x05\xb4"
        assert TcpSegment._parse_mss(options) == 1460

    def test_option_parsing_handles_garbage(self):
        assert TcpSegment._parse_mss(b"\x09\x00") is None


class TestUdp:
    def test_round_trip(self):
        datagram = UdpDatagram(src_port=53, dst_port=33000, payload=b"answer")
        back = UdpDatagram.decode(datagram.encode(1, 2))
        assert back == datagram

    def test_length_field(self):
        data = UdpDatagram(1, 2, b"abc").encode(1, 2)
        assert int.from_bytes(data[4:6], "big") == 11

    def test_zero_checksum_becomes_ffff(self):
        # A two-byte payload equal to the checksum of the same datagram
        # with a zero payload makes the word sum 0xFFFF: the computed
        # checksum is 0, which RFC 768 reserves for "no checksum".
        src, dst, length = 0x0A000001, 0x0A000002, 10
        zeroed = pseudo_header(src, dst, PROTO_UDP, length) + bytes(
            [0x04, 0xD2, 0x16, 0x2E, 0, length, 0, 0, 0, 0]
        )
        payload = internet_checksum(zeroed).to_bytes(2, "big")
        data = UdpDatagram(1234, 5678, payload).encode(src, dst)
        assert internet_checksum(zeroed[:-2] + payload) == 0
        assert data[6:8] == b"\xff\xff"

    def test_too_short(self):
        with pytest.raises(ValueError):
            UdpDatagram.decode(b"\x00" * 4)


class TestIcmp:
    def test_round_trip(self):
        msg = IcmpMessage(ICMP_ECHO_REQUEST, 0, ident=7, sequence=3, payload=b"ping")
        back = IcmpMessage.decode(msg.encode())
        assert back == msg
        assert back.is_echo

    def test_checksum_valid(self):
        encoded = IcmpMessage(8, 0, 1, 1, b"x").encode()
        assert internet_checksum(encoded) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            IcmpMessage.decode(b"\x08\x00")
