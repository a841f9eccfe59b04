"""The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.

Every IPv4/TCP/UDP/ICMP header the generator emits carries a correct
checksum, and the analysis engine can verify them; this keeps the pcap
files honest enough to be inspected with standard tools.
"""

from __future__ import annotations

import struct

try:  # numpy speeds up the word sum of long buffers; stdlib works without it
    import numpy as _np

    _WORD_DTYPE = _np.dtype(">u2")
except ImportError:  # pragma: no cover - numpy is present in the dev env
    _np = None
    _WORD_DTYPE = None

__all__ = ["PSEUDO_HEADER_FORMAT", "internet_checksum", "pseudo_header"]

#: Buffers up to this many bytes, and every buffer without numpy, are
#: summed as one Python integer; numpy wins only on full-size segments.
_INT_SUM_MAX = 1024

#: The IPv4 pseudo-header (source, destination, zero, protocol, length)
#: as a ``struct`` format, so the TCP and UDP encoders can pack it in the
#: same call as their own header.
PSEUDO_HEADER_FORMAT = "!IIxBH"

_PSEUDO_HEADER = struct.Struct(PSEUDO_HEADER_FORMAT)


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    The generator checksums every header it emits, so this is on the
    hottest path of trace generation.  Short buffers — almost all of
    them — are read as one big-endian integer: since 2**16 = 1 (mod
    0xFFFF), that integer is congruent to the sum of its 16-bit words,
    and the end-around-carry fold of a non-zero sum is its residue mod
    0xFFFF, with 0xFFFF standing for 0.  Long buffers sum their words
    under numpy when it is installed.
    """
    if _np is None or len(data) <= _INT_SUM_MAX:
        total = int.from_bytes(data, "big")
        if len(data) % 2:
            total <<= 8  # pad the odd trailing byte with zero
        folded = total % 0xFFFF
        if folded == 0 and total:
            folded = 0xFFFF
        return ~folded & 0xFFFF
    if len(data) % 2:
        data += b"\x00"
    total = int(_np.frombuffer(data, dtype=_WORD_DTYPE).sum(dtype=_np.uint64))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, proto: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used in TCP/UDP checksums."""
    return _PSEUDO_HEADER.pack(src_ip, dst_ip, proto, length)
