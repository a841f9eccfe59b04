"""Host calibration: a fixed reference loop run beside every sample.

On a shared host the machine's speed drifts, within a run as well as
between runs, while the program's cost relative to the machine holds.
So a probe process runs a small fixed reference loop every
``PROBE_PERIOD_S`` on the CPU the workload runs on, for the whole run.
A sample's wall time is scaled by ``NOMINAL_REF_S / ref``, where ``ref``
is the median probe reading taken while the sample ran
(:class:`Calibrator`).  Readings from the same CPU, taken during the
sample, track the sample's speed far better than readings taken before
and after it.

A reading is the CPU time the probe spent on one loop, not its wall
time, so time the probe waits while the workload holds the CPU does
not enter it: how much of the CPU the workload occupies, and how many
CPUs it keeps busy, leave the reference alone (README.md, "Does the
calibration leave the program alone?").

This module imports nothing from ``repro`` and nothing outside the
standard library, so no change to the program under test can move it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

__all__ = ["NOMINAL_REF_S", "Calibrator", "StealMeter", "reading", "reference_s"]

#: One probe reading on the host the benchmark was sized on
#: (2 cores, Python 3.11).  Calibrated times are in "seconds of that
#: host"; changing this constant rescales every timing, so it is fixed.
NOMINAL_REF_S = 0.0013

#: Packets per reading; one reading takes about ``NOMINAL_REF_S`` on the
#: sizing host.
PROBE_PACKETS = 200
#: Pause between readings: a probe uses about 6% of its CPU.
PROBE_PERIOD_S = 0.02

_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBHII")
_TCP = struct.Struct("!HHIIBBHHH")
_PAYLOAD = bytes(range(256)) * 8


def _ref_once(packets: int) -> int:
    """A miniature of the pipeline in pure Python: encode TCP/IPv4
    frames with a header checksum into pcap-style records, then parse
    them back into a flow table keyed by the canonical 4-tuple."""
    out = bytearray()
    for i in range(packets):
        size = (i * 37) % 600
        src = 0x0A000000 | (i * 13 & 0xFF)
        dst = 0x0A010000 | (i * 7 & 0xFF)
        tcp = _TCP.pack(1024 + (i & 0x3FF), 80, i * 1460 & 0xFFFFFFFF, 0, 0x50, 0x18, 65535, 0, 0)
        ip = _IPV4.pack(0x45, 0, 40 + size, i & 0xFFFF, 0, 64, 6, 0, src, dst)
        total = 0
        for j in range(0, 20, 2):
            total += (ip[j] << 8) | ip[j + 1]
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        frame = ip + tcp + _PAYLOAD[i % 512 : i % 512 + size]
        out += _RECORD.pack(i // 100, total, len(frame), len(frame))
        out += frame
    flows: dict[tuple, list] = {}
    pos = 0
    while pos < len(out):
        ts, _, caplen, wire = _RECORD.unpack_from(out, pos)
        pos += 16
        ip = _IPV4.unpack_from(out, pos)
        tcp = _TCP.unpack_from(out, pos + 20)
        if ip[8] < ip[9]:
            key = (ip[8], ip[9], tcp[0], tcp[1])
        else:
            key = (ip[9], ip[8], tcp[1], tcp[0])
        entry = flows.get(key)
        if entry is None:
            entry = flows[key] = [0, 0, ts]
        entry[0] += 1
        entry[1] += wire
        pos += caplen
    return len(flows)


def reading() -> float:
    """One reference reading: the CPU time of one loop (s)."""
    started = time.thread_time()
    _ref_once(PROBE_PACKETS)
    return time.thread_time() - started


def reference_s(repeats: int = 5) -> float:
    """Median of ``repeats`` reference readings (s)."""
    return statistics.median(reading() for _ in range(repeats))


def probe(cpu: int | None) -> None:
    """Probe process body: pin to ``cpu`` and print one reading per
    line, ``<start> <reading>``, until terminated or until the reader
    goes away (the write then fails, so a killed benchmark leaves no
    probe behind)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        while True:
            started = time.perf_counter()
            print(f"{started!r} {reading()!r}", flush=True)
            time.sleep(PROBE_PERIOD_S)
    except BrokenPipeError:
        os._exit(0)


class StealMeter:
    """Share of CPU time the hypervisor stole between two readings,
    from the aggregate ``cpu`` line of ``/proc/stat``.  Reads as 0.0
    where the file is absent."""

    def __init__(self) -> None:
        self._last = self._read()

    @staticmethod
    def _read() -> tuple[int, int] | None:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                fields = handle.readline().split()
        except OSError:
            return None
        if not fields or fields[0] != "cpu":
            return None
        values = [int(value) for value in fields[1:9]]
        steal = values[7] if len(values) > 7 else 0
        return steal, sum(values)

    def share(self) -> float:
        """Steal share since the previous call (or construction)."""
        now = self._read()
        last, self._last = self._last, now
        if now is None or last is None or now[1] <= last[1]:
            return 0.0
        return (now[0] - last[0]) / (now[1] - last[1])


@dataclass
class Sample:
    """One timed sample: raw wall time, the median probe reading and
    reading count over it, the steal share, and its calibrated time."""

    label: str
    raw_s: float
    ref_s: float
    ref_n: int
    steal_share: float
    items: int = 0

    @property
    def scale(self) -> float:
        return NOMINAL_REF_S / self.ref_s

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.scale

    def record(self) -> dict:
        return {
            "label": self.label,
            "raw_s": self.raw_s,
            "calibrated_s": self.calibrated_s,
            "ref_s": self.ref_s,
            "ref_n": self.ref_n,
            "steal_share": self.steal_share,
            "items": self.items,
        }


class Calibrator:
    """Probes the host for the whole run and calibrates samples.

    With ``pin`` the benchmark process moves to one CPU and a single
    probe shares it (single-process workloads).  Otherwise one probe
    runs on each of up to two CPUs and a sample is calibrated by the
    median over both (workloads that use several processes).
    """

    def __init__(self, pin: bool) -> None:
        try:
            cpus = sorted(os.sched_getaffinity(0))[:2]
        except AttributeError:  # no affinity control on this platform
            cpus = [None]
        if pin and cpus[0] is not None:
            os.sched_setaffinity(0, {cpus[0]})
        if pin:
            cpus = cpus[:1]
        self.cpus = cpus
        self._procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--probe", str(-1 if cpu is None else cpu)],
                stdout=subprocess.PIPE,
            )
            for cpu in cpus
        ]
        self._partial = {}
        for process in self._procs:
            os.set_blocking(process.stdout.fileno(), False)
            self._partial[process.pid] = b""
        self.readings: list[tuple[float, float]] = []
        self.steal = StealMeter()
        self.samples: list[Sample] = []

    def _drain(self) -> None:
        """Collect the probes' readings so far without blocking."""
        for process in self._procs:
            chunks = [self._partial[process.pid]]
            while True:
                try:
                    chunk = os.read(process.stdout.fileno(), 65536)
                except BlockingIOError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
            *lines, self._partial[process.pid] = b"".join(chunks).split(b"\n")
            for line in lines:
                started, duration = line.split()
                self.readings.append((float(started), float(duration)))
        self.readings.sort()

    def ref_between(self, start: float, end: float, least: int = 5) -> tuple[float, int]:
        """Median reading that began in ``[start, end]``; a short
        interval borrows the ``least`` readings nearest its middle."""
        self._drain()
        starts = [reading[0] for reading in self.readings]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        if hi - lo < least:
            middle = bisect.bisect_left(starts, (start + end) / 2)
            lo = max(0, middle - least // 2 - 1)
            hi = min(len(starts), lo + least)
        chosen = [duration for _, duration in self.readings[lo:hi]]
        if not chosen:
            return reference_s(), 0
        return statistics.median(chosen), len(chosen)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every probe has reported several readings."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self._drain()
            if len(self.readings) >= 10 * len(self._procs):
                return
            time.sleep(0.05)
        raise RuntimeError("reference probe did not start")

    def time(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` as one sample; returns ``(result, Sample)``."""
        self.steal.share()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        ended = time.perf_counter()
        steal = self.steal.share()
        ref, count = self.ref_between(started, ended)
        sample = Sample(label, ended - started, ref, count, steal)
        self.samples.append(sample)
        return result, sample

    def close(self) -> None:
        """Stop the probes and wait for them to exit."""
        for process in self._procs:
            process.terminate()
        for process in self._procs:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()

    def host_summary(self, samples: list[Sample] | None = None) -> dict:
        """``host.ref_ms`` (median and quartile spread of the readings
        taken during the samples) and the median steal share."""
        samples = self.samples if samples is None else samples
        if not samples:
            return {"ref_ms": 0.0, "ref_spread": 0.0, "steal_share": 0.0}
        refs = [s.ref_s * 1000 for s in samples]
        median = statistics.median(refs)
        q1, _, q3 = statistics.quantiles(refs, n=4) if len(refs) >= 2 else (median,) * 3
        return {
            "ref_ms": median,
            "ref_spread": (q3 - q1) / median,
            "steal_share": statistics.median(s.steal_share for s in samples),
        }


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        cpu = int(sys.argv[2])
        probe(None if cpu < 0 else cpu)
