"""Tests for the tap schedule and dataset generation (repro.gen.capture)."""

import hashlib
from pathlib import Path

import pytest

from repro.gen.capture import generate_dataset, generate_study, schedule_windows
from repro.gen.datasets import DATASET_ORDER, DATASETS
from repro.net.packet import decode_packet
from repro.pcap.reader import PcapReader


class TestSchedule:
    def test_window_counts(self, enterprise):
        assert len(schedule_windows(DATASETS["D0"], enterprise)) == 22
        assert len(schedule_windows(DATASETS["D1"], enterprise)) == 44
        assert len(schedule_windows(DATASETS["D3"], enterprise)) == 18

    def test_two_subnets_at_a_time(self, enterprise):
        windows = schedule_windows(DATASETS["D0"], enterprise)
        by_slot: dict[float, list[int]] = {}
        for window in windows:
            by_slot.setdefault(window.t0, []).append(window.subnet_index)
        assert all(len(subnets) == 2 for subnets in by_slot.values())

    def test_windows_cover_all_router_subnets(self, enterprise):
        windows = schedule_windows(DATASETS["D3"], enterprise)
        covered = {w.subnet_index for w in windows}
        router1 = {s.index for s in enterprise.subnets_of_router(1)}
        assert covered == router1

    def test_durations_match_config(self, enterprise):
        for name in DATASET_ORDER:
            config = DATASETS[name]
            for window in schedule_windows(config, enterprise):
                assert window.duration == config.tap_seconds

    def test_rounds_do_not_overlap(self, enterprise):
        windows = schedule_windows(DATASETS["D1"], enterprise)
        slots = sorted({(w.t0, w.t1) for w in windows})
        for (t0_a, t1_a), (t0_b, _t1_b) in zip(slots, slots[1:]):
            assert t0_b >= t1_a


class TestGenerateDataset:
    def test_writes_trace_files(self, enterprise, tmp_path):
        traces = generate_dataset("D0", enterprise, tmp_path, seed=1, scale=0.002,
                                  max_windows=4)
        assert len(traces.traces) == 4
        for trace in traces.traces:
            assert Path(trace.path).exists()
            assert trace.packet_count > 0
        assert traces.total_packets == sum(t.packet_count for t in traces.traces)

    def test_snaplen_applied(self, enterprise, tmp_path):
        traces = generate_dataset("D1", enterprise, tmp_path, seed=1, scale=0.002,
                                  max_windows=2)
        with PcapReader.open(traces.traces[0].path) as reader:
            assert reader.snaplen == 68
            assert all(p.caplen <= 68 for p in reader)

    def test_timestamps_within_window(self, enterprise, tmp_path):
        traces = generate_dataset("D0", enterprise, tmp_path, seed=1, scale=0.002,
                                  max_windows=2)
        for trace in traces.traces:
            with PcapReader.open(trace.path) as reader:
                for packet in reader:
                    assert trace.window.t0 <= packet.ts <= trace.window.t1 + 1e-6

    def test_deterministic(self, enterprise, tmp_path):
        a = generate_dataset("D0", enterprise, tmp_path / "a", seed=9, scale=0.002,
                             max_windows=2)
        b = generate_dataset("D0", enterprise, tmp_path / "b", seed=9, scale=0.002,
                             max_windows=2)
        for trace_a, trace_b in zip(a.traces, b.traces):
            assert trace_a.packet_count == trace_b.packet_count
            assert Path(trace_a.path).read_bytes() == Path(trace_b.path).read_bytes()

    def test_seed_changes_output(self, enterprise, tmp_path):
        a = generate_dataset("D0", enterprise, tmp_path / "a", seed=9, scale=0.002,
                             max_windows=2)
        b = generate_dataset("D0", enterprise, tmp_path / "b", seed=10, scale=0.002,
                             max_windows=2)
        assert a.total_packets != b.total_packets

    def test_scale_changes_volume(self, enterprise, tmp_path):
        small = generate_dataset("D0", enterprise, tmp_path / "s", seed=9, scale=0.002,
                                 max_windows=4)
        large = generate_dataset("D0", enterprise, tmp_path / "l", seed=9, scale=0.01,
                                 max_windows=4)
        assert large.total_packets > small.total_packets * 2

    def test_traffic_involves_monitored_subnet(self, enterprise, tmp_path):
        """The tap only sees packets to/from the monitored subnet (or
        broadcast/multicast into it)."""
        traces = generate_dataset("D0", enterprise, tmp_path, seed=3, scale=0.002,
                                  max_windows=2)
        for trace in traces.traces:
            prefix = enterprise.subnets[trace.window.subnet_index].subnet
            with PcapReader.open(trace.path) as reader:
                for packet in reader:
                    decoded = decode_packet(packet)
                    if decoded.src_ip is None:
                        continue  # ARP/IPX broadcast within the subnet
                    involved = decoded.src_ip in prefix or decoded.dst_ip in prefix
                    multicast = decoded.dst_ip >= 0xE0000000
                    assert involved or multicast


#: SHA-256 over every pcap ``generate_dataset`` writes (in window order)
#: for ``Enterprise(seed=1234)``, ``scale=0.002``, ``max_windows=2``.
#: The tables can match while the bytes drift; this pins the bytes.
_GOLDEN_PCAPS = {
    (1, "D0"): "a0a08e212cf125e992abc41c7e25c21cea5784c647f9db9ce493cbfa4bde6ca2",
    (1, "D1"): "6c075e6590979a82dfe8546d039b60036c00c62ad59f512d5820becae2069046",
    (1, "D2"): "e0cf1efd2f84cbb3d4c8501660533119950c61db402c0cea8a401fd88851a429",
    (1, "D3"): "42afcd8499aeb7ff41afa6bf1dfebc5857c25745a3dfe7a90a23740ddb3a071b",
    (1, "D4"): "fe48467fb9b2264efbe53869674e3cb2357cbe2dd64ff98459557c0608c17f51",
    (2, "D0"): "49432235d2c54fc6af30ebaa728acf6c7b42487180b5f9ffbb4f7e031b67cf40",
    (2, "D1"): "c607013a33aae65ab8b91689c345a377a2225cae7d12aa670095a6ba907f6e46",
    (2, "D2"): "4b993164c8c4d0fe30e2f426cd57d35d1d842635d2673dff09291b118f9ec6b1",
    (2, "D3"): "a9d572bb54374bf83ef1ced3b6d74ecc809648b021502fbbe5c5080444dd1264",
    (2, "D4"): "bfe1522eeb2544bf8dcccf3c896e0cc926d50a84458a98de1aceb80bf4634437",
}


@pytest.mark.parametrize(("seed", "name"), sorted(_GOLDEN_PCAPS))
def test_generated_bytes_are_pinned(enterprise, tmp_path, seed, name):
    traces = generate_dataset(name, enterprise, tmp_path, seed=seed, scale=0.002,
                              max_windows=2)
    digest = hashlib.sha256()
    for trace in traces.traces:
        digest.update(Path(trace.path).read_bytes())
    assert digest.hexdigest() == _GOLDEN_PCAPS[seed, name]


class TestGenerateStudy:
    def test_multiple_datasets(self, enterprise, tmp_path):
        study = generate_study(tmp_path, seed=2, scale=0.002,
                               datasets=("D0", "D3"), max_windows=2,
                               enterprise=enterprise)
        assert set(study) == {"D0", "D3"}
        assert all(traces.total_packets > 0 for traces in study.values())


class TestDatasetDials:
    def test_mixes_are_distributions(self):
        from repro.gen.datasets import DATASETS

        for name, config in DATASETS.items():
            nfs_total = sum(config.dials.nfs_mix.values())
            ncp_total = sum(config.dials.ncp_mix.values())
            assert 0.9 < nfs_total < 1.1, name
            assert 0.9 < ncp_total < 1.1, name

    def test_paper_metadata(self):
        from repro.gen.datasets import DATASETS

        assert DATASETS["D0"].tap_seconds == 600.0
        assert DATASETS["D1"].per_tap == 2
        assert DATASETS["D1"].snaplen == DATASETS["D2"].snaplen == 68
        assert all(
            DATASETS[n].snaplen == 1500 for n in ("D0", "D3", "D4")
        )
        assert DATASETS["D3"].num_subnets == 18

    def test_full_payload_property(self):
        from repro.gen.datasets import DATASETS

        assert DATASETS["D0"].full_payload
        assert not DATASETS["D1"].full_payload

    def test_imap_policy_change(self):
        from repro.gen.datasets import DATASETS

        assert DATASETS["D0"].dials.imap_tls_frac < 0.6
        assert all(
            DATASETS[n].dials.imap_tls_frac > 0.9 for n in ("D1", "D2", "D3", "D4")
        )
