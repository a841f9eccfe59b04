"""The content-addressed store: keys, round-trip fidelity, and defects.

The corruption tests share one rule: damaging any cached byte must
surface as a typed :class:`ShardError` under ``strict`` and as a cache
miss (``None``) under the tolerant policies — never as a wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest

from repro.analysis.errors import ErrorKind, ErrorPolicy
from repro.store import ConnStore, ShardError
from repro.store.scrub import StoreScrubber
from repro.store.shard import DatasetShard, encode_dataset_shard


def copy_store(root, tmp_path) -> ConnStore:
    """A private copy of the session store, safe to corrupt."""
    target = tmp_path / "store"
    shutil.copytree(root, target)
    return ConnStore(target)


def the_manifest(store: ConnStore) -> dict:
    manifests = list(store.manifests())
    assert len(manifests) == 1
    return manifests[0]


# -- object storage ---------------------------------------------------------


def test_objects_are_content_addressed(tmp_path):
    store = ConnStore(tmp_path)
    digest = store.put_object(b"hello shard")
    assert store.get_object(digest) == b"hello shard"
    # Idempotent: same bytes, same address, no duplicate.
    assert store.put_object(b"hello shard") == digest


def test_get_object_reverifies_the_address(tmp_path):
    store = ConnStore(tmp_path)
    digest = store.put_object(b"original bytes")
    store._object_path(digest).write_bytes(b"swapped bytes")
    with pytest.raises(ShardError) as info:
        store.get_object(digest)
    assert info.value.kind is ErrorKind.DECODE_ERROR


def test_missing_object_is_truncated_body(tmp_path):
    store = ConnStore(tmp_path)
    with pytest.raises(ShardError) as info:
        store.get_object("0" * 64)
    assert info.value.kind is ErrorKind.TRUNCATED_BODY


def _hammer_put(root: str, worker_id: int) -> None:
    """Child-process body: race everyone else publishing the same shards."""
    store = ConnStore(root)
    for round_number in range(20):
        for payload_id in range(4):
            store.put_object(f"shared shard {payload_id}".encode() * 100)
    store.put_object(f"private to {worker_id}".encode())


def test_concurrent_put_object_never_interleaves(tmp_path):
    """N processes publishing the same content-addressed shards leave a
    store where every object verifies and no temp files linger — the
    atomic-replace, first-writer-wins rule under real concurrency."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=_hammer_put, args=(str(tmp_path), i))
        for i in range(6)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=30)
        assert process.exitcode == 0
    store = ConnStore(tmp_path)
    objects = list(store.objects_dir.glob("*/*.rcs"))
    assert len(objects) == 4 + 6  # shared payloads + one private each
    for path in objects:
        store.get_object(path.stem)  # re-verifies the content address
    assert list(store.objects_dir.rglob("*.tmp")) == []


# -- cache keys -------------------------------------------------------------


def test_content_key_tracks_trace_bytes():
    base = dict(
        analyzers=("http", "dns"),
        error_policy="strict",
        full_payload=True,
        internal_net="10.0.0.0/9",
        known_scanners=(1, 2),
    )
    key = ConnStore.content_key("D0", ["aa", "bb"], **base)
    assert key == ConnStore.content_key("D0", ["aa", "bb"], **base)
    assert key != ConnStore.content_key("D0", ["aa", "cc"], **base)
    assert key != ConnStore.content_key("D1", ["aa", "bb"], **base)
    changed = dict(base, error_policy="tolerant")
    assert key != ConnStore.content_key("D0", ["aa", "bb"], **changed)


def test_content_key_ignores_analyzer_and_scanner_order():
    key_a = ConnStore.content_key(
        "D0", ["aa"], ("http", "dns"), "strict", True, "10.0.0.0/9", (1, 2)
    )
    key_b = ConnStore.content_key(
        "D0", ["aa"], ("dns", "http"), "strict", True, "10.0.0.0/9", (2, 1)
    )
    assert key_a == key_b


def test_generation_key_tracks_study_parameters():
    base = dict(
        analyzers=("http",),
        error_policy="strict",
        internal_net="10.0.0.0/9",
        known_scanners=(),
    )
    key = ConnStore.generation_key("D0", 7, 0.004, 4, **base)
    assert key.startswith("gen-")
    assert key == ConnStore.generation_key("D0", 7, 0.004, 4, **base)
    assert key != ConnStore.generation_key("D0", 8, 0.004, 4, **base)
    assert key != ConnStore.generation_key("D0", 7, 0.005, 4, **base)
    assert key != ConnStore.generation_key("D0", 7, 0.004, None, **base)


# -- save / load round trip -------------------------------------------------


def test_saved_analysis_round_trips(store_study):
    results, root = store_study
    store = ConnStore(root)
    original = results.analyses["D0"]
    cached = store.load_analysis(the_manifest(store))
    analysis = cached.analysis
    assert analysis.name == original.name
    assert analysis.conns == original.conns
    assert analysis.scanner_sources == original.scanner_sources
    assert analysis.windows_endpoints == original.windows_endpoints
    assert analysis.removed_conns == original.removed_conns
    assert list(analysis.analyzer_results) == list(original.analyzer_results)
    assert analysis.analyzer_results == original.analyzer_results
    assert len(analysis.traces) == len(original.traces)
    for loaded, fresh in zip(analysis.traces, original.traces):
        assert loaded.packets == fresh.packets
        assert loaded.l2_counts == fresh.l2_counts
        assert loaded.quarantined == fresh.quarantined


def test_manifest_stores_relative_paths_only(store_study):
    _, root = store_study
    manifest = the_manifest(ConnStore(root))
    for entry in manifest["traces"]:
        assert not entry["file"].startswith("/")
        assert entry["file"].startswith("D0/")


def test_lookup_follows_generation_alias(store_study):
    _, root = store_study
    store = ConnStore(root)
    manifest = the_manifest(store)
    aliases = [
        path
        for path in store.manifests_dir.glob("*.json")
        if "ref" in json.loads(path.read_text())
    ]
    assert len(aliases) == 1
    assert aliases[0].stem.startswith("gen-")
    assert store.lookup(aliases[0].stem) == manifest
    assert store.lookup("0" * 64) is None


# -- defects through the policy seam ---------------------------------------


@pytest.mark.parametrize("damage", ["truncate", "flip", "delete"])
def test_damaged_shard_is_strict_error_tolerant_miss(store_study, tmp_path, damage):
    _, root = store_study
    store = copy_store(root, tmp_path)
    manifest = the_manifest(store)
    victim = store._object_path(manifest["traces"][0]["shard"])
    if damage == "truncate":
        victim.write_bytes(victim.read_bytes()[:-16])
    elif damage == "flip":
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
    else:
        victim.unlink()
    with pytest.raises(ShardError):
        store.load_or_none(manifest, ErrorPolicy.STRICT)
    assert store.load_or_none(manifest, ErrorPolicy.TOLERANT) is None
    assert store.load_or_none(manifest, ErrorPolicy.SKIP_TRACE) is None


def test_wrong_kind_object_is_rejected(store_study, tmp_path):
    # A validly-addressed object of the wrong kind: rewire a trace entry
    # at the dataset shard, so only the kind byte gives it away.
    _, root = store_study
    store = copy_store(root, tmp_path)
    manifest = the_manifest(store)
    manifest["traces"][0]["shard"] = manifest["dataset_shard"]
    with pytest.raises(ShardError) as info:
        store.load_analysis(manifest)
    assert info.value.kind is ErrorKind.DECODE_ERROR


def test_sources_intact_detects_mutated_pcaps(store_study, tmp_path):
    _, root = store_study
    store = ConnStore(root)
    manifest = the_manifest(store)
    # Transient pcaps (no out_dir): the manifest is trusted.
    assert store.sources_intact(manifest, None)
    # Files absent on disk: tolerated (they were deleted, not mutated).
    assert store.sources_intact(manifest, tmp_path)
    # A present-but-different file invalidates the cache.
    entry = manifest["traces"][0]
    path = tmp_path / entry["file"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not the original pcap")
    assert not store.sources_intact(manifest, tmp_path)


# -- maintenance ------------------------------------------------------------


def test_gc_removes_only_unreferenced_objects(store_study, tmp_path):
    _, root = store_study
    store = copy_store(root, tmp_path)
    referenced = store.referenced_objects()
    stray = store.put_object(
        encode_dataset_shard(
            DatasetShard(
                name="stray",
                full_payload=False,
                internal_net="10.0.0.0/9",
                error_policy="strict",
                scanner_sources=set(),
                windows_endpoints=set(),
                removed_conns=0,
                analyzer_errors={},
                analyzer_results={},
            )
        )
    )
    stray_size = store._object_path(stray).stat().st_size
    # A dry run reports the reclaim without touching the disk.
    preview = store.gc(dry_run=True)
    assert preview.dry_run
    assert preview.removed == (stray,)
    assert preview.reclaimed_bytes == stray_size
    assert store._object_path(stray).exists()
    # The real pass deletes and accounts the same bytes.
    report = store.gc()
    assert not report.dry_run
    assert report.removed == (stray,)
    assert report.reclaimed_bytes == stray_size
    assert {path.stem for path in store.objects_dir.glob("*/*.rcs")} == referenced
    # Still loadable after gc.
    store.load_analysis(the_manifest(store))


def test_gc_sweeps_stale_temp_files(store_study, tmp_path):
    _, root = store_study
    store = copy_store(root, tmp_path)
    stale = store.objects_dir / "ab" / ".deadbeef-crashed.tmp"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_bytes(b"partial shard from a crashed writer")
    # Age the file past the in-flight grace period: it really is debris.
    old = time.time() - 3600.0
    os.utime(stale, (old, old))
    preview = store.gc(dry_run=True)
    assert preview.stale_tmp == 1
    assert preview.in_flight_tmp == 0
    assert preview.reclaimed_bytes >= len(b"partial shard from a crashed writer")
    assert stale.exists()
    report = store.gc()
    assert report.stale_tmp == 1
    assert not stale.exists()


def test_gc_spares_in_flight_temp_files(store_study, tmp_path):
    """A fresh .tmp is a live writer mid-publish, not debris: gc must
    leave it alone (and say so), unless the grace period is disabled."""
    _, root = store_study
    store = copy_store(root, tmp_path)
    in_flight = store.manifests_dir / ".0123456789ab-live.tmp"
    in_flight.parent.mkdir(parents=True, exist_ok=True)
    in_flight.write_bytes(b"half a manifest, writer still alive")
    report = store.gc()
    assert report.stale_tmp == 0
    assert report.in_flight_tmp == 1
    assert in_flight.exists()
    # Scrub applies the same rule: in-flight, not stale.
    scrubbed = StoreScrubber(store).scrub()
    assert scrubbed.stale_tmp == 0
    assert scrubbed.in_flight_tmp == 1
    # A quiescent-store sweep (grace disabled) reclaims it.
    forced = store.gc(tmp_grace_s=0.0)
    assert forced.stale_tmp == 1
    assert not in_flight.exists()


def test_manifest_that_is_json_but_not_an_object_is_skipped(store_study, tmp_path):
    """``[1]`` parses but is no manifest: every reader treats it like an
    unparseable file (a miss, skipped), and scrub quarantines it."""
    _, root = store_study
    store = copy_store(root, tmp_path)
    referenced = store.referenced_objects()
    rogue = store.manifests_dir / "x.json"
    rogue.write_text("[1]", encoding="utf-8")
    assert store.lookup("x") is None
    assert len(list(store.manifests())) == 1
    assert list(store.checkpoints()) == []
    assert store.referenced_objects() == referenced
    assert store.stats()["manifests"] == 1
    assert store.gc().removed == ()
    report = StoreScrubber(store).scrub()
    assert [finding.kind for finding in report.corrupt_manifests] == ["decode_error"]
    assert report.corrupt_manifests[0].path == "manifests/x.json"
    assert not rogue.exists()
    assert (store.root / "quarantine" / "decode_error" / rogue.name).exists()


def test_stats_accounting(store_study):
    _, root = store_study
    stats = ConnStore(root).stats()
    assert stats["manifests"] == 1
    assert stats["objects"] == 5  # 4 trace shards + 1 dataset shard
    assert stats["bytes"] > 0
