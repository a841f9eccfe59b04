"""Tiered-store operations under load and under fire.

Three acceptance gates live here: (1) query answers are byte-identical
on a tiered store before, during, and after rebalance/compaction — even
from eight concurrent reader threads; (2) compacting a live checkpoint
chain changes nothing a resuming engine can observe; (3) a SIGKILL at
any publish inside compaction leaves a store that gc + scrub bring back
to clean, with the checkpoint still loadable.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading

import pytest

from repro.analysis.analyzers import DEFAULT_ANALYZERS
from repro.analysis.errors import ErrorPolicy
from repro.chaos import CHAOS_ENV, FaultKind, FaultPlane, FaultRule
from repro.chaos.faults import CRASH_EXIT_CODE
from repro.gen.capture import generate_dataset
from repro.gen.topology import ENTERPRISE_NET, Enterprise
from repro.service.app import store_state_token
from repro.store import ConnFilter, StoreQuery, compact_checkpoints
from repro.store.query import GROUP_DIMENSIONS
from repro.store.scrub import StoreScrubber
from repro.store.tier import init_tier, open_store
from repro.stream.checkpoint import StreamCheckpointer, decode_result_batch
from repro.stream.engine import StreamConfig, StreamDatasetAnalyzer
from repro.stream.flowtable import StreamFlowTable
from repro.stream.source import PacketSource

_THREADS = 8


def _snapshot(query: StoreQuery) -> dict:
    result: dict = {"datasets": query.datasets()}
    for by in GROUP_DIMENSIONS:
        result[f"agg-{by}"] = [
            (row.group, row.conns, row.bytes, row.pkts)
            for row in query.aggregate(ConnFilter(), by=by)
        ]
    result["count"] = query.count(ConnFilter(proto="tcp", min_bytes=100))
    result["table"] = query.table(ConnFilter(), by="category").render()
    return result


@pytest.fixture()
def tiered(store_study, tmp_path):
    """A private tiered two-root copy of the shared study store."""
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    return init_tier(tmp_path / "store", roots=(str(tmp_path / "root-b"),))


def test_tiering_never_changes_a_query_answer(store_study, tiered):
    _, root = store_study
    baseline = _snapshot(StoreQuery(open_store(root)))
    assert _snapshot(StoreQuery(tiered)) == baseline  # flat layout, tiered code
    tiered.rebalance()
    assert _snapshot(StoreQuery(tiered)) == baseline  # objects split across roots
    token = store_state_token(tiered.root)
    compact_checkpoints(tiered, grace_s=0)
    assert _snapshot(StoreQuery(tiered)) == baseline
    # The service's cache/ETag token never notices either operation.
    assert store_state_token(tiered.root) == token


def test_eight_threads_read_identically_during_rebalance(tiered):
    sequential = _snapshot(StoreQuery(tiered))
    results: list[dict | None] = [None] * _THREADS
    errors: list[BaseException] = []
    start = threading.Barrier(_THREADS + 1)

    def churn() -> None:
        try:
            start.wait(timeout=30)
            # One bucket at a time: readers overlap every copy/flip/reap.
            while tiered.rebalance(max_buckets=1).pending:
                pass
            compact_checkpoints(tiered, grace_s=0)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    def hammer(slot: int) -> None:
        try:
            query = StoreQuery(tiered)
            start.wait(timeout=30)
            for _ in range(3):
                results[slot] = _snapshot(query)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [threading.Thread(target=churn, daemon=True)] + [
        threading.Thread(target=hammer, args=(slot,), daemon=True)
        for slot in range(_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    for slot, result in enumerate(results):
        assert result == sequential, f"thread {slot} diverged mid-rebalance"
    assert tiered.rebalance().pending == ()


# -- checkpoint compaction ---------------------------------------------------


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tier-ops-traces")
    return generate_dataset(
        "D0", Enterprise(seed=7), out, seed=7, scale=0.004, max_windows=3
    )


def _make(dataset, **kwargs):
    return StreamDatasetAnalyzer(
        "D0",
        full_payload=dataset.config.full_payload,
        internal_net=ENTERPRISE_NET,
        analyzers=[c() for c in DEFAULT_ANALYZERS],
        error_policy=ErrorPolicy.STRICT,
        **kwargs,
    )


@pytest.fixture(scope="module")
def finished_results(dataset):
    """Real finished-flow results (records, states, streams) captured
    straight off the flow table — exactly what ``flush_batch`` persists
    in a live streaming run."""
    captured: list = []
    real_finish = StreamFlowTable.finish

    def spying(self):
        results = real_finish(self)
        captured.extend(results)
        return results

    StreamFlowTable.finish = spying
    try:
        analyzer = _make(dataset)
        analyzer.process_pcap(dataset.traces[0].path)
        analyzer.finish()
    finally:
        StreamFlowTable.finish = real_finish
    assert len(captured) >= 8
    return captured


def _checkpoint_with_batches(store, results, key="ck-t000", batches=4):
    """A checkpoint whose chain holds ``batches`` real result shards."""
    checkpointer = StreamCheckpointer(store, key)
    chunk = max(1, -(-len(results) // batches))
    for start in range(0, len(results), chunk):
        checkpointer.flush_batch(results[start : start + chunk])
    checkpointer.save({"trace": {"packets": len(results)}})
    return checkpointer


def _batches_of(store, manifest) -> list:
    results = []
    for digest in manifest["batches"]:
        results.extend(decode_result_batch(store.get_object(digest)))
    return results


def test_compaction_merges_the_chain_and_preserves_every_result(
    dataset, finished_results, tmp_path
):
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    store.rebalance()
    _checkpoint_with_batches(store, finished_results)
    (manifest,) = store.checkpoints()
    assert len(manifest["batches"]) == 4
    before = _batches_of(store, manifest)

    report = compact_checkpoints(store, grace_s=0)
    assert report.compacted == [manifest["key"]]
    assert report.batches_before == 4 and report.batches_after == 1

    (compacted,) = store.checkpoints()
    assert len(compacted["batches"]) == 1
    assert compacted["compacted_from"] == 4
    # Identical results in identical order out of the super-shard.
    after = _batches_of(store, compacted)
    assert [(p.flow_id, p.phase, p.seq) for p in after] == [
        (p.flow_id, p.phase, p.seq) for p in before
    ]
    assert [p.result.record for p in after] == [p.result.record for p in before]
    # The checkpointer resumes through the compacted chain — the *state*
    # shard was rewritten too, not just the manifest (load restores the
    # batch list from the state).
    loaded = StreamCheckpointer.load(store, compacted["key"])
    assert loaded is not None
    checkpointer, state = loaded
    assert checkpointer.batch_digests == compacted["batches"]
    assert state["trace"]["packets"] == len(finished_results)
    resumed = checkpointer.load_batches()
    assert [p.result.record for p in resumed] == [
        p.result.record for p in before
    ]
    # The orphaned originals are gc's to reclaim; the store stays clean.
    store.gc(tmp_grace_s=0)
    assert StoreScrubber(store).scrub(tmp_grace_s=0).ok
    final = _batches_of(store, next(iter(store.checkpoints())))
    assert [p.result.record for p in final] == [
        p.result.record for p in after
    ]


def test_compaction_skips_live_writers_and_already_compact_chains(
    finished_results, tmp_path
):
    store = open_store(tmp_path / "store")
    _checkpoint_with_batches(store, finished_results, key="ck-one", batches=1)
    _checkpoint_with_batches(store, finished_results, key="ck-live", batches=3)
    # Freshly-written manifests are inside the live-writer grace.
    report = compact_checkpoints(store, grace_s=3600)
    assert report.compacted == [] and report.skipped_live >= 1
    report = compact_checkpoints(store, grace_s=0)
    assert report.compacted == ["ck-live"] and report.skipped_small == 1


def test_tiered_crash_resume_equals_uninterrupted(
    dataset, tmp_path, monkeypatch
):
    """The streaming engine's checkpoint/resume parity holds verbatim on
    a rebalanced multi-root store, with a compaction pass in between."""
    plain = _make(dataset)
    for trace in dataset.traces:
        plain.process_pcap(trace.path)
    plain_analysis = plain.finish()

    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    store.rebalance()
    real_iter = PacketSource.__iter__
    left = {"n": 6000}

    def crashing(self):
        for pkt in real_iter(self):
            left["n"] -= 1
            if left["n"] < 0:
                raise RuntimeError("simulated crash")
            yield pkt

    monkeypatch.setattr(PacketSource, "__iter__", crashing)
    crashed = _make(
        dataset,
        config=StreamConfig(checkpoint_every=100),
        store=store,
        checkpoint_base="ck",
    )
    with pytest.raises(RuntimeError):
        for trace in dataset.traces:
            crashed.process_pcap(trace.path)
    monkeypatch.setattr(PacketSource, "__iter__", real_iter)
    assert list(store.checkpoints())
    compact_checkpoints(store, grace_s=0)  # must not disturb the live state
    resumed = _make(
        dataset,
        config=StreamConfig(checkpoint_every=100),
        store=store,
        checkpoint_base="ck",
    )
    for trace in dataset.traces:
        resumed.process_pcap(trace.path)
    analysis = resumed.finish()
    assert analysis.conns == plain_analysis.conns
    assert list(store.checkpoints()) == []


@pytest.mark.parametrize("publish_index", [1, 2, 3])
def test_sigkill_mid_compaction_is_recoverable(
    dataset, finished_results, tmp_path, publish_index
):
    """Kill compaction at each of its publishes (super-shard, state
    shard, manifest); the store must come back clean via gc + scrub and
    the checkpoint must still load."""
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    store.rebalance()
    _checkpoint_with_batches(store, finished_results)
    (manifest,) = store.checkpoints()
    before = _batches_of(store, manifest)

    plane = FaultPlane(
        rules=[FaultRule(FaultKind.CRASH, op="publish", at=(publish_index,))]
    )
    script = (
        "from repro.store import compact_checkpoints\n"
        "from repro.store.tier import open_store\n"
        f"store = open_store({str(store.root)!r})\n"
        "compact_checkpoints(store, grace_s=0)\n"
    )
    env = dict(os.environ, **{CHAOS_ENV: plane.to_env()})
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, cwd="."
    )
    assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

    survivor = open_store(store.root)
    (manifest_now,) = survivor.checkpoints()
    # Old chain or new chain — never a mix, and always decodable.
    assert _batches_of(survivor, manifest_now) is not None
    loaded = StreamCheckpointer.load(survivor, manifest_now["key"])
    assert loaded is not None
    checkpointer, _state = loaded
    replayed = []
    for digest in checkpointer.batch_digests:
        replayed.extend(decode_result_batch(survivor.get_object(digest)))
    assert [p.result.record for p in replayed] == [
        p.result.record for p in before
    ]
    # gc sweeps whatever the crash orphaned; scrub then finds a clean store.
    survivor.gc(tmp_grace_s=0)
    report = StoreScrubber(survivor).scrub(tmp_grace_s=0)
    assert report.ok, report.render()
