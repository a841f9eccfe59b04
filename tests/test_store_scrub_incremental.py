"""Incremental scrub: bounded steps, a resumable cursor, same verdicts.

The contract: stepping with any budget, across any number of scrubber
instances (i.e. process restarts), visits every object and manifest
exactly once per cycle and reaches the same findings the one-shot
scrubber reports — integrity as a background task, not a stop-the-world
pass.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict

import pytest

from repro.store import ConnStore
from repro.store.cache import manifest_references
from repro.store.scrub import CURSOR_FILE, StoreScrubber
from repro.store.scrub import StoreScrubber as IncrementalScrubber
from repro.store.tier import init_tier
from test_store_replica import replica_store


@pytest.fixture()
def stocked(store_study, tmp_path):
    """A private mutable copy of the shared study store."""
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    return ConnStore(tmp_path / "store")


def _objects(store) -> int:
    return sum(1 for _ in store._object_files())


def test_full_cycle_on_a_clean_store(stocked):
    scrubber = IncrementalScrubber(stocked)
    cursor = scrubber.run(budget=3)
    assert cursor["phase"] == "done"
    report = scrubber.report(cursor)
    assert report.ok, report.render()
    assert report.objects_checked == _objects(stocked) >= 3
    assert report.manifests_checked >= 1


def test_budget_bounds_every_step(stocked):
    scrubber = IncrementalScrubber(stocked)
    cursor = scrubber.step(budget=2)
    assert cursor["phase"] == "objects"
    assert cursor["objects_checked"] == 2
    assert (stocked.root / CURSOR_FILE).exists()


def test_cursor_resumes_across_instances_without_rechecking(stocked):
    total = _objects(stocked)
    steps = 0
    while True:
        # A fresh scrubber per step — each step could be a new process.
        cursor = IncrementalScrubber(stocked).step(budget=2)
        steps += 1
        if cursor["phase"] == "done":
            break
        assert steps < 1000
    assert cursor["objects_checked"] == total  # every object once, exactly
    assert IncrementalScrubber(stocked).report(cursor).ok


def _copies(store, digest) -> list:
    return [path for path in store._candidate_paths(digest) if path.exists()]


def _flip(path, offset: int = 30) -> None:
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


def _damaged_store(kind: str, study_root, base):
    """A flat copy of the study store, or a fresh 3-root R=2 tier, with
    one of each defect: a corrupt object (every copy), an unparseable
    manifest, a dead checkpoint and one deleted object copy."""
    if kind == "flat":
        shutil.copytree(study_root, base / "store")
        store = ConnStore(base / "store")
    else:
        store, bodies = replica_store(base)
        digests = sorted(bodies)
        store.manifests_dir.mkdir()
        store._write_manifest(
            "k" * 64,
            {
                "key": "k" * 64,
                "dataset_shard": digests[0],
                "traces": [{"shard": digest} for digest in digests[1:4]],
            },
        )
        store._write_manifest("gen-" + "k" * 64, {"ref": "k" * 64})
    manifest = next(store.manifests())
    corrupt, deleted = manifest_references(manifest)[:2]
    for path in _copies(store, corrupt):
        _flip(path)
    _copies(store, deleted)[-1].unlink()
    alias = sorted(store.manifests_dir.glob("gen-*.json"))[0]
    alias.write_text("{not json", encoding="utf-8")
    store._write_manifest(
        "ckpt-dead",
        {"kind": "checkpoint", "key": "ckpt-dead", "state": "0" * 64, "batches": []},
    )
    return store


@pytest.mark.parametrize("budget", [1, 4])
@pytest.mark.parametrize("quarantine", [False, True], ids=["audit", "quarantine"])
@pytest.mark.parametrize("kind", ["flat", "tiered"])
def test_findings_match_the_one_shot_scrubber(
    store_study, tmp_path, kind, quarantine, budget
):
    _, study_root = store_study
    one_shot = _damaged_store(kind, study_root, tmp_path / "one-shot")
    expected = StoreScrubber(one_shot).scrub(quarantine=quarantine)
    assert not (one_shot.root / CURSOR_FILE).exists()
    assert expected.corrupt_objects and expected.corrupt_manifests
    assert expected.dead_checkpoints and expected.missing_refs

    stepped = _damaged_store(kind, study_root, tmp_path / "stepped")
    scrubber = IncrementalScrubber(stepped)
    cursor = scrubber.step(budget=budget, quarantine=quarantine)
    assert cursor["phase"] != "done"
    # A one-shot scrub beside a mid-cycle background cycle leaves it be.
    saved = (stepped.root / CURSOR_FILE).read_bytes()
    StoreScrubber(stepped).scrub(quarantine=False)
    assert (stepped.root / CURSOR_FILE).read_bytes() == saved
    report = scrubber.report(scrubber.run(budget=budget, quarantine=quarantine))
    assert asdict(report) == asdict(expected)
    assert report.render() == expected.render()


def test_audit_counts_an_object_with_no_healthy_copy_as_missing(stocked):
    manifest = next(stocked.manifests())
    victim = stocked._object_path(manifest["dataset_shard"])
    _flip(victim)
    scrubber = IncrementalScrubber(stocked)
    report = scrubber.report(scrubber.run(budget=4, quarantine=False))
    assert victim.exists()  # an audit moves nothing
    assert report.missing_refs == {manifest["key"]: (manifest["dataset_shard"],)}
    one_shot = StoreScrubber(stocked).scrub(quarantine=False)
    assert report.missing_refs == one_shot.missing_refs


def test_incremental_quarantine_moves_the_corrupt_object(stocked):
    victim = sorted(stocked._object_files())[0]
    victim.write_bytes(b"rot")
    scrubber = IncrementalScrubber(stocked)
    report = scrubber.report(scrubber.run(budget=5))
    assert not report.ok
    assert not victim.exists()
    (finding,) = report.corrupt_objects
    assert finding.quarantined_to
    assert (stocked.root / finding.quarantined_to).exists()
    # The quarantined object now fails the manifests phase as a missing ref.
    assert report.missing_refs


def test_done_cursor_starts_a_fresh_cycle(stocked):
    scrubber = IncrementalScrubber(stocked)
    first = scrubber.run(budget=1000)
    assert first["phase"] == "done"
    again = scrubber.step(budget=2)
    assert again["phase"] == "objects" and again["objects_checked"] == 2


def test_reset_forgets_the_cursor(stocked):
    scrubber = IncrementalScrubber(stocked)
    scrubber.step(budget=1)
    scrubber.reset()
    assert not (stocked.root / CURSOR_FILE).exists()
    assert scrubber.cursor()["objects_checked"] == 0


def test_incremental_scrub_spans_every_tier_root(store_study, tmp_path):
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    store.rebalance()
    flat_total = _objects(store)
    assert any((tmp_path / "b" / "objects").glob("*/*"))
    scrubber = IncrementalScrubber(store)
    report = scrubber.report(scrubber.run(budget=3))
    assert report.ok, report.render()
    assert report.objects_checked == flat_total
    # Corruption at the *secondary* root is found and quarantined there.
    victim = sorted((tmp_path / "b" / "objects").glob("*/*.rcs"))[0]
    victim.write_bytes(b"rot")
    scrubber.reset()
    report = scrubber.report(scrubber.run(budget=3))
    assert not report.ok
    (finding,) = report.corrupt_objects
    assert (tmp_path / "b" / finding.quarantined_to).exists()
