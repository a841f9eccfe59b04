"""Store scrub-and-repair: detection, quarantine layout, re-derivation.

The load-bearing guarantees: scrub detects *every* synthetically
corrupted shard (content address + CRC, no sampling), quarantines
damage into the taxonomy-named tree with provenance sidecars, and
repair re-derives missing shards from source traces onto their original
content addresses — refusing sources that no longer digest-match.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.core.study import analyze_dataset
from repro.gen.capture import generate_dataset
from repro.gen.topology import Enterprise, Role
from repro.store import ConnStore
from repro.store.scrub import StoreScrubber

_SEED = 5


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """A healthy populated store plus the traces that built it."""
    base = tmp_path_factory.mktemp("scrub-golden")
    enterprise = Enterprise(seed=_SEED)
    traces = generate_dataset(
        "D0", enterprise, base / "out" / "D0", seed=_SEED, scale=0.004,
        max_windows=2,
    )
    scanners = tuple(host.ip for host in enterprise.servers(Role.SCANNER))
    store = ConnStore(base / "store")
    analyze_dataset("D0", traces, scanners, error_policy="tolerant", store=store)
    return base


@pytest.fixture()
def stocked(golden, tmp_path):
    """A private mutable copy of the golden store (+ shared traces dir)."""
    root = tmp_path / "store"
    shutil.copytree(golden / "store", root)
    return ConnStore(root), golden / "out"


def _objects(store: ConnStore) -> list[Path]:
    return sorted(store.objects_dir.glob("*/*.rcs"))


def _flip_byte(path: Path, offset: int = 40) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


# -- scrub -------------------------------------------------------------------


def test_clean_store_scrubs_ok(stocked):
    store, _ = stocked
    report = StoreScrubber(store).scrub()
    assert report.ok
    assert report.objects_checked == len(_objects(store)) >= 3
    assert report.manifests_checked >= 1
    assert report.quarantined == 0
    assert "clean" in report.render()


def test_scrub_detects_every_corrupted_object(stocked):
    """100% detection: corrupt *all* shards, each one is found."""
    store, _ = stocked
    paths = _objects(store)
    for index, path in enumerate(paths):
        _flip_byte(path, offset=24 + index)  # different byte per shard
    report = StoreScrubber(store).scrub(quarantine=False)
    assert not report.ok
    assert len(report.corrupt_objects) == len(paths)
    # Audit mode never moves anything.
    assert report.quarantined == 0
    assert all(path.exists() for path in paths)
    assert "DAMAGED" in report.render()


def test_quarantine_layout_and_sidecar(stocked):
    store, _ = stocked
    victim = _objects(store)[0]
    digest = victim.stem
    _flip_byte(victim)
    report = StoreScrubber(store).scrub()
    assert len(report.corrupt_objects) == 1
    finding = report.corrupt_objects[0]
    assert finding.kind == "decode_error"
    assert "content address mismatch" in finding.detail
    # The shard moved under quarantine/<error-kind>/ next to a sidecar.
    assert not victim.exists()
    moved = store.root / finding.quarantined_to
    assert moved == store.root / "quarantine" / "decode_error" / victim.name
    assert moved.exists()
    sidecar = json.loads(moved.with_name(moved.name + ".json").read_text())
    assert sidecar["kind"] == "decode_error"
    assert digest[:12] in sidecar["detail"]
    assert sidecar["source"].startswith("objects/")
    # The same pass reports the manifest now missing its shard.
    assert any(digest in missing for missing in report.missing_refs.values())


def test_unparseable_manifest_is_quarantined(stocked):
    store, _ = stocked
    rogue = store.manifests_dir / "deadbeef.json"
    rogue.write_text("{not json", encoding="utf-8")
    report = StoreScrubber(store).scrub()
    assert len(report.corrupt_manifests) == 1
    assert not rogue.exists()
    assert (store.root / "quarantine" / "decode_error" / rogue.name).exists()
    assert report.ok is False


def test_dead_checkpoint_is_quarantined(stocked):
    store, _ = stocked
    ckpt = store.manifests_dir / "ckpt-feedface.json"
    ckpt.write_text(
        json.dumps(
            {"kind": "checkpoint", "key": "ckpt-feedface",
             "state": "0" * 64, "batches": []}
        ),
        encoding="utf-8",
    )
    report = StoreScrubber(store).scrub()
    assert len(report.dead_checkpoints) == 1
    assert "state shard" in report.dead_checkpoints[0].detail
    assert not ckpt.exists()
    assert (store.root / "quarantine" / "truncated_body" / ckpt.name).exists()
    # A dead checkpoint is not a missing-refs repair case.
    assert not report.missing_refs


# -- repair ------------------------------------------------------------------


def test_repair_restores_identical_content_addresses(stocked):
    store, traces_dir = stocked
    paths = _objects(store)
    original = {path.stem for path in paths}
    _flip_byte(paths[0])  # one corrupted...
    paths[1].unlink()  # ...and one simply gone
    outcomes = StoreScrubber(store).repair(traces_dir=traces_dir)
    assert [outcome.repaired for outcome in outcomes] == [True]
    assert outcomes[0].dataset == "D0"
    assert set(outcomes[0].restored) == {paths[0].stem, paths[1].stem}
    # The store is whole again under the *same* content addresses —
    # and a fresh scrub re-verifies every byte of it.
    assert {path.stem for path in _objects(store)} == original
    report = StoreScrubber(store).scrub()
    assert report.ok and report.objects_checked == len(original)


def test_repair_refuses_mutated_source_traces(stocked):
    store, traces_dir = stocked
    private = traces_dir.parent / "mutated-out"
    if not private.exists():
        shutil.copytree(traces_dir, private)
        pcap = next((private / "D0").glob("*.pcap"))
        with open(pcap, "ab") as handle:
            handle.write(b"\x00" * 8)
    _objects(store)[0].unlink()
    outcomes = StoreScrubber(store).repair(traces_dir=private)
    assert [outcome.repaired for outcome in outcomes] == [False]
    assert "no longer digest-matches" in outcomes[0].reason


def test_repair_reports_missing_source_traces(stocked, tmp_path):
    store, _ = stocked
    _objects(store)[0].unlink()
    outcomes = StoreScrubber(store).repair(traces_dir=tmp_path / "nowhere")
    assert [outcome.repaired for outcome in outcomes] == [False]
    assert "missing" in outcomes[0].reason


# -- CLI ---------------------------------------------------------------------


def test_cli_scrub_and_repair_round_trip(stocked, capsys):
    store, traces_dir = stocked
    at = ["--store-dir", str(store.root)]
    assert main(["store", "scrub"] + at) == 0
    _flip_byte(_objects(store)[0])
    # Audit flags the damage without moving anything.
    assert main(["store", "scrub", "--audit-only"] + at) == 1
    assert not (store.root / "quarantine").exists()
    assert main(["store", "repair", "--traces-dir", str(traces_dir)] + at) == 0
    out = capsys.readouterr().out
    assert "repaired D0" in out
    assert "restored to their original content addresses" in out
    assert main(["store", "scrub"] + at) == 0


def test_cli_repair_with_nothing_to_repair(stocked, capsys):
    store, traces_dir = stocked
    assert main(
        ["store", "repair", "--store-dir", str(store.root),
         "--traces-dir", str(traces_dir)]
    ) == 0
    assert "nothing to repair" in capsys.readouterr().out
