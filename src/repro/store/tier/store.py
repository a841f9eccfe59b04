"""The tiered multi-root store: placement-routed shards + hot tier.

:class:`TieredStore` is a drop-in :class:`~repro.store.cache.ConnStore`
whose ``objects/`` tree spans several roots.  Everything above the
object layer is untouched: manifests (and therefore content keys, the
service's store-state token, gen-key aliases, and the daemon tree) stay
at the primary root, so a flat store and a tiered store are
indistinguishable to ``StoreQuery``, ``run_study``, the checkpointer,
and the HTTP service — they only ever call ``put_object``/``get_object``
and the manifest API.

Reads are three-tiered:

1. **hot tier** — verified bytes in RAM (:class:`HotTier`), no I/O;
2. **assigned root** — the placement table's home for the digest's
   bucket (the destination root mid-move, so a flipping bucket never
   goes dark);
3. **every other root** — the fallback that makes rebalance crash-safe:
   whatever half-moved state a SIGKILL leaves behind, some root still
   holds the bytes and the scan finds them.

Every cold read re-verifies the content address before the bytes are
admitted to the hot tier, exactly like the flat store.

Use :func:`open_store` everywhere a store is constructed from a
directory: it returns a :class:`TieredStore` when ``tier.json`` exists
and a plain :class:`ConnStore` otherwise, so flat stores keep their
historical behavior byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ...analysis.errors import ErrorKind
from ...chaos import fsio
from ..cache import (
    ConnStore,
    DEFAULT_TMP_GRACE,
    _OBJECT_SUFFIX,
    manifest_references,
    read_manifest,
)
from ..shard import ShardError
from .health import HealthTracker, UnderReplicatedQueue
from .hotcache import HotTier
from .placement import BUCKETS, DEFAULT_HOT_BYTES, TIER_MANIFEST, PlacementManifest

__all__ = [
    "TieredStore",
    "RebalanceReport",
    "ReplicaRepairReport",
    "open_store",
    "init_tier",
]


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`TieredStore.rebalance` pass did."""

    #: Buckets whose assignment flipped this pass (hex chars).
    moved: tuple[str, ...]
    #: Object files copied to their new root.
    copied: int
    bytes_copied: int
    #: Source/duplicate copies deleted after a verified flip.
    deleted: int
    #: Buckets still misplaced after this pass (bounded by max_buckets).
    pending: tuple[str, ...]


@dataclass
class ReplicaRepairReport:
    """What one ``repair --replicas`` pass restored."""

    #: Objects whose replica set was brought back to target.
    objects_restored: int = 0
    #: Individual object copies published (across all objects).
    copies_written: int = 0
    #: Manifests re-mirrored to their secondary roots.
    manifests_mirrored: int = 0
    #: Objects that could not reach target (every source or destination
    #: root failed) — they stay in the queue.
    failed: list[str] = field(default_factory=list)
    #: Queue entries remaining after the pass.
    remaining: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            f"replica repair: {self.objects_restored} object(s) restored "
            f"({self.copies_written} cop{'y' if self.copies_written == 1 else 'ies'} "
            f"written), {self.manifests_mirrored} manifest(s) re-mirrored"
        ]
        for digest in self.failed:
            lines.append(f"  FAILED {digest[:12]}… (left in the repair queue)")
        if self.remaining:
            lines.append(f"  {self.remaining} entr(ies) still queued")
        return "\n".join(lines)


class TieredStore(ConnStore):
    """A ConnStore whose objects are placed across multiple roots.

    With ``replicas: R`` in the placement manifest, every object is
    published to R distinct roots (the bucket's primary plus R-1
    secondaries in rendezvous order) and every manifest is mirrored to
    R-1 secondaries — so losing any single root loses no data, only
    redundancy.  A per-root circuit breaker (:class:`HealthTracker`)
    keeps a dead root from slowing every operation: open roots are
    skipped by reads, re-routed around by writes, and probed again
    after a cooldown.  Every copy a failure prevented is enqueued in
    ``under-replicated.json`` for ``store repair --replicas``.
    """

    def __init__(self, root: str | Path, clock=time.monotonic) -> None:
        super().__init__(root)
        placement = PlacementManifest.load(self.root)
        if placement is None:
            raise FileNotFoundError(
                f"{self.root / TIER_MANIFEST} not found — "
                "not a tiered store (use open_store / init_tier)"
            )
        self.placement = placement
        self._root_paths = placement.resolve_roots(self.root)
        self.hot = HotTier(placement.hot_bytes, placement.pinned)
        self.health = HealthTracker(
            len(self._root_paths),
            failure_threshold=placement.failure_threshold,
            cooldown_s=placement.cooldown_s,
            clock=clock,
        )
        self.repair_queue = UnderReplicatedQueue(self.root)

    # -- multi-root hooks (see ConnStore) ----------------------------------

    def roots(self) -> list[Path]:
        return list(self._root_paths)

    def object_dirs(self) -> list[Path]:
        return [path / "objects" for path in self._root_paths]

    def owning_root(self, path: Path) -> Path:
        """The declared root a file lives under (longest-prefix match,
        so a secondary root nested inside the primary still wins for
        its own files)."""
        best = self.root
        best_len = -1
        for candidate in self._root_paths:
            if not path.is_relative_to(candidate):
                continue
            score = len(candidate.parts)
            if score > best_len:
                best, best_len = candidate, score
        return best

    # -- object routing ----------------------------------------------------

    def _root_for(self, digest: str) -> Path:
        index = self.placement.active_index(PlacementManifest.bucket_of(digest))
        return self._root_paths[index]

    def _object_path_at(self, index: int, digest: str) -> Path:
        return (
            self._root_paths[index] / "objects" / digest[:2]
            / f"{digest}{_OBJECT_SUFFIX}"
        )

    def _object_path(self, digest: str) -> Path:
        return (
            self._root_for(digest) / "objects" / digest[:2]
            / f"{digest}{_OBJECT_SUFFIX}"
        )

    def _candidate_paths(self, digest: str) -> list[Path]:
        """Everywhere the digest could legally live: the replica set
        first (primary, then rendezvous secondaries), then every other
        root (mid-move duplicates, crash leftovers, re-routed writes)."""
        order = self.placement.replica_order(PlacementManifest.bucket_of(digest))
        return [self._object_path_at(index, digest) for index in order]

    def replica_paths(self, digest: str) -> list[tuple[int, Path]]:
        """The (root index, path) pairs that must each hold a copy."""
        bucket = PlacementManifest.bucket_of(digest)
        return [
            (index, self._object_path_at(index, digest))
            for index in self.placement.replica_indices(bucket)
        ]

    def _root_down(self, index: int) -> bool:
        """Is this root's *infrastructure* gone (vs. one file missing)?

        The probe routes through the fsio guard so the chaos plane's
        ``root_down``/``flaky_root`` rules fire on it exactly as a real
        unmounted disk would surface, then checks the directory itself.
        A root that has never been written is created on demand by the
        write path, so "directory missing" genuinely means lost.
        """
        root = self._root_paths[index]
        try:
            fsio.guard("probe", root)
        except OSError:
            return True
        return not root.is_dir()

    def put_object(self, data: bytes) -> str:
        """Publish shard bytes to the digest's full replica set.

        Walks the rendezvous order: the first ``replicas`` *usable*
        roots get a copy — a root whose breaker is open, or whose
        publish fails, is skipped (and counted against its health) and
        the write re-routes to the next surviving root, so one dead
        root never reduces the number of live copies.  Any deficit in
        the *strict* replica set is enqueued for repair.  Raises only
        when no root at all accepted the bytes.
        """
        digest = hashlib.sha256(data).hexdigest()
        placement = self.placement
        bucket = PlacementManifest.bucket_of(digest)
        order = placement.replica_order(bucket)
        want = placement.effective_replicas()
        strict = set(placement.replica_indices(bucket))
        copies = 0
        published = False
        last_error: OSError | None = None
        for index in order:
            if copies >= want:
                break
            path = self._object_path_at(index, digest)
            if path.exists():
                copies += 1
                continue
            if not self.health.available(index):
                last_error = last_error or OSError(
                    f"root {index} circuit breaker open"
                )
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_bytes(path, data, tmp_prefix=f".{digest[:12]}-")
            except OSError as exc:
                self.health.record_failure(index)
                last_error = exc
                continue
            self.health.record_ok(index)
            copies += 1
            published = True
        if copies == 0:
            raise last_error if last_error is not None else OSError(
                f"no root accepted object {digest[:12]}…"
            )
        if copies < want or any(
            not self._object_path_at(index, digest).exists() for index in strict
        ):
            self.repair_queue.add_object(digest)
        if published:
            # A (re)published shard must never be shadowed by an older
            # cache entry — repair rewrites ride through here too.
            self.hot.invalidate(digest)
        return digest

    def get_object(self, digest: str) -> bytes:
        data = self.hot.get(digest)
        if data is not None:
            return data
        corrupt: ShardError | None = None
        order = self.placement.replica_order(PlacementManifest.bucket_of(digest))
        for index in order:
            if not self.health.available(index):
                continue  # open breaker: the replica fallback serves us
            path = self._object_path_at(index, digest)
            try:
                data = fsio.read_bytes(path)
            except FileNotFoundError:
                # Ambiguous: a missing *object* on a healthy root is a
                # replica miss (read-repair's job); a missing *root* is
                # an infrastructure failure the breaker must see.
                if self._root_down(index):
                    self.health.record_failure(index)
                continue
            except OSError:
                self.health.record_failure(index)
                continue
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                # A rotted copy at one root must not mask a healthy one
                # at another; remember the defect, keep scanning.  The
                # root's I/O is fine — the breaker stays out of it.
                corrupt = ShardError(
                    ErrorKind.DECODE_ERROR, str(path), None,
                    f"content address mismatch: named {digest[:12]}…, "
                    f"bytes hash to {actual[:12]}…",
                )
                continue
            self.health.record_ok(index)
            self.hot.put(digest, data)
            self._read_repair(digest, data)
            return data
        if corrupt is not None:
            raise corrupt
        raise ShardError(
            ErrorKind.TRUNCATED_BODY, str(self._object_path(digest)), None,
            f"shard object missing from all {len(self._root_paths)} root(s)",
        )

    def _read_repair(self, digest: str, data: bytes) -> None:
        """Re-publish a digest-verified copy to any replica root that
        lost (or never got) its own — the read that discovered the
        damage is the cheapest moment to mend it.  Failures degrade to
        a repair-queue entry; the read itself already succeeded.
        """
        if self.placement.effective_replicas() <= 1:
            return
        for index, path in self.replica_paths(digest):
            if path.exists():
                continue
            if not self.health.available(index):
                self.repair_queue.add_object(digest)
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_bytes(path, data, tmp_prefix=f".{digest[:12]}-")
                self.health.record_ok(index)
            except OSError:
                self.health.record_failure(index)
                self.repair_queue.add_object(digest)

    # -- manifest mirroring ------------------------------------------------

    def manifest_dirs(self) -> list[Path]:
        if self.placement.effective_replicas() <= 1:
            return [self.manifests_dir]
        return [self.manifests_dir] + [
            root / "manifests" for root in self._root_paths[1:]
        ]

    def mirror_paths(self, key: str) -> list[tuple[int, Path]]:
        """Where one manifest's mirrors belong (rendezvous by key)."""
        return [
            (index, self._root_paths[index] / "manifests" / f"{key}.json")
            for index in self.placement.mirror_indices(key)
        ]

    def _write_manifest(self, key: str, payload: dict) -> None:
        """Publish at the primary, then mirror to R-1 secondaries.

        The primary write keeps its historical semantics — it alone
        feeds the manifest listing, so the service's store-state token
        (and therefore every ETag) never sees the mirrors.  Mirror
        failures degrade to a repair-queue entry: the manifest is live
        the moment the primary copy lands.
        """
        super()._write_manifest(key, payload)
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        for index, path in self.mirror_paths(key):
            if not self.health.available(index):
                self.repair_queue.add_manifest(key)
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_text(path, text, tmp_prefix=f".{key[:12]}-")
                self.health.record_ok(index)
            except OSError:
                self.health.record_failure(index)
                self.repair_queue.add_manifest(key)

    def _delete_manifest(self, key: str) -> None:
        super()._delete_manifest(key)
        for _, path in self.mirror_paths(key):
            path.unlink(missing_ok=True)

    def lookup(self, key: str) -> dict | None:
        """Primary manifest first; fall back to a mirror only when the
        primary root cannot produce it — a mirror is a disaster copy,
        not a second source of truth."""
        found = super().lookup(key)
        if found is not None or self.placement.effective_replicas() <= 1:
            return found
        for _, path in self.mirror_paths(key):
            payload = read_manifest(path)
            if payload is None:
                continue
            ref = payload.get("ref")
            if ref is not None:
                return self.lookup(ref)
            return payload
        return None

    def referenced_objects(self) -> set[str]:
        """The flat walk plus every digest a *mirror* manifest names —
        a crash window where the primary copy is gone but the mirror
        survives must not let gc eat the objects repair still needs."""
        referenced = super().referenced_objects()
        if self.placement.effective_replicas() <= 1:
            return referenced
        primary_keys = (
            {path.stem for path in self.manifests_dir.glob("*.json")}
            if self.manifests_dir.is_dir()
            else set()
        )
        for directory in self.manifest_dirs()[1:]:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                if path.stem in primary_keys:
                    continue  # the primary copy was already folded in
                payload = read_manifest(path)
                if payload is not None:
                    referenced.update(manifest_references(payload))
        return referenced

    def gc(self, dry_run: bool = False, tmp_grace_s: float = DEFAULT_TMP_GRACE):
        """The flat gc, plus a sweep of orphaned mirror manifests —
        mirrors whose primary was retired (or quarantined) are dead
        weight that would otherwise pin their objects forever."""
        report = super().gc(dry_run=dry_run, tmp_grace_s=tmp_grace_s)
        if self.placement.effective_replicas() <= 1:
            return report
        primary_keys = (
            {path.stem for path in self.manifests_dir.glob("*.json")}
            if self.manifests_dir.is_dir()
            else set()
        )
        orphans = 0
        for directory in self.manifest_dirs()[1:]:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                if path.stem in primary_keys:
                    continue
                # Only checkpoint mirrors are swept: checkpoints are the
                # one manifest kind that is legitimately *retired*, so a
                # missing primary means "done", not "lost".  Any other
                # orphan mirror is a disaster copy — `repair --replicas`
                # restores the primary from it; gc must not eat it.
                payload = read_manifest(path)
                # A torn mirror restores nothing.
                retired = payload is None or payload.get("kind") == "checkpoint"
                if not retired:
                    continue
                orphans += 1
                if not dry_run:
                    path.unlink(missing_ok=True)
        return replace(report, orphan_mirrors=orphans)

    # -- rebalance ---------------------------------------------------------

    def add_root(self, spec: str) -> None:
        """Declare a new root (no data moves until :meth:`rebalance`)."""
        if spec in self.placement.roots:
            raise ValueError(f"root {spec!r} already declared")
        self.placement.roots.append(spec)
        self.placement.save(self.root)
        self._root_paths = self.placement.resolve_roots(self.root)

    def _bucket_files(self, bucket: str) -> list[tuple[int, Path]]:
        """(root index, path) of every object file in one bucket."""
        found: list[tuple[int, Path]] = []
        for index, root in enumerate(self._root_paths):
            objects = root / "objects"
            if not objects.is_dir():
                continue
            for prefix_dir in sorted(objects.iterdir()):
                if not prefix_dir.is_dir() or not prefix_dir.name.startswith(bucket):
                    continue
                for path in sorted(prefix_dir.glob(f"*{_OBJECT_SUFFIX}")):
                    found.append((index, path))
        return found

    def rebalance(self, max_buckets: int | None = None) -> RebalanceReport:
        """Move buckets toward the leveled placement, incrementally.

        Per bucket: record the move cursor, copy every object to the
        destination root (crash-consistent publishes; already-present
        copies are skipped, corrupt sources are left for scrub), flip
        the assignment in one atomic manifest write, then delete the
        now-duplicate source copies.  Readers are never blocked: until
        the flip they find objects at the old home, after it at the
        new one, and the any-root fallback covers every interleaving a
        crash can produce.  ``max_buckets`` bounds one pass so the
        rebalance can run as a background increment.
        """
        placement = self.placement
        target = placement.balanced_assign()
        todo = [
            bucket for bucket in BUCKETS
            if bucket in placement.moving or placement.assign[bucket] != target[bucket]
        ]
        limit = len(todo) if max_buckets is None else max(0, max_buckets)
        moved: list[str] = []
        copied = deleted = bytes_copied = 0
        for bucket in todo[:limit]:
            dest = placement.moving.get(bucket, target[bucket])
            if dest != placement.assign[bucket]:
                if placement.moving.get(bucket) != dest:
                    placement.moving[bucket] = dest
                    placement.save(self.root)
                # Populate the *entire* post-flip replica set, not just
                # the new primary — a move must never shrink redundancy.
                want = placement.replica_indices(bucket, primary=dest)
                for index, path in self._bucket_files(bucket):
                    data: bytes | None = None
                    for dest_index in want:
                        if dest_index == index:
                            continue
                        target_path = (
                            self._root_paths[dest_index] / "objects"
                            / path.parent.name / path.name
                        )
                        if target_path.exists():
                            continue
                        if data is None:
                            data = fsio.read_bytes(path)
                            if hashlib.sha256(data).hexdigest() != path.stem:
                                data = b""  # rotted source: scrub's problem
                        if not data:
                            continue
                        target_path.parent.mkdir(parents=True, exist_ok=True)
                        fsio.publish_bytes(
                            target_path, data, tmp_prefix=f".{path.stem[:12]}-"
                        )
                        copied += 1
                        bytes_copied += len(data)
                placement.assign[bucket] = dest
            placement.moving.pop(bucket, None)
            placement.save(self.root)  # the atomic flip
            moved.append(bucket)
            # Reap copies outside the replica set — and any crash-
            # orphaned duplicates — only after the flip is durable and
            # every replica-set copy of the file exists.
            keep = set(placement.replica_indices(bucket))
            for index, path in self._bucket_files(bucket):
                if index in keep:
                    continue
                replicated = all(
                    (
                        self._root_paths[keep_index] / "objects"
                        / path.parent.name / path.name
                    ).exists()
                    for keep_index in keep
                )
                if replicated:
                    path.unlink(missing_ok=True)
                    deleted += 1
        pending = tuple(placement.misplaced())
        return RebalanceReport(
            moved=tuple(moved),
            copied=copied,
            bytes_copied=bytes_copied,
            deleted=deleted,
            pending=pending,
        )

    # -- accounting --------------------------------------------------------

    def tier_status(self) -> dict:
        """Everything ``store tier status`` and ``/health`` report.

        A missing or unreadable root is *reported*, never raised: status
        is the tool an operator reaches for when a disk just died, so it
        must work hardest exactly when a root is gone.  Such a root
        shows ``"status": "down"`` with zeroed counts.
        """
        health = self.health.status()
        roots = []
        for index, root in enumerate(self._root_paths):
            entry = {
                "index": index,
                "path": str(root),
                "spec": self.placement.roots[index],
                "buckets": sum(
                    1 for b in BUCKETS if self.placement.assign[b] == index
                ),
                "objects": 0,
                "bytes": 0,
                "status": "ok",
                "health": health[index],
            }
            try:
                objects = root / "objects"
                if self._root_down(index):
                    entry["status"] = "down"
                elif objects.is_dir():
                    files = list(objects.glob(f"*/*{_OBJECT_SUFFIX}"))
                    entry["objects"] = len(files)
                    entry["bytes"] = sum(
                        path.stat().st_size for path in files
                    )
            except OSError:
                entry["status"] = "down"
                entry["objects"] = 0
                entry["bytes"] = 0
            roots.append(entry)
        queued_objects, queued_manifests = self.repair_queue.snapshot()
        return {
            "roots": roots,
            "assign": {b: self.placement.assign[b] for b in BUCKETS},
            "moving": dict(self.placement.moving),
            "misplaced": list(self.placement.misplaced()),
            "hot": self.hot.stats(),
            "replicas": self.placement.replicas,
            "effective_replicas": self.placement.effective_replicas(),
            "under_replicated": {
                "objects": len(queued_objects),
                "manifests": len(queued_manifests),
            },
        }

    def stats(self) -> dict:
        payload = super().stats()
        payload["tier"] = self.tier_status()
        return payload

    # -- replica repair ----------------------------------------------------

    def repair_replicas(self, sweep: bool = True) -> ReplicaRepairReport:
        """Drain the repair queue back to full redundancy.

        With ``sweep`` (the default) every object and manifest in the
        store is checked too — the queue is a hint, not a ledger, and a
        deficit created while no process was alive to notice (an
        operator's ``rm -rf``, a store initialized at R=1 and raised to
        R=2) is only visible to a sweep.  Copies are made strictly from
        digest-verified bytes, so repair can never change a content
        address — it only raises the number of roots holding it.
        """
        report = ReplicaRepairReport()
        placement = self.placement
        want = placement.effective_replicas()
        queued_objects, queued_manifests = self.repair_queue.snapshot()
        digests = set(queued_objects)
        keys = set(queued_manifests)
        if sweep:
            for directory in self.object_dirs():
                if not directory.is_dir():
                    continue
                for path in directory.glob(f"*/*{_OBJECT_SUFFIX}"):
                    digests.add(path.stem)
            for directory in self.manifest_dirs():
                if not directory.is_dir():
                    continue
                for path in directory.glob("*.json"):
                    keys.add(path.stem)
        repaired: set[str] = set()
        for digest in sorted(digests):
            data: bytes | None = None
            for path in self._candidate_paths(digest):
                try:
                    blob = fsio.read_bytes(path)
                except OSError:
                    continue
                if hashlib.sha256(blob).hexdigest() == digest:
                    data = blob
                    break
            if data is None:
                report.failed.append(digest)
                continue
            wrote = 0
            short = False
            for index, path in self.replica_paths(digest):
                if path.exists():
                    continue
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    fsio.publish_bytes(
                        path, data, tmp_prefix=f".{digest[:12]}-"
                    )
                    self.health.record_ok(index)
                    wrote += 1
                except OSError:
                    self.health.record_failure(index)
                    short = True
            if short:
                report.failed.append(digest)
                continue
            if wrote:
                report.objects_restored += 1
                report.copies_written += wrote
                self.hot.invalidate(digest)
            repaired.add(digest)
        repaired_manifests: set[str] = set()
        for key in sorted(keys):
            if self._repair_manifest(key, want, report):
                repaired_manifests.add(key)
        self.repair_queue.discard(
            objects=repaired & set(queued_objects),
            manifests=repaired_manifests & set(queued_manifests),
        )
        report.remaining = len(self.repair_queue)
        return report

    def _repair_manifest(
        self, key: str, want: int, report: ReplicaRepairReport
    ) -> bool:
        """Bring one manifest back to primary + R-1 identical mirrors."""
        primary = self._manifest_path(key)
        try:
            text = fsio.read_bytes(primary).decode("utf-8")
        except OSError:
            text = None
        if text is None:
            # The primary is gone: restore it from a mirror.  Checkpoint
            # mirrors are skipped — a checkpoint whose primary vanished
            # was *retired* by the checkpointer, and repair must not
            # resurrect it (same rule gc's orphan sweep applies).
            for _, path in self.mirror_paths(key):
                try:
                    blob = fsio.read_bytes(path).decode("utf-8")
                    payload = json.loads(blob)
                except (OSError, ValueError):
                    continue
                if not isinstance(payload, dict):
                    continue
                if payload.get("kind") == "checkpoint":
                    return True  # retired, nothing to restore
                text = blob
                break
            if text is None:
                report.failed.append(f"manifest:{key}")
                return False
            try:
                fsio.publish_text(primary, text, tmp_prefix=f".{key[:12]}-")
                report.manifests_mirrored += 1
            except OSError:
                report.failed.append(f"manifest:{key}")
                return False
        if want <= 1:
            return True
        short = False
        for index, path in self.mirror_paths(key):
            try:
                current = fsio.read_bytes(path).decode("utf-8")
            except OSError:
                current = None
            if current == text:
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_text(path, text, tmp_prefix=f".{key[:12]}-")
                self.health.record_ok(index)
                report.manifests_mirrored += 1
            except OSError:
                self.health.record_failure(index)
                short = True
        if short:
            report.failed.append(f"manifest:{key}")
        return not short


def init_tier(
    root: str | Path,
    roots: tuple[str, ...] = (),
    hot_bytes: int = DEFAULT_HOT_BYTES,
    pinned: tuple[str, ...] = (),
    replicas: int = 1,
) -> TieredStore:
    """Turn a store directory into a tiered store (idempotent layout).

    Existing objects stay where they are — every bucket starts assigned
    to the primary, so a freshly initialized tier answers identically
    to the flat store it replaced; ``rebalance`` then levels buckets
    across ``roots`` (extra roots beyond the implicit primary ``"."``).
    With ``replicas`` > 1, existing objects are *under-replicated* until
    ``repair --replicas`` (or the first cold read of each) copies them
    out; new writes land on the full replica set immediately.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    root = Path(root)
    if (root / TIER_MANIFEST).exists():
        raise FileExistsError(f"{root / TIER_MANIFEST} already exists")
    placement = PlacementManifest(
        roots=["."] + [spec for spec in roots if spec != "."],
        hot_bytes=hot_bytes,
        pinned=tuple(pinned),
        replicas=replicas,
    )
    root.mkdir(parents=True, exist_ok=True)
    placement.save(root)
    return TieredStore(root)


def open_store(root: str | Path) -> ConnStore:
    """The one constructor every layer uses: tiered iff tier.json exists."""
    root = Path(root)
    if (root / TIER_MANIFEST).exists():
        return TieredStore(root)
    return ConnStore(root)
