"""Store scrub-and-repair: find damage, quarantine it, re-derive shards.

The store's readers already *survive* corruption — content addresses and
CRC footers turn any flipped bit into a :class:`~repro.store.shard.ShardError`
at load time, and the tolerant policies fall back to a cold re-parse.
What they cannot do is *fix* the store: a damaged shard stays on disk,
poisoning every future warm start of its dataset.  This module closes
that loop with two passes:

**Scrub** (:class:`StoreScrubber`) walks every shard object and every
manifest.  An object whose bytes no longer hash to its own name,
or whose RCS1 frame fails to verify, is *quarantined*: moved out of the
objects tree into ``<root>/quarantine/<error-kind>/`` (the PR-1
:class:`~repro.analysis.errors.ErrorKind` taxonomy names the
subdirectory) next to a JSON sidecar recording what was wrong.  An
unparseable manifest is quarantined the same way.  Manifests that parse
but reference objects which are missing — or whose every copy was just
found corrupt — are reported as damaged; checkpoint manifests whose
state shard is gone are unresumable and quarantined outright.  Stale
``.tmp`` files are counted (informationally; ``store gc`` removes them).

There is one scrubber, walking three phases (objects → manifests → tmp)
driven by a progress cursor.  :meth:`StoreScrubber.step` advances the
cursor by a bounded number of items and persists it as
``scrub-cursor.json`` at the primary root (published through the fsio
seam), so a background task can be paused, rescheduled or killed
anywhere and resume where it stopped; :meth:`StoreScrubber.scrub` is
the same walk run to completion on an in-memory cursor.  Both fold into
the same :class:`ScrubReport`, so the CLI renders them identically.

**Repair** (:class:`StoreScrubber.repair`) re-derives damaged dataset
manifests from their source traces.  Every analysis manifest written by
the study carries a ``repair`` block (error policy, known scanners,
engine configuration) — combined with the per-trace window metadata the
manifest already holds, that is the complete recipe to re-run the
analysis pipeline over the original pcaps.  Because both the pipeline
and the shard encoding are deterministic, a successful repair
republishes byte-identical objects under the *same* content addresses
the manifest expected — verifiable, not merely plausible.  Traces that
are missing or no longer digest-match make a manifest unrepairable; it
stays in place (its healthy shards remain loadable by tolerant readers)
and is reported.

Layout after a quarantine::

    <root>/quarantine/
      decode_error/<digest>.rcs        # bytes that no longer match
      decode_error/<digest>.rcs.json   # {"kind", "detail", "source", ...}
      bad_magic/<key>.json             # a manifest that failed to parse
      bad_magic/<key>.json.json

Nothing in here imports the analysis pipeline at module scope — repair
resolves :func:`repro.core.study.analyze_dataset` lazily, keeping the
store package import-light.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..analysis.errors import ErrorKind
from ..chaos import fsio
from ..gen.capture import DatasetTraces, TapWindow, Trace
from ..gen.datasets import DATASETS
from .cache import ConnStore, DEFAULT_TMP_GRACE, _OBJECT_SUFFIX, manifest_references
from .shard import ShardError, decode_shard

__all__ = [
    "CURSOR_FILE",
    "ScrubFinding",
    "ScrubReport",
    "RepairOutcome",
    "StoreScrubber",
]

#: Subdirectory of the store root holding quarantined files.
QUARANTINE_DIR = "quarantine"

#: Progress-cursor filename at the primary store root.
CURSOR_FILE = "scrub-cursor.json"

_PHASES = ("objects", "manifests", "tmp", "done")


def _fresh_cursor() -> dict:
    return {
        "schema": 1,
        "phase": "objects",
        "after": None,
        "objects_checked": 0,
        "manifests_checked": 0,
        "corrupt_objects": [],
        "corrupt_manifests": [],
        "dead_checkpoints": [],
        "missing_refs": {},
        "stale_tmp": 0,
        "in_flight_tmp": 0,
        "replica_target": 1,
        "under_replicated": {},
        "under_replicated_manifests": {},
        # Streaming replica counter: the digest whose copies the objects
        # phase is mid-way through counting when a budget boundary (or a
        # crash) lands between two copies of it.
        "pending_digest": None,
        "pending_copies": 0,
        # Digests whose every copy failed verification this cycle; an
        # audit leaves them in place, and the manifests phase must still
        # count them as missing.
        "rotten_digests": [],
    }


def _walk_key(path: Path) -> list[str]:
    # Digest first so the watermark is stable across roots; the full
    # path breaks ties when a duplicate copy exists at two roots.
    return [path.name, str(path)]


@dataclass(frozen=True)
class ScrubFinding:
    """One damaged file the scrubber met."""

    #: PR-1 taxonomy value naming the defect (``decode_error``, ...).
    kind: str
    #: The damaged file, relative to the store root.
    path: str
    #: What exactly was wrong.
    detail: str
    #: Where the file went, relative to the store root ("" = left in place).
    quarantined_to: str = ""


@dataclass
class ScrubReport:
    """Everything one scrub pass established about the store."""

    objects_checked: int = 0
    manifests_checked: int = 0
    #: Corrupt shard objects (quarantined).
    corrupt_objects: list[ScrubFinding] = field(default_factory=list)
    #: Manifests that failed to parse (quarantined).
    corrupt_manifests: list[ScrubFinding] = field(default_factory=list)
    #: Parseable manifests referencing missing objects: key -> digests.
    missing_refs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Checkpoint manifests whose state shard is gone (quarantined).
    dead_checkpoints: list[ScrubFinding] = field(default_factory=list)
    #: Stale temp files seen (informational; ``store gc`` removes them).
    stale_tmp: int = 0
    #: Young temp files inside the grace period — a live writer's
    #: in-flight publishes, not damage.
    in_flight_tmp: int = 0
    #: The store's replica target (1 for flat / unreplicated stores).
    replica_target: int = 1
    #: Objects short of the target: digest -> verified copies found.
    under_replicated: dict[str, int] = field(default_factory=dict)
    #: Manifests short of mirrors: key -> identical copies found.
    under_replicated_manifests: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the store is fully healthy."""
        return not (
            self.corrupt_objects
            or self.corrupt_manifests
            or self.missing_refs
            or self.dead_checkpoints
            or self.under_replicated
            or self.under_replicated_manifests
        )

    @property
    def quarantined(self) -> int:
        """Files moved into the quarantine tree by this pass."""
        return sum(
            1
            for finding in (
                self.corrupt_objects + self.corrupt_manifests + self.dead_checkpoints
            )
            if finding.quarantined_to
        )

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"scrubbed {self.objects_checked} objects, "
            f"{self.manifests_checked} manifests: "
            + ("clean" if self.ok else "DAMAGED")
        ]
        for finding in self.corrupt_objects + self.corrupt_manifests:
            verb = "quarantined" if finding.quarantined_to else "corrupt"
            lines.append(
                f"  {verb} {finding.path} ({finding.kind}): {finding.detail}"
            )
        for key, digests in sorted(self.missing_refs.items()):
            lines.append(
                f"  manifest {key[:12]}… missing {len(digests)} referenced "
                f"object(s): {', '.join(digest[:12] + '…' for digest in digests)}"
            )
        for finding in self.dead_checkpoints:
            verb = "quarantined" if finding.quarantined_to else "found"
            lines.append(
                f"  {verb} unresumable checkpoint {finding.path}: "
                f"{finding.detail}"
            )
        for digest, copies in sorted(self.under_replicated.items()):
            lines.append(
                f"  under-replicated object {digest[:12]}…: {copies}/"
                f"{self.replica_target} cop{'y' if copies == 1 else 'ies'} "
                "(run `store repair --replicas`)"
            )
        for key, copies in sorted(self.under_replicated_manifests.items()):
            lines.append(
                f"  under-replicated manifest {key[:12]}…: {copies}/"
                f"{self.replica_target} cop{'y' if copies == 1 else 'ies'} "
                "(run `store repair --replicas`)"
            )
        if self.stale_tmp:
            lines.append(
                f"  {self.stale_tmp} stale temp file(s) (run `store gc`)"
            )
        if self.in_flight_tmp:
            lines.append(
                f"  {self.in_flight_tmp} in-flight temp file(s) "
                "(live writer; left alone)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairOutcome:
    """What happened to one damaged manifest during repair."""

    key: str
    dataset: str
    repaired: bool
    #: Digests republished (all under their original content addresses).
    restored: tuple[str, ...] = ()
    reason: str = ""


class StoreScrubber:
    """Integrity walker and repairer for one :class:`ConnStore`: run in
    one sitting (:meth:`scrub`) or in resumable bounded steps
    (:meth:`step`, :meth:`run`)."""

    def __init__(self, store: ConnStore) -> None:
        self.store = store
        self.cursor_path = store.root / CURSOR_FILE

    # -- quarantine --------------------------------------------------------

    def _quarantine(self, path: Path, kind: str, detail: str) -> str:
        """Move one damaged file under the quarantine tree + sidecar.

        Returns the destination relative to the file's *owning root* —
        on a tiered store, damage at a secondary root is quarantined
        into that root's own ``quarantine/`` tree, keeping the move a
        same-filesystem rename (which cannot itself tear); the sidecar
        records provenance for a human (or a later forensic pass).
        """
        owner = self.store.owning_root(path)
        target_dir = owner / QUARANTINE_DIR / kind
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        os.replace(path, target)
        if path.name.endswith(_OBJECT_SUFFIX):
            # A quarantined shard must also leave the hot tier — cached
            # bytes for a digest the store just disowned would keep
            # serving after the disk copy is gone.
            hot = getattr(self.store, "hot", None)
            if hot is not None:
                hot.invalidate(path.stem)
        sidecar = {
            "kind": kind,
            "detail": detail,
            "source": str(path.relative_to(owner)),
        }
        target.with_name(target.name + ".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        return str(target.relative_to(owner))

    # -- cursor ------------------------------------------------------------

    def cursor(self) -> dict:
        """The persisted cursor, or a fresh one for a new cycle."""
        try:
            payload = json.loads(fsio.read_bytes(self.cursor_path).decode("utf-8"))
        except (OSError, ValueError):
            return _fresh_cursor()
        if payload.get("phase") not in _PHASES:
            return _fresh_cursor()
        for key, value in _fresh_cursor().items():
            payload.setdefault(key, value)  # cursors from older cycles
        return payload

    def _save(self, cursor: dict) -> None:
        text = json.dumps(cursor, sort_keys=True, indent=1) + "\n"
        fsio.publish_text(self.cursor_path, text, tmp_prefix=".scrub-")

    def reset(self) -> None:
        """Start the next scrub cycle from the beginning."""
        self.cursor_path.unlink(missing_ok=True)

    # -- scrub -------------------------------------------------------------

    def _check_object(self, path: Path) -> ShardError | None:
        """Verify one shard object's content address and RCS1 frame."""
        digest = path.stem
        try:
            data = fsio.read_bytes(path)
        except OSError as exc:
            return ShardError(
                ErrorKind.TRUNCATED_BODY, str(path), None, f"unreadable: {exc}"
            )
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            return ShardError(
                ErrorKind.DECODE_ERROR, str(path), None,
                f"content address mismatch: named {digest[:12]}…, "
                f"bytes hash to {actual[:12]}…",
            )
        try:
            decode_shard(data, str(path))
        except ShardError as exc:
            return exc
        return None

    def scrub(
        self,
        quarantine: bool = True,
        tmp_grace_s: float = DEFAULT_TMP_GRACE,
    ) -> ScrubReport:
        """Walk the whole store; optionally quarantine what is damaged.

        The stepped walk run to completion: a fresh in-memory cursor is
        advanced with no budget until its cycle is done.  The persisted
        cursor is neither read nor written, so a one-shot scrub beside a
        daemon's maintenance cycle leaves that cycle where it was.

        With ``quarantine=False`` this is a pure audit — nothing moves,
        the report just says what *would* be quarantined.  Temp files
        younger than ``tmp_grace_s`` seconds are reported as in-flight
        (a live daemon's publishes), not stale — same rule as
        :meth:`ConnStore.gc`.
        """
        cursor = _fresh_cursor()
        while cursor["phase"] != "done":
            self._advance(cursor, None, quarantine, tmp_grace_s)
        return self.report(cursor)

    def step(
        self,
        budget: int = 250,
        quarantine: bool = True,
        tmp_grace_s: float = DEFAULT_TMP_GRACE,
    ) -> dict:
        """Verify up to ``budget`` items, persist the cursor, return it.

        A completed cycle parks the cursor at phase ``done``; calling
        :meth:`step` on a done cursor starts a new cycle (integrity is
        a rolling concern, not a one-shot).
        """
        cursor = self.cursor()
        if cursor["phase"] == "done":
            cursor = _fresh_cursor()
        self._advance(cursor, budget, quarantine, tmp_grace_s)
        self._save(cursor)
        return cursor

    def run(
        self,
        budget: int = 250,
        quarantine: bool = True,
        tmp_grace_s: float = DEFAULT_TMP_GRACE,
        max_steps: int = 0,
    ) -> dict:
        """Step until the cycle completes (or ``max_steps`` is hit)."""
        steps = 0
        while True:
            cursor = self.step(budget, quarantine, tmp_grace_s)
            steps += 1
            if cursor["phase"] == "done" or (max_steps and steps >= max_steps):
                return cursor

    # -- phases ------------------------------------------------------------

    def _advance(
        self, cursor: dict, budget: int | None, quarantine: bool, tmp_grace_s: float
    ) -> None:
        """Run the cursor's phase for up to ``budget`` items (``None``:
        unbounded).  The tmp phase is one census and always completes,
        so it rides along with whichever phase finished before it."""
        placement = getattr(self.store, "placement", None)
        cursor["replica_target"] = (
            placement.effective_replicas() if placement is not None else 1
        )
        if cursor["phase"] == "objects":
            self._step_objects(cursor, budget, quarantine)
        elif cursor["phase"] == "manifests":
            self._step_manifests(cursor, budget, quarantine)
        if cursor["phase"] == "tmp":
            # Count (never touch) temp files; `store gc` removes the stale.
            stale, in_flight = self.store.tmp_census(tmp_grace_s)
            cursor["stale_tmp"] = len(stale)
            cursor["in_flight_tmp"] = in_flight
            cursor["phase"] = "done"

    def _record(
        self, cursor: dict, field_name: str, path: Path, kind: str, detail: str,
        quarantine: bool,
    ) -> None:
        """Add one finding to the cursor, quarantining the file unless
        this is an audit."""
        rel = str(path.relative_to(self.store.owning_root(path)))
        destination = self._quarantine(path, kind, detail) if quarantine else ""
        cursor[field_name].append(
            {"kind": kind, "path": rel, "detail": detail, "quarantined_to": destination}
        )

    @staticmethod
    def _close_run(cursor: dict) -> None:
        """Close the streaming copy count for the digest just walked: no
        verified copy makes it rotten, too few makes it under-replicated."""
        digest = cursor["pending_digest"]
        if digest is not None:
            copies = cursor["pending_copies"]
            if copies == 0:
                cursor["rotten_digests"].append(digest)
            elif copies < cursor["replica_target"]:
                cursor["under_replicated"][digest] = copies
        cursor["pending_digest"] = None
        cursor["pending_copies"] = 0

    @staticmethod
    def _walk(
        cursor: dict, paths: list[Path], budget: int | None, next_phase: str
    ) -> Iterator[Path]:
        """Yield up to ``budget`` of ``paths`` (``None``: all) past the
        cursor's watermark, advancing it; once every path is walked,
        move the cursor on to ``next_phase``."""
        after = cursor["after"]
        checked = 0
        for path in paths:
            key = _walk_key(path)
            if after is not None and key <= after:
                continue
            if budget is not None and checked >= budget:
                return
            checked += 1
            cursor["after"] = key
            yield path
        cursor["phase"] = next_phase
        cursor["after"] = None

    def _step_objects(self, cursor: dict, budget: int | None, quarantine: bool) -> None:
        """Every shard object self-verifies, across every root."""
        files = sorted(self.store._object_files(), key=_walk_key)
        for path in self._walk(cursor, files, budget, "manifests"):
            cursor["objects_checked"] += 1
            # Copies of one digest are adjacent in the walk (the key
            # leads with the filename), so counting verified copies per
            # digest is a run-length that survives step boundaries.
            if cursor["pending_digest"] != path.stem:
                self._close_run(cursor)
                cursor["pending_digest"] = path.stem
            error = self._check_object(path)
            if error is None:
                cursor["pending_copies"] += 1
            else:
                self._record(
                    cursor, "corrupt_objects", path, error.kind.value,
                    error.detail, quarantine,
                )
        if cursor["phase"] == "manifests":
            self._close_run(cursor)

    def _step_manifests(
        self, cursor: dict, budget: int | None, quarantine: bool
    ) -> None:
        """Every manifest parses and its references resolve; on a
        replicated store each must also have byte-identical mirrors.

        A referenced digest is missing when no copy of it exists, or
        when every existing copy was found corrupt this cycle — the
        second case is an audit's, where corrupt copies stay in place.
        """
        store = self.store
        rotten = set(cursor["rotten_digests"])
        paths = (
            sorted(store.manifests_dir.glob("*.json"))
            if store.manifests_dir.is_dir()
            else []
        )
        for path in self._walk(cursor, paths, budget, "tmp"):
            cursor["manifests_checked"] += 1
            try:
                text = fsio.read_bytes(path).decode("utf-8")
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise ValueError(f"not a JSON object: {type(payload).__name__}")
            except (OSError, ValueError) as exc:
                self._record(
                    cursor, "corrupt_manifests", path,
                    ErrorKind.DECODE_ERROR.value, str(exc), quarantine,
                )
                continue
            if cursor["replica_target"] > 1:
                found = 1 + sum(
                    1
                    for _, mirror in store.mirror_paths(path.stem)
                    if self._mirror_matches(mirror, text)
                )
                if found < cursor["replica_target"]:
                    cursor["under_replicated_manifests"][path.stem] = found
            missing = [
                digest
                for digest in manifest_references(payload)
                if digest in rotten
                or not any(copy.exists() for copy in store._candidate_paths(digest))
            ]
            if not missing:
                continue
            if payload.get("kind") == "checkpoint" and payload["state"] in missing:
                # Without its state shard the checkpoint can never
                # resume; keeping the manifest would pin dead batch
                # objects through every future gc.
                self._record(
                    cursor, "dead_checkpoints", path,
                    ErrorKind.TRUNCATED_BODY.value,
                    f"state shard {payload['state'][:12]}… missing", quarantine,
                )
                continue
            cursor["missing_refs"][payload.get("key", path.stem)] = missing

    @staticmethod
    def _mirror_matches(path: Path, text: str) -> bool:
        """Does one mirror hold exactly the primary's bytes?"""
        try:
            return fsio.read_bytes(path).decode("utf-8") == text
        except (OSError, UnicodeDecodeError):
            return False

    # -- reporting ---------------------------------------------------------

    def report(self, cursor: dict | None = None) -> ScrubReport:
        """Fold a cursor (the persisted one by default) into a report."""
        cursor = cursor if cursor is not None else self.cursor()

        def findings(rows: list[dict]) -> list[ScrubFinding]:
            return [
                ScrubFinding(
                    row["kind"], row["path"], row["detail"], row["quarantined_to"]
                )
                for row in rows
            ]

        return ScrubReport(
            objects_checked=cursor["objects_checked"],
            manifests_checked=cursor["manifests_checked"],
            corrupt_objects=findings(cursor["corrupt_objects"]),
            corrupt_manifests=findings(cursor["corrupt_manifests"]),
            missing_refs={
                key: tuple(values)
                for key, values in cursor["missing_refs"].items()
            },
            dead_checkpoints=findings(cursor["dead_checkpoints"]),
            stale_tmp=cursor["stale_tmp"],
            in_flight_tmp=cursor["in_flight_tmp"],
            replica_target=cursor["replica_target"],
            under_replicated=dict(cursor["under_replicated"]),
            under_replicated_manifests=dict(cursor["under_replicated_manifests"]),
        )

    # -- repair ------------------------------------------------------------

    def repair(self, traces_dir: str | Path | None = None) -> list[RepairOutcome]:
        """Re-derive every damaged dataset manifest from source traces.

        Runs a quarantining scrub first (repairing around a corrupt
        object requires it out of the way), then, for each analysis
        manifest with missing shards, replays the recorded analysis
        recipe over the original pcaps under ``traces_dir``.  The
        pipeline is deterministic, so the republished objects land on
        exactly the content addresses the manifest already names — the
        repair is self-verifying.
        """
        from ..core.study import analyze_dataset  # lazy: avoids a package cycle
        from ..stream.engine import StreamConfig

        report = self.scrub(quarantine=True)
        outcomes: list[RepairOutcome] = []
        base = Path(traces_dir) if traces_dir is not None else None
        for key, missing in sorted(report.missing_refs.items()):
            manifest = self.store.lookup(key)
            if manifest is None or "dataset" not in manifest:
                outcomes.append(
                    RepairOutcome(key, "?", False, reason="manifest unreadable")
                )
                continue
            name = manifest["dataset"]
            recipe = manifest.get("repair")
            if recipe is None:
                outcomes.append(
                    RepairOutcome(
                        key, name, False,
                        reason="manifest predates repair metadata",
                    )
                )
                continue
            traces, problem = self._rebuild_traces(manifest, base)
            if traces is None:
                outcomes.append(RepairOutcome(key, name, False, reason=problem))
                continue
            engine_config = recipe.get("engine_config")
            analysis = analyze_dataset(
                name,
                traces,
                known_scanners=tuple(recipe.get("known_scanners", ())),
                error_policy=recipe.get("error_policy", "strict"),
                store=None,  # compute fresh; publication happens below
                engine=recipe.get("engine", "batch"),
                stream=StreamConfig(**engine_config) if engine_config else None,
            )
            digests = [entry["digest"] for entry in manifest["traces"]]
            rebuilt = self.store.save_analysis(
                key, analysis, traces, digests, repair=recipe
            )
            restored = tuple(
                digest for digest in manifest_references(rebuilt) if digest in missing
            )
            still_missing = set(missing) - set(manifest_references(rebuilt))
            if still_missing:
                outcomes.append(
                    RepairOutcome(
                        key, name, False, restored=restored,
                        reason=(
                            "re-derived shards landed on different content "
                            f"addresses ({len(still_missing)} unmatched) — "
                            "source traces no longer produce this analysis"
                        ),
                    )
                )
            else:
                outcomes.append(RepairOutcome(key, name, True, restored=restored))
        return outcomes

    def _rebuild_traces(
        self, manifest: dict, base: Path | None
    ) -> tuple[DatasetTraces | None, str]:
        """Reconstruct a :class:`DatasetTraces` over the on-disk pcaps.

        Every trace file must exist under ``base`` and digest-match its
        manifest entry — repairing from mutated sources would publish
        wrong bytes under right-looking names.
        """
        name = manifest["dataset"]
        if name not in DATASETS:
            return None, f"unknown dataset {name!r}"
        traces = DatasetTraces(config=DATASETS[name])
        for entry in manifest["traces"]:
            path = (base / entry["file"]) if base is not None else Path(entry["file"])
            if not path.exists():
                return None, f"source trace {entry['file']} missing"
            if ConnStore.file_digest(path) != entry["digest"]:
                return None, f"source trace {entry['file']} no longer digest-matches"
            window = entry["window"]
            traces.traces.append(
                Trace(
                    dataset=name,
                    window=TapWindow(
                        index=window["index"],
                        subnet_index=window["subnet_index"],
                        t0=window["t0"],
                        t1=window["t1"],
                    ),
                    path=path,
                    packet_count=entry["packet_count"],
                    snaplen=entry["snaplen"],
                )
            )
        return traces, ""
