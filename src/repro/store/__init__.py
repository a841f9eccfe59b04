"""The connection-record store: shards, caching, and querying.

Sits between generation and analysis: :func:`repro.core.study.analyze_dataset`
shards every finished analysis into the store, content-addressed by the
trace files' digests, and later runs rebuild their tables from the
shards without touching a single pcap record.

* :mod:`repro.store.codec` — deterministic pickle-free value encoding.
* :mod:`repro.store.shard` — the columnar, CRC-checked shard format.
* :mod:`repro.store.cache` — the content-addressed object store.
* :mod:`repro.store.query` — filtered scans and table aggregations.
* :mod:`repro.store.scrub` — the scrubber (one-shot or in resumable
  steps), quarantine, repair.
* :mod:`repro.store.tier` — multi-root placement, hot tier, compaction.
"""

from .cache import DEFAULT_TMP_GRACE, CachedDataset, ConnStore, GcReport
from .query import ConnFilter, StoreQuery
from .schema import SCHEMA_VERSION
from .scrub import RepairOutcome, ScrubFinding, ScrubReport, StoreScrubber
from .shard import ShardError
from .tier import (
    CompactionReport,
    HotTier,
    PlacementManifest,
    RebalanceReport,
    TieredStore,
    compact_checkpoints,
    init_tier,
    open_store,
)

__all__ = [
    "ConnStore",
    "CachedDataset",
    "GcReport",
    "DEFAULT_TMP_GRACE",
    "ConnFilter",
    "StoreQuery",
    "ShardError",
    "StoreScrubber",
    "ScrubReport",
    "ScrubFinding",
    "RepairOutcome",
    "SCHEMA_VERSION",
    "TieredStore",
    "PlacementManifest",
    "HotTier",
    "RebalanceReport",
    "CompactionReport",
    "compact_checkpoints",
    "init_tier",
    "open_store",
]
