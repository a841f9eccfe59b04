"""Tiered multi-root storage: placement, hot cache, compaction.

See ``docs/store.md`` (§ tiering) for the operational story.  The short
version: ``init_tier`` stamps a placement manifest onto a store root,
``open_store`` returns the right store class for any root, and the
rest of the pipeline never knows the difference.
"""

from .compact import CompactionReport, compact_checkpoints
from .health import QUEUE_FILE, HealthTracker, UnderReplicatedQueue
from .hotcache import HotTier
from .placement import BUCKETS, DEFAULT_HOT_BYTES, TIER_MANIFEST, PlacementManifest
from .store import (
    RebalanceReport,
    ReplicaRepairReport,
    TieredStore,
    init_tier,
    open_store,
)

__all__ = [
    "BUCKETS",
    "CompactionReport",
    "DEFAULT_HOT_BYTES",
    "HealthTracker",
    "HotTier",
    "PlacementManifest",
    "QUEUE_FILE",
    "RebalanceReport",
    "ReplicaRepairReport",
    "TIER_MANIFEST",
    "TieredStore",
    "UnderReplicatedQueue",
    "compact_checkpoints",
    "init_tier",
    "open_store",
]
