"""Crash-point soak: kill runs mid-publication, resume, compare digests.

Not a paper artifact — this drives whole CLI studies under the seeded
chaos fault plane (``repro.chaos``), kills them at scheduled I/O points
(mid-shard-publication, mid-checkpoint), then resumes against the same
store with honest I/O and asserts the resumed study's stdout is
**byte-identical** to a clean run's — at ``--jobs 1`` and ``--jobs 4``.
A post-soak ``store gc`` + scrub must come back clean: crashes may
strand temp files, but never corrupt published state.

Run via ``make chaos-soak``.  CI runs it as the chaos smoke job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import CHAOS_ENV, FaultKind, FaultPlane, FaultRule
from repro.chaos.faults import CRASH_EXIT_CODE
from repro.core.cli import main as cli_main
from repro.store import ConnStore
from repro.store.scrub import StoreScrubber

_REPO = Path(__file__).resolve().parent.parent

#: One fixed seed for the whole soak: the acceptance bar is determinism.
_SEED = 7
_STUDY = [
    "--seed", str(_SEED), "--scale", "0.004", "--datasets", "D0",
    "--max-windows", "2", "--error-policy", "tolerant",
    "--tables", "2", "--figures",
]
_STREAM = ["stream"] + _STUDY + ["--checkpoint-every", "300"]


def _run(args: list[str], plane: FaultPlane | None = None):
    env = dict(os.environ, PYTHONPATH="src")
    env.pop(CHAOS_ENV, None)
    if plane is not None:
        env[CHAOS_ENV] = plane.to_env()
    return subprocess.run(
        [sys.executable, "-m", "repro.core.cli", *args],
        env=env, cwd=_REPO, capture_output=True, text=True, timeout=600,
    )


def _crash_on_first_shard() -> FaultPlane:
    """Kill the process (exit 137) at the first shard-object publication."""
    return FaultPlane(
        seed=_SEED,
        rules=[FaultRule(FaultKind.CRASH, op="publish", path="*.rcs", at=(1,))],
    )


def _assert_store_scrubs_clean(root: Path) -> None:
    """The crashed-and-resumed store holds only verifiable state."""
    store = ConnStore(root)
    # The daemon is dead by now: disable the in-flight grace so even
    # seconds-old kill debris is swept, then verify nothing remains.
    store.gc(tmp_grace_s=0.0)
    report = StoreScrubber(store).scrub(tmp_grace_s=0.0)
    assert report.ok, report.render()
    assert report.stale_tmp == 0


@pytest.fixture(scope="module")
def clean_stdout():
    """The reference output every resumed run must reproduce exactly."""
    proc = _run(_STUDY + ["--jobs", "1"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kill_mid_publication_then_resume_jobs_1(tmp_path, clean_stdout, emit):
    store = tmp_path / "store"
    crashed = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)],
                   plane=_crash_on_first_shard())
    assert crashed.returncode == CRASH_EXIT_CODE
    resumed = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean_stdout
    _assert_store_scrubs_clean(store)
    emit(
        "chaos soak: --jobs 1 killed mid-publication (exit "
        f"{crashed.returncode}); resumed stdout byte-identical, store clean"
    )


def test_worker_crashes_poison_unit_then_resume_jobs_4(
    tmp_path, clean_stdout, emit
):
    """At --jobs 4 the crash lands in a forked worker: the scheduler
    quarantines the poison unit (3 dead workers) instead of retrying
    forever, the tolerant run still completes, and a chaos-free rerun
    against the same store matches the clean digest byte for byte."""
    store = tmp_path / "store"
    crashed = _run(_STUDY + ["--jobs", "4", "--store-dir", str(store)],
                   plane=_crash_on_first_shard())
    assert crashed.returncode == 0, crashed.stderr  # tolerant: quarantined
    assert "poison unit quarantined" in crashed.stdout
    resumed = _run(_STUDY + ["--jobs", "4", "--store-dir", str(store)])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean_stdout
    _assert_store_scrubs_clean(store)
    emit(
        "chaos soak: --jobs 4 poison unit quarantined after 3 worker "
        "kills; resumed stdout byte-identical, store clean"
    )


def test_enospc_during_soak_is_absorbed_and_accounted(tmp_path, clean_stdout):
    """The write-fault leg: a full disk at first publication degrades
    the tolerant run (io_error row), never the results."""
    store = tmp_path / "store"
    plane = FaultPlane(
        seed=_SEED,
        rules=[FaultRule(FaultKind.ENOSPC, op="publish", path="*.rcs", at=(1,))],
    )
    faulted = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)],
                   plane=plane)
    assert faulted.returncode == 0, faulted.stderr
    assert "errors: io_error" in faulted.stdout
    resumed = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean_stdout
    _assert_store_scrubs_clean(store)


def test_kill_mid_checkpoint_then_resume_stream(tmp_path, emit):
    """Kill the streaming engine at checkpoint publication; the resumed
    run picks up from the last durable checkpoint (or trace start) and
    renders the same bytes as an uninterrupted stream run."""
    clean = _run(_STREAM + ["--jobs", "1"])
    assert clean.returncode == 0, clean.stderr
    store = tmp_path / "store"
    plane = FaultPlane(
        seed=_SEED,
        rules=[FaultRule(FaultKind.CRASH, op="publish", path="*ckpt-*", at=(1,))],
    )
    crashed = _run(_STREAM + ["--jobs", "1", "--store-dir", str(store)],
                   plane=plane)
    assert crashed.returncode == CRASH_EXIT_CODE
    resumed = _run(_STREAM + ["--jobs", "1", "--store-dir", str(store)])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == clean.stdout
    _assert_store_scrubs_clean(store)
    emit(
        "chaos soak: stream run killed mid-checkpoint; resumed stdout "
        "byte-identical, store clean"
    )


def test_cli_scrub_passes_on_a_soaked_store(tmp_path):
    """The CI smoke contract in one test: ≥1 crash + ≥1 write fault,
    then ``store gc`` and ``repro store scrub`` assert a clean store."""
    store = tmp_path / "store"
    # Write-fault pass: ENOSPC degrades the run, store stays unpopulated
    # (a tolerant save aborts at the first failed object publication).
    enospc = FaultPlane(
        seed=_SEED,
        rules=[FaultRule(FaultKind.ENOSPC, op="publish", path="*.rcs", at=(1,))],
    )
    faulted = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)],
                   plane=enospc)
    assert faulted.returncode == 0, faulted.stderr
    # Crash pass against the same store: killed mid-publication.
    crashed = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)],
                   plane=_crash_on_first_shard())
    assert crashed.returncode == CRASH_EXIT_CODE
    resumed = _run(_STUDY + ["--jobs", "1", "--store-dir", str(store)])
    assert resumed.returncode == 0, resumed.stderr
    at = ["--store-dir", str(store)]
    assert cli_main(["store", "gc"] + at) == 0
    assert cli_main(["store", "scrub"] + at) == 0
