"""The always-on supervisor: one loop, many tenant feeds, no sharing
of fate.

:class:`DaemonSupervisor` forks one :mod:`~repro.daemon.feed` process
per tenant and then does only four things, forever:

* **watch** — drain each feed's pipe: heartbeats refresh the liveness
  clock, progress messages become typed telemetry events, and window
  messages additionally run through the :class:`~repro.daemon.alerts.AlertEngine`.
* **restart** — a feed that dies without finishing is relaunched with
  the :class:`~repro.runtime.scheduler.RetryPolicy` exponential backoff
  (the same curve the pool scheduler uses).  Completing a trace resets
  the crash streak: only *consecutive* failures count toward poison.
* **quarantine** — a feed that crashes ``retry.max_crashes`` times in a
  row is poison: the supervisor stops restarting it, publishes
  ``quarantined.json`` under the tenant's directory, and emits a
  ``feed_quarantined`` telemetry event typed with the ErrorKind
  taxonomy (``worker_error``).  Every other feed keeps running — the
  isolation guarantee is structural (separate processes, separate flow
  tables, separate artifact trees), and the supervisor preserves it by
  never blocking its loop on any single feed.
* **drain** — SIGTERM (or :meth:`request_stop`) forwards SIGTERM to
  every live feed; each flushes a final mid-trace checkpoint and exits,
  and feeds that overstay ``drain_timeout`` are killed.  A drained
  daemon resumes from those checkpoints on the next start.

The watchdog is the scheduler's heartbeat protocol verbatim: feeds beat
``("hb", ts)`` every ``retry.heartbeat_interval`` seconds, and a feed
silent past ``retry.heartbeat_timeout`` while still alive is SIGKILLed
and treated as a crash.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import signal
import time
from pathlib import Path

from ..analysis.errors import ErrorKind
from ..runtime.telemetry import TelemetryLog
from .alerts import AlertEngine
from .config import DaemonConfig, TenantSpec
from .feed import _publish_json, feed_child, tenant_dir

__all__ = ["DaemonSupervisor", "FeedState", "tenant_digest"]

#: Pipe-poll granularity of the supervisor loop.
_POLL_SECONDS = 0.05

#: Terminal feed statuses.
_TERMINAL = frozenset({"done", "quarantined", "drained"})


def tenant_digest(store_root: str | Path, tenant: str) -> str:
    """SHA-256 over one tenant's rolling-window artifacts.

    Hashes every ``windows/*.json`` file name and its bytes in sorted
    order.  Window publication is deterministic and idempotent, so this
    digest is a pure function of the trace bytes and the streaming
    config — byte-identical whether the daemon ran uninterrupted or was
    killed and resumed a dozen times.  The acceptance tests and the CI
    chaos soak are built on exactly this property.
    """
    digest = hashlib.sha256()
    windows = tenant_dir(store_root, tenant) / "windows"
    if windows.is_dir():
        for path in sorted(windows.glob("*.json")):
            digest.update(path.name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


class FeedState:
    """Supervisor-side bookkeeping for one tenant's feed."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.process = None
        self.conn = None
        self.status = "pending"  # pending|running|backoff|<terminal>
        self.attempts = 0
        #: Consecutive crashes with no trace completed in between.
        self.streak = 0
        self.restart_at = 0.0
        self.last_beat = 0.0
        self.traces_done = 0
        #: Set when the feed reported an orderly outcome this run.
        self.outcome: str | None = None

    @property
    def alive(self) -> bool:
        return self.status == "running"


class DaemonSupervisor:
    """Runs every tenant feed to completion (or quarantine, or drain)."""

    def __init__(
        self,
        tenants: list[TenantSpec],
        store_root: str | Path,
        config: DaemonConfig | None = None,
        alerts: AlertEngine | None = None,
        telemetry: TelemetryLog | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("daemon needs at least one --tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.tenants = list(tenants)
        self.store_root = Path(store_root)
        self.config = config if config is not None else DaemonConfig()
        self.alerts = alerts if alerts is not None else AlertEngine([])
        self.telemetry = telemetry if telemetry is not None else TelemetryLog()
        self.feeds = {spec.name: FeedState(spec) for spec in self.tenants}
        self._stop = False
        self._drain_deadline: float | None = None
        #: Idle-maintenance state: last feed message, next allowed tick,
        #: and the lazily opened store + scrubber the ticks reuse.
        self._last_activity = time.monotonic()
        self._next_maintenance = 0.0
        self._maintenance_scrubber = None
        self._maintenance_store = None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Begin a graceful drain (what SIGTERM does)."""
        self._stop = True

    def run(self, install_signals: bool = True) -> dict[str, str]:
        """Supervise until every feed reaches a terminal state.

        Returns ``{tenant: status}``.  With ``install_signals`` (the
        CLI default) SIGTERM and SIGINT trigger the graceful drain;
        pass False when running under a test harness that owns the
        handlers.
        """
        config = self.config
        self.telemetry.emit(
            "daemon_start",
            tenants=sorted(self.feeds),
            window=config.window,
            flow_budget=config.flow_budget,
            tenant_flow_budgets={
                name: config.flow_budget_for(name)
                for name in sorted(self.feeds)
                if config.flow_budget_for(name) != config.flow_budget
            },
            checkpoint_every=config.checkpoint_every,
            error_policy=config.error_policy,
        )
        previous: dict[int, object] = {}
        if install_signals:
            try:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    previous[signum] = signal.signal(
                        signum, lambda *_: self.request_stop()
                    )
            except ValueError:
                previous = {}  # not the main thread; drain via request_stop
        try:
            self._loop()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._reap_all()
        statuses = {name: st.status for name, st in self.feeds.items()}
        self.telemetry.emit(
            "daemon_stop",
            tenants=statuses,
            drained=sum(1 for s in statuses.values() if s == "drained"),
            quarantined=sum(
                1 for s in statuses.values() if s == "quarantined"
            ),
        )
        return statuses

    # -- the loop ----------------------------------------------------------

    def _loop(self) -> None:
        feeds = self.feeds
        while any(st.status not in _TERMINAL for st in feeds.values()):
            now = time.monotonic()
            if self._stop:
                self._drain(now)
            for state in feeds.values():
                if state.status == "pending" or (
                    state.status == "backoff" and state.restart_at <= now
                ):
                    if self._stop:
                        # A drain aborts pending restarts: the feed's
                        # checkpoints already capture its progress.
                        state.status = "drained"
                        continue
                    self._launch(state)
            live = [st.conn for st in feeds.values() if st.alive]
            if live:
                multiprocessing.connection.wait(live, timeout=_POLL_SECONDS)
            else:
                waits = [
                    st.restart_at
                    for st in feeds.values()
                    if st.status == "backoff"
                ]
                if waits:
                    time.sleep(
                        max(0.0, min(min(waits) - time.monotonic(),
                                     _POLL_SECONDS))
                    )
            for state in feeds.values():
                if state.alive:
                    self._service(state)
            self._maybe_maintain(time.monotonic())

    def _maybe_maintain(self, now: float) -> None:
        """Run one bounded maintenance increment if the daemon is idle.

        "Idle" means no feed has sent a *progress* message for
        ``maintenance_idle_s`` — feeds between traces, in backoff, or
        all done.  Heartbeats don't count: a watch-mode feed waiting on
        an empty directory beats forever, and that is exactly when
        maintenance should run.  Each tick is one :meth:`StoreScrubber.step`
        plus one checkpoint-compaction pass, both budget/grace-bounded,
        in this process — the supervisor tick the loop already owns, no
        new workers.  Maintenance must never take the daemon down: any
        failure becomes a ``maintenance_error`` event and the loop moves
        on.
        """
        config = self.config
        if not config.maintenance or self._stop:
            return
        if now - self._last_activity < config.maintenance_idle_s:
            return
        if now < self._next_maintenance:
            return
        self._next_maintenance = now + config.maintenance_interval
        try:
            if self._maintenance_scrubber is None:
                from ..store.scrub import StoreScrubber
                from ..store.tier import compact_checkpoints, open_store

                self._maintenance_store = open_store(self.store_root)
                self._maintenance_scrubber = StoreScrubber(self._maintenance_store)
                self._compact = compact_checkpoints
            cursor = self._maintenance_scrubber.step(
                budget=config.maintenance_budget
            )
            compaction = self._compact(self._maintenance_store)
            self.telemetry.emit(
                "maintenance",
                scrub_phase=cursor["phase"],
                objects_checked=cursor["objects_checked"],
                manifests_checked=cursor["manifests_checked"],
                compacted=len(compaction.compacted),
            )
        except Exception as exc:  # noqa: BLE001 — maintenance is best-effort
            self.telemetry.emit(
                "maintenance_error",
                kind=ErrorKind.WORKER_ERROR.value,
                detail=str(exc),
            )

    def _feed_payload(self, spec: TenantSpec) -> dict:
        """The launch payload for one tenant's feed process — notably
        where the per-tenant flow-budget override takes effect."""
        return {
            "tenant": spec.name,
            "traces": [str(path) for path in spec.traces()],
            "store_root": str(self.store_root),
            "window": self.config.window,
            "flow_budget": self.config.flow_budget_for(spec.name),
            "checkpoint_every": self.config.checkpoint_every,
            "error_policy": self.config.error_policy,
            "packet_rate": self.config.packet_rate,
            "heartbeat_interval": self.config.retry.heartbeat_interval,
            "source": str(spec.source),
            "watch": self.config.watch,
            "watch_interval": self.config.watch_interval,
        }

    def _launch(self, state: FeedState) -> None:
        spec = state.spec
        payload = self._feed_payload(spec)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=feed_child,
            args=(child_conn, payload),
            name=f"repro-feed-{spec.name}",
        )
        process.start()
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.attempts += 1
        state.status = "running"
        state.outcome = None
        state.last_beat = time.monotonic()
        self.telemetry.emit(
            "feed_start",
            tenant=spec.name,
            attempt=state.attempts,
            traces=len(payload["traces"]),
        )

    # -- servicing one feed ------------------------------------------------

    def _service(self, state: FeedState) -> None:
        self._drain_messages(state)
        now = time.monotonic()
        retry = self.config.retry
        if (
            retry.heartbeat_timeout is not None
            and state.process.exitcode is None
            and now - state.last_beat > retry.heartbeat_timeout
        ):
            silent = now - state.last_beat
            self.telemetry.emit(
                "feed_hang",
                tenant=state.spec.name,
                silent_s=round(silent, 3),
            )
            # Too wedged to beat is too wedged for SIGTERM.
            state.process.kill()
            state.process.join(timeout=2.0)
        if state.process.exitcode is None:
            return
        # The feed is dead: collect trailing messages, then classify.
        state.process.join(timeout=2.0)
        self._drain_messages(state)
        state.conn.close()
        exitcode = state.process.exitcode
        state.process = None
        state.conn = None
        if state.outcome == "done":
            state.status = "done"
            state.streak = 0
            self.telemetry.emit(
                "feed_complete",
                tenant=state.spec.name,
                traces=state.traces_done,
                attempts=state.attempts,
            )
            return
        if state.outcome == "drained":
            state.status = "drained"
            return
        if self._stop:
            # Died during the drain (possibly our own escalation kill):
            # its checkpoints hold the progress; not a crash to count.
            state.status = "drained"
            return
        # No orderly outcome: a crash (injected, OOM-killed, or a bug).
        state.streak += 1
        self.telemetry.emit(
            "feed_crash",
            tenant=state.spec.name,
            exit_code=exitcode,
            crashes=state.streak,
            kind=ErrorKind.WORKER_ERROR.value,
        )
        if state.streak >= self.config.retry.max_crashes:
            self._quarantine(state, exitcode)
            return
        backoff = self.config.retry.backoff_for(state.streak)
        state.status = "backoff"
        state.restart_at = time.monotonic() + backoff
        self.telemetry.emit(
            "feed_restart",
            tenant=state.spec.name,
            backoff_s=round(backoff, 6),
            crashes=state.streak,
        )

    def _drain_messages(self, state: FeedState) -> None:
        conn = state.conn
        while conn.poll():
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "hb" and len(message) == 2:
                state.last_beat = time.monotonic()
                continue
            if message[0] == "msg" and len(message) == 3:
                self._last_activity = time.monotonic()
                self._handle(state, message[1], message[2])

    def _handle(self, state: FeedState, kind: str, body: dict) -> None:
        tenant = state.spec.name
        if kind == "window":
            self.telemetry.emit(
                "feed_window",
                tenant=tenant,
                trace=body.get("trace"),
                window=body.get("index"),
                packets=body.get("packets"),
                bytes=body.get("bytes"),
                retransmits=body.get("retransmits"),
            )
            for event in self.alerts.observe_window(
                tenant, body.get("trace", 0), body
            ):
                self.telemetry.emit(**event)
        elif kind == "scan":
            for event in self.alerts.observe_scanners(
                tenant, body.get("trace", 0), body.get("sources", [])
            ):
                self.telemetry.emit(**event)
        elif kind == "trace":
            state.traces_done += 1
            state.streak = 0  # forward progress: crashes are no longer consecutive
            self.telemetry.emit(
                "feed_trace",
                tenant=tenant,
                trace=body.get("trace"),
                packets=body.get("packets"),
                conns=body.get("conns"),
                quarantined=body.get("quarantined", False),
            )
        elif kind == "rescan":
            self.telemetry.emit(
                "feed_rescan",
                tenant=tenant,
                new=body.get("new", []),
                total=body.get("total"),
            )
        elif kind in ("done", "drained"):
            state.outcome = kind
        elif kind == "error":
            self.telemetry.emit(
                "feed_error",
                tenant=tenant,
                kind=body.get("kind", ErrorKind.WORKER_ERROR.value),
                detail=body.get("detail", ""),
            )

    # -- quarantine and drain ----------------------------------------------

    def _quarantine(self, state: FeedState, exitcode: int | None) -> None:
        """Poison feed: stop restarting it, record why, move on."""
        tenant = state.spec.name
        state.status = "quarantined"
        detail = (
            f"poison feed quarantined after {state.streak} consecutive "
            f"crashes (last exit code {exitcode})"
        )
        self.telemetry.emit(
            "feed_quarantined",
            tenant=tenant,
            crashes=state.streak,
            kind=ErrorKind.WORKER_ERROR.value,
            detail=detail,
        )
        try:
            _publish_json(
                tenant_dir(self.store_root, tenant) / "quarantined.json",
                {
                    "tenant": tenant,
                    "kind": ErrorKind.WORKER_ERROR.value,
                    "crashes": state.streak,
                    "detail": detail,
                },
            )
        except OSError:
            pass  # the telemetry event already recorded the quarantine

    def _drain(self, now: float) -> None:
        """Forward SIGTERM once; escalate to SIGKILL past the deadline."""
        if self._drain_deadline is None:
            self._drain_deadline = now + self.config.drain_timeout
            for state in self.feeds.values():
                if state.alive and state.process.exitcode is None:
                    state.process.terminate()  # the feed's drain hook
        elif now > self._drain_deadline:
            for state in self.feeds.values():
                if state.alive and state.process.exitcode is None:
                    state.process.kill()

    def _reap_all(self) -> None:
        """Terminate anything still running (abnormal loop exit)."""
        for state in self.feeds.values():
            process = state.process
            if process is not None and process.exitcode is None:
                process.terminate()
                process.join(timeout=2.0)
                if process.exitcode is None:
                    process.kill()
                    process.join(timeout=2.0)
            if state.conn is not None:
                state.conn.close()
                state.conn = None
            state.process = None
