"""Outside-in tracer: wraps functions where their callers look them up.

The benchmark never edits the program.  To see inside it, the traced
run replaces a module or class attribute with a timing wrapper and puts
the original back when it ends (:meth:`Tracer.restore`).  Each wrapped
call is one span.  A span's self time is its duration minus the time
its child spans (wrapped calls made while it ran, on the same thread)
cover.

Spans are aggregated in memory per name -- calls, total and self
seconds, and named counters -- and written out when the benchmark ends
(:meth:`Tracer.dump`).  Spans of names registered with ``keep=True``
are also kept one by one, for per-request breakdowns.

Forked children (the runtime's worker processes) inherit the wrappers.
A child starts from empty aggregates and writes them to
``<spill_dir>/<pid>.json`` each time its outermost span closes, because
worker processes leave through ``os._exit`` and never run exit hooks.
:meth:`Tracer.collect` folds those files into the parent's view.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

__all__ = ["Tracer", "merge_stats"]

#: The tracer forked children report to; set while one is installed.
_ACTIVE: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _new_entry() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}


def merge_stats(into: dict, other: dict) -> dict:
    """Fold one aggregate table (name -> entry) into another."""
    for name, entry in other.items():
        target = into.setdefault(name, _new_entry())
        target["calls"] += entry["calls"]
        target["total_s"] += entry["total_s"]
        target["self_s"] += entry["self_s"]
        for key, value in entry["counts"].items():
            target["counts"][key] = target["counts"].get(key, 0) + value
    return into


class Tracer:
    """Wraps attributes, aggregates spans, restores on :meth:`restore`."""

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._patches: list[tuple[object, str, object, bool]] = []
        self._tables: list[dict] = []
        self._local = threading.local()
        self.kept: list[dict] = []
        self._child = False

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            local.stack = stack = []
            local.table = {}
            self._tables.append(local.table)
        return stack, local.table

    def _forked(self) -> None:
        self._tables = []
        self._local = threading.local()
        self.kept = []
        self._child = True

    def _close_span(self, name: str, started: float, stack: list, table: dict) -> float:
        duration = time.perf_counter() - started
        child = stack.pop()
        if stack:
            stack[-1] += duration
        entry = table.get(name)
        if entry is None:
            entry = table[name] = _new_entry()
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child
        if not stack and self._child:
            self._spill()
        return duration

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Callable | None = None,
        keep: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(args, kwargs, result)`` may return ``{counter: n}`` to
        add to the span's counters.  ``keep`` also records each span's
        start and duration in :attr:`kept`.
        """
        own = attr in vars(owner) if isinstance(owner, type) else True
        raw = vars(owner)[attr] if isinstance(owner, type) and own else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = tracer._state()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close_span(name, started, stack, table)
            if count is not None:
                counters = table[name]["counts"]
                for key, value in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            if keep:
                tracer.kept.append({"name": name, "start": started, "s": duration})
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw, own))

    def wrap_iter(self, owner: type, attr: str, name: str) -> None:
        """Time each step of the iterator ``owner.attr`` returns, as
        span ``name``; counters ``invocations`` and ``items`` count the
        iterators made and the items they produced."""
        raw = vars(owner)[attr]
        tracer = self

        def bump(table: dict, key: str) -> None:
            counters = table.setdefault(name, _new_entry())["counts"]
            counters[key] = counters.get(key, 0) + 1

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            bump(tracer._state()[1], "invocations")
            iterator = iter(raw(*args, **kwargs))
            while True:
                stack, table = tracer._state()
                stack.append(0.0)
                started = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._close_span(name, started, stack, table)
                    return
                except BaseException:
                    tracer._close_span(name, started, stack, table)
                    raise
                tracer._close_span(name, started, stack, table)
                bump(table, "items")
                yield item

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw, True))

    def install(self) -> "Tracer":
        """Make this the tracer forked children report to."""
        global _ACTIVE
        _ACTIVE = self
        return self

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        global _ACTIVE
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    @property
    def wrapped(self) -> int:
        return len(self._patches)

    # -- output -------------------------------------------------------------

    def stats(self) -> dict:
        """This process's aggregates, merged over threads."""
        merged: dict = {}
        for table in list(self._tables):
            merge_stats(merged, table)
        return merged

    def _spill(self) -> None:
        if self.spill_dir is None:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        target = self.spill_dir / f"{os.getpid()}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats(), "kept": self.kept}))
        os.replace(tmp, target)

    def dump(self, path: str | Path) -> None:
        """Write this process's aggregates and kept spans to ``path``."""
        Path(path).write_text(json.dumps({"stats": self.stats(), "kept": self.kept}))

    def collect(self) -> tuple[dict, list]:
        """This process's aggregates merged with every spilled file."""
        merged = self.stats()
        kept = list(self.kept)
        if self.spill_dir is not None and self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("*.json")):
                payload = json.loads(path.read_text())
                merge_stats(merged, payload["stats"])
                kept.extend(payload["kept"])
        return merged, kept
