"""The benchmark's workloads: one pipeline phase each.

A workload builds its fixture in :meth:`setup`, then the runner times
:meth:`sample` repeatedly.  Each sample returns the items it processed
(packets or requests), per-request latencies where it has them, and
the outputs the correctness checks compare.  :meth:`verify` runs once
after the timed samples: the cross-configuration checks (``jobs=1``
against ``jobs=2``, batch against stream) that would otherwise need a
second workload's run.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Outcome", "make_workload"]

#: Study size for the study and ingest workloads: 16k to 95k packets
#: depending on the seed.  Small enough that a run holds about ten
#: studies, or several ingest passes of each input; see README.md.
STUDY_SCALE = 0.002
MAX_WINDOWS = 2
#: Input seeds derived from a run's seed: ``seed * SUBSEED_SPACE + j``.
#: A study or ingest run cycles through the studies of several such
#: seeds: traffic is heavy-tailed, so one seed's per-packet cost differs
#: from another's, and a run's figure should describe the program rather
#: than one draw of traffic.
SUBSEED_SPACE = 1000
#: Warm-up studies in a study workload's set-up; ``setup_s`` counts the
#: median one.
WARM_REPEATS = 3
#: A study of the median size at this scale (packets).  Set-up work that
#: grows with an input's traffic is reported scaled to this size, so
#: ``setup_s`` does not read the seed's traffic volume as a regression.
NOMINAL_PACKETS = 25_000
#: Seed of the warm-up study: warm-up is set-up, not input, so its size
#: does not depend on the run's seed.
WARM_SEED = 0
#: Every rendered artifact of a study: Tables 1-15, Figures 1-10.
TABLES = tuple(range(1, 16))
FIGURES = tuple(range(1, 11))


@dataclass
class Outcome:
    """What one sample did and what the checks compare."""

    items: int
    digest: str = ""
    #: Which of the run's inputs the sample used; outputs are compared,
    #: and throughput summarized, per key.
    key: str = ""
    #: Bytes of pcap the sample wrote or read.
    pcap_bytes: int = 0
    attempted: int = 1
    failed: int = 0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def study_digest(results) -> str:
    """One digest over every rendered table and figure of a study."""
    digest = hashlib.sha256()
    for number in TABLES:
        digest.update(results.render_table(number).encode())
    for number in FIGURES:
        digest.update(results.render_figure(number).encode())
    return digest.hexdigest()


def analysis_digest(analyses: dict) -> str:
    """Digest of analyses as the store would shard them, so two engines
    agree exactly when their shards would be byte-identical."""
    from repro.store.shard import DatasetShard, encode_dataset_shard, encode_trace_shard

    digest = hashlib.sha256()
    for name in sorted(analyses):
        analysis = analyses[name]
        by_trace: dict[int, list] = {}
        for conn in analysis.conns:
            by_trace.setdefault(conn.trace_index, []).append(conn)
        for index, stats in enumerate(analysis.traces):
            digest.update(
                encode_trace_shard(name, str(index), "0" * 64, stats, by_trace.get(index, []))
            )
        digest.update(
            encode_dataset_shard(
                DatasetShard(
                    name=name,
                    full_payload=analysis.full_payload,
                    internal_net=str(analysis.internal_net),
                    error_policy=analysis.error_policy,
                    scanner_sources=analysis.scanner_sources,
                    windows_endpoints=analysis.windows_endpoints,
                    removed_conns=analysis.removed_conns,
                    analyzer_errors=analysis.analyzer_errors,
                    analyzer_results=analysis.analyzer_results,
                )
            )
        )
    return digest.hexdigest()


class Workload:
    name = ""
    #: What :attr:`Outcome.items` counts.
    item = "pkts"
    #: Inputs a run cycles through.
    inputs_per_run = 6
    #: How many times each group of :attr:`setup_parts` counts in
    #: ``setup_s`` (by label; a group not named counts once per part).
    setup_counts: dict[str, int] = {}
    #: Whether the workload's processes take turns rather than run side
    #: by side, so they and the probe can share one pinned CPU (the
    #: service and its closed-loop client included).
    pin = True

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.facts: dict = {}
        self.inputs: dict = {}
        self._fresh = 0
        self._samples = 0
        #: Timed set-up steps, ``(label, start, end, packets)`` on the
        #: perf_counter clock; ``packets`` is None unless the step's work
        #: grows with an input's traffic.
        self.setup_parts: list[tuple[str, float, float, int | None]] = []

    def fresh_dir(self, prefix: str) -> Path:
        self._fresh += 1
        path = self.work / f"{prefix}-{self._fresh:04d}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Build the fixture; everything here counts as set-up time."""

    def sample(self) -> Outcome:
        raise NotImplementedError

    def subseeds(self) -> list[int]:
        """The run's input seeds, derived from its own."""
        return [self.seed * SUBSEED_SPACE + j for j in range(self.inputs_per_run)]

    def next_subseed(self) -> int:
        self._samples += 1
        return self.subseeds()[(self._samples - 1) % self.inputs_per_run]

    def restart_inputs(self) -> None:
        """Start the cycle of inputs again from the first one."""
        self._samples = 0

    def verify(self, firsts: dict[str, Outcome]) -> Outcome:
        """Checks that need one more, untimed, run of the program;
        ``firsts`` maps each input key to its first sample."""
        return Outcome(items=0, attempted=0)

    def start_tracing(self, tracer) -> None:
        """Hook for workloads whose program runs in another process."""

    def stop_tracing(self) -> tuple[dict, list]:
        return {}, []

    def close(self) -> None:
        pass


class StudyWorkload(Workload):
    """One cold study into a fresh flat store, then every table and
    figure rendered.  No fixture, so every sample studies a new input."""

    jobs = 1
    inputs_per_run = SUBSEED_SPACE
    setup_counts = {"warm-up": 1}

    def setup(self) -> None:
        from repro.core import run_study

        self._run_study = run_study
        # Warm-up: a tiny study pulls in every lazily imported module
        # (and, at jobs=2, exercises the fork path).
        for _ in range(WARM_REPEATS):
            started = time.perf_counter()
            warm = run_study(
                seed=WARM_SEED, scale=0.0005, datasets=("D0",), max_windows=1,
                jobs=self.jobs, store_dir=str(self.fresh_dir("warm")),
            )
            study_digest(warm)
            self.setup_parts.append(("warm-up", started, time.perf_counter(), None))

    def _study(self, seed: int, jobs: int):
        store = self.facts["store_dir"] = self.fresh_dir("store")
        results = self._run_study(
            seed=seed, scale=STUDY_SCALE, max_windows=MAX_WINDOWS,
            jobs=jobs, store_dir=str(store),
        )
        return results, study_digest(results)

    def sample(self) -> Outcome:
        seed = self.next_subseed()
        results, digest = self._study(seed, self.jobs)
        packets = sum(a.total_packets for a in results.analyses.values())
        events = results.telemetry.events
        self.facts["events"] = list(events)
        pcap_bytes = sum(int(e.get("bytes") or 0) for e in events if e["event"] == "unit_finish")
        self.inputs[f"seed{seed}"] = {"packets": packets, "pcap_bytes": pcap_bytes}
        return Outcome(items=packets, digest=digest, key=str(seed), pcap_bytes=pcap_bytes)

    def verify(self, firsts: dict[str, Outcome]) -> Outcome:
        """The run's first input studied again at ``jobs=1`` must give
        the same tables and figures: a repeat at ``jobs=1``, and
        ``jobs=1`` against ``jobs=2`` at ``jobs=2``."""
        key = str(self.subseeds()[0])
        _, digest = self._study(int(key), 1)
        ok = digest == firsts[key].digest
        return Outcome(
            items=0, attempted=1, failed=0 if ok else 1,
            notes=[] if ok else [f"input {key}: jobs=1 and jobs={self.jobs} digests differ"],
        )


class StudyColdWorkload(StudyWorkload):
    name = "study-cold"


class StudyParallelWorkload(StudyWorkload):
    name = "study-parallel"
    jobs = 2
    pin = False


class IngestWorkload(Workload):
    """Analyze the five datasets' pcaps from disk with one engine."""

    engine = "batch"
    other = "stream"
    _tracemalloc = False

    def setup(self) -> None:
        from repro.core import analyze_dataset
        from repro.gen.capture import generate_dataset
        from repro.gen.datasets import DATASET_ORDER
        from repro.gen.topology import Enterprise, Role
        from repro.stream.engine import StreamConfig

        self._analyze = analyze_dataset
        # The daemon's checkpoint cadence with the default eviction
        # knobs, which keep stream output byte-identical to batch.
        self._stream_config = StreamConfig(checkpoint_every=5000)
        self._traces: dict[int, dict] = {}
        self._scanners: dict[int, tuple] = {}
        for seed in self.subseeds():
            started = time.perf_counter()
            enterprise = Enterprise(seed=seed)
            self._scanners[seed] = tuple(h.ip for h in enterprise.servers(Role.SCANNER))
            pcaps = self.fresh_dir("pcaps")
            self._traces[seed] = {
                name: generate_dataset(
                    name, enterprise, pcaps / name, seed=seed,
                    scale=STUDY_SCALE, max_windows=MAX_WINDOWS,
                )
                for name in DATASET_ORDER
            }
            packets = sum(d.total_packets for d in self._traces[seed].values())
            self.setup_parts.append(("fixture", started, time.perf_counter(), packets))
            files = [Path(t.path) for d in self._traces[seed].values() for t in d.traces]
            self.inputs[f"seed{seed}"] = {
                "packets": packets,
                "pcap_bytes": sum(path.stat().st_size for path in files),
                "pcap_files": len(files),
            }
        # Warm-up pass: lazily built tables and imports.
        first = self.subseeds()[0]
        started = time.perf_counter()
        self._pass(first, self.engine)
        self.setup_parts.append(
            ("warm-up", started, time.perf_counter(), self.inputs[f"seed{first}"]["packets"])
        )

    def _pass(self, seed: int, engine: str) -> dict:
        from repro.store.cache import ConnStore

        store = None
        if engine == "stream":
            store = ConnStore(self.fresh_dir("store"))
            if engine == self.engine:
                self.facts["store_dir"] = store.root
        return {
            name: self._analyze(
                name, traces, self._scanners[seed], store=store, engine=engine,
                stream=self._stream_config if engine == "stream" else None,
            )
            for name, traces in self._traces[seed].items()
        }

    def sample(self) -> Outcome:
        seed = self.next_subseed()
        if self._tracemalloc:
            tracemalloc.reset_peak()
        analyses = self._pass(seed, self.engine)
        if self._tracemalloc:
            self.facts.setdefault("peak_kb", []).append(
                tracemalloc.get_traced_memory()[1] / 1024
            )
        packets = sum(a.total_packets for a in analyses.values())
        return Outcome(
            items=packets, digest=analysis_digest(analyses), key=str(seed),
            pcap_bytes=self.inputs[f"seed{seed}"]["pcap_bytes"],
        )

    def verify(self, firsts: dict[str, Outcome]) -> Outcome:
        out = Outcome(items=0, attempted=len(firsts))
        for key, first in sorted(firsts.items()):
            if analysis_digest(self._pass(int(key), self.other)) != first.digest:
                out.failed += 1
                out.notes.append(f"seed {key}: batch and stream analyses differ")
        return out


class IngestBatchWorkload(IngestWorkload):
    name = "ingest-batch"


class IngestStreamWorkload(IngestWorkload):
    name = "ingest-stream"
    engine = "stream"
    other = "batch"

    # The stream engine's point is bounded memory, so its traced run
    # also reports the peak traced allocation of each pass.
    def start_tracing(self, tracer) -> None:
        tracemalloc.start()
        self._tracemalloc = True

    def stop_tracing(self) -> tuple[dict, list]:
        self._tracemalloc = False
        tracemalloc.stop()
        return {}, []


#: Size of the value space the miss tail's distinct keys are drawn from
#: without replacement: far more keys than the service's 256-entry
#: response cache holds.
TAIL_KEYS = 1 << 14
#: Rounds of the hot set in one serve-hit block.
HIT_ROUNDS = 16
#: The study the served store holds.  Fixed, so every seed serves the
#: same store: a miss reloads every analysis, and at this scale the
#: heavy-tailed traffic makes a seed's store up to 2.5x another's.
STORE_SEED = 0


class ServeWorkload(Workload):
    """One keep-alive client, closed loop, against ``repro-study serve``
    on a two-root ``replicas=2`` tiered store.

    The traffic is the service's own load mix,
    ``repro.service.loadgen.DEFAULT_MIX``, with its weights as exact
    per-block counts.  Its endpoints fall in two groups by what the
    service answers: those the response cache answers (the hot set) and
    live ones it never caches.  The seed draws the order of requests and
    the miss tail's keys.
    """

    item = "req"
    #: Rounds of the mix in one block.
    rounds = 1

    def setup(self) -> None:
        from repro.core import run_study
        from repro.service.loadgen import DEFAULT_MIX
        from repro.store.tier import init_tier

        self._store = self.work / "store"
        init_tier(self._store, roots=(str(self.work / "root1"),), replicas=2)
        run_study(
            seed=STORE_SEED, scale=STUDY_SCALE, max_windows=MAX_WINDOWS,
            store_dir=str(self._store),
        )
        #: (path, weight) of every GET endpoint of the load mix.
        self.mix = [(e.path, round(e.weight)) for e in DEFAULT_MIX if e.method == "GET"]
        self._rng = random.Random(f"serve:{self.seed}")
        self._tail = iter(self._rng.sample(range(1, 1 << 20), TAIL_KEYS))
        self._server: subprocess.Popen | None = None
        self._start_server(trace_out=None)
        self.facts["store_dir"] = self.work

    # -- server process -------------------------------------------------------

    def _start_server(self, trace_out: Path | None) -> None:
        here = Path(__file__).resolve().parent
        log = self.fresh_dir("server") / "stderr.log"
        command = [sys.executable, str(here / "serve_entry.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["serve", "--store-dir", str(self._store), "--port", "0"]
        with open(log, "wb") as err:
            self._server = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=err, env=os.environ.copy()
            )
        deadline = time.monotonic() + 60
        port = None
        while port is None:
            text = log.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on http://" in line:
                    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if port is None:
                if self._server.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"service did not start: {text[-2000:]}")
                time.sleep(0.02)
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        # One request per endpoint warms the response cache and sorts the
        # mix: a first answer with ``X-Cache: miss`` went into the cache.
        self.hot: dict[str, bytes] = {}
        for path, _ in self.mix:
            status, body, cache = self._get(path)
            if status != 200:
                raise RuntimeError(f"warm-up {path} answered {status}")
            if cache == "miss":
                self.hot[path] = body
        self.warm_requests = len(self.mix)

    def _stop_server(self) -> None:
        self._conn.close()
        server, self._server = self._server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)

    def _get(self, path: str) -> tuple[int, bytes, str]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        body = response.read()
        return response.status, body, response.getheader("X-Cache") or ""

    # -- samples --------------------------------------------------------------

    def _request(self, path: str) -> tuple[str, str] | None:
        """``(class, path)`` of one request to a mix endpoint, or None
        where the workload leaves the endpoint out."""
        raise NotImplementedError

    def _block(self) -> list[tuple[str, str]]:
        plan = []
        for _ in range(self.rounds):
            for path, weight in self.mix:
                for _ in range(weight):
                    request = self._request(path)
                    if request is not None:
                        plan.append(request)
        self._rng.shuffle(plan)
        return plan

    def sample(self) -> Outcome:
        plan = self._block()
        out = Outcome(items=len(plan), attempted=len(plan))
        responses = []
        clock = time.perf_counter
        for kind, path in plan:
            started = clock()
            try:
                status, body, cache = self._get(path)
            except (OSError, http.client.HTTPException) as exc:
                out.failed += 1
                out.notes.append(f"{path}: {type(exc).__name__}")
                self._conn.close()
                continue
            out.latencies.append((kind, (clock() - started) * 1000))
            responses.append((kind, path, status, body, cache))
        # Checks run after the block's requests, outside their latencies.
        for kind, path, status, body, cache in responses:
            self.facts.setdefault("x_cache", []).append((kind, cache))
            if status != 200:
                out.failed += 1
                out.notes.append(f"{path}: HTTP {status}")
            elif kind == "hit" and body != self.hot[path]:
                out.failed += 1
                out.notes.append(f"{path}: hit body changed")
            elif kind == "bypass":
                base = path.split("?", 1)[0]
                if body != self.hot[base]:
                    out.failed += 1
                    out.notes.append(f"{base}: hit body differs from bypass body")
        return out

    # -- tracing the server ---------------------------------------------------

    def start_tracing(self, tracer) -> None:
        self._stop_server()
        self._trace_out = self.fresh_dir("trace") / "server.json"
        self._start_server(trace_out=self._trace_out)
        self.facts["x_cache"] = []
        self._health_before = self._hot_counts()

    def _hot_counts(self) -> tuple[int, int]:
        import json

        status, body, _ = self._get("/health")
        hot = json.loads(body)["store"]["tier"]["hot"]
        return hot["hits"], hot["misses"]

    def stop_tracing(self) -> tuple[dict, list]:
        import json

        hits0, misses0 = self._health_before
        hits1, misses1 = self._hot_counts()
        looked = (hits1 - hits0) + (misses1 - misses0)
        self.facts["hot_hit_ratio"] = (hits1 - hits0) / looked if looked else 0.0
        self._stop_server()
        payload = json.loads(self._trace_out.read_text())
        self._start_server(trace_out=None)
        return payload["stats"], payload["kept"]

    def close(self) -> None:
        if self._server is not None:
            self._stop_server()

    def verify(self, firsts: dict[str, Outcome]) -> Outcome:
        """Every hot path's cached body equals a fresh build of it."""
        out = Outcome(items=0, attempted=len(self.hot))
        for path, cached in self.hot.items():
            joiner = "&" if "?" in path else "?"
            status, body, cache = self._get(f"{path}{joiner}cache_bypass=1")
            if status != 200 or cache != "bypass" or body != cached:
                out.failed += 1
                out.notes.append(f"{path}: bypass body differs from the cached body")
        return out


class ServeHitWorkload(ServeWorkload):
    """The hot set, each endpoint ``HIT_ROUNDS`` times its weight per
    block, every request answered from the response cache."""

    name = "serve-hit"
    rounds = HIT_ROUNDS

    def _request(self, path: str) -> tuple[str, str] | None:
        return ("hit", path) if path in self.hot else None


class ServeMissWorkload(ServeWorkload):
    """The whole mix, each endpoint its weight's times per block, none
    answered from the cache: a cached endpoint with query parameters
    gets a distinct key from the tail (``min_bytes=<key>``), one without
    is refreshed with ``cache_bypass=1``, and live endpoints go as
    they are."""

    name = "serve-miss"

    def _request(self, path: str) -> tuple[str, str]:
        if path not in self.hot:
            return path.strip("/").split("/")[0], path
        if "?" in path:
            return "tail", f"{path}&min_bytes={next(self._tail)}"
        return "bypass", f"{path}?cache_bypass=1"


WORKLOADS = {
    cls.name: cls
    for cls in (
        StudyColdWorkload,
        StudyParallelWorkload,
        IngestBatchWorkload,
        IngestStreamWorkload,
        ServeHitWorkload,
        ServeMissWorkload,
    )
}


def make_workload(name: str, seed: int, work: Path) -> Workload:
    return WORKLOADS[name](seed, work)
