"""Pipeline benchmark: one phase per workload, host-calibrated timings.

    python3 pipebench/run.py --workload study-cold --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  Prints every metric with its unit, writes the run
record to ``.pipebench/records/<run id>.json``, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import declared_units  # noqa: E402
from refloop import NOMINAL_REF_S, Calibrator  # noqa: E402


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without leaving the checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile_tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest whole percentile with at least ``beyond`` samples
    above it: ``(percentile, value, n)``; ``(0, 0, n)`` if too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        index = min(n - 1, int(n * pct / 100))
        if n - index - 1 >= beyond:
            return float(pct), ordered[index], n
    return 0.0, 0.0, n


def measure(workload, cal: Calibrator, seconds: float) -> list:
    """Time samples until ``seconds`` have passed (at least one)."""
    rows = []
    deadline = time.perf_counter() + seconds
    while True:
        outcome, sample = cal.time(workload.name, workload.sample)
        sample.items = outcome.items
        rows.append((outcome, sample))
        if time.perf_counter() >= deadline:
            return rows


def throughput(rows: list, keys: set[str] | None = None) -> float:
    """Items per calibrated second: the median over each input's
    samples, averaged over the run's inputs (or over ``keys``)."""
    by_key: dict[str, list[float]] = {}
    for outcome, sample in rows:
        if keys is None or outcome.key in keys:
            by_key.setdefault(outcome.key, []).append(sample.items / sample.calibrated_s)
    return statistics.fmean(statistics.median(values) for values in by_key.values())


def setup_time(cal: Calibrator, workload, started: float, ended: float) -> tuple[float, dict]:
    """Calibrated set-up time and its record.

    The workload's timed steps (``workload.setup_parts``) count by
    group: each group adds the median of its steps' calibrated times
    times the group's count (``workload.setup_counts``, else the number
    of steps).  A step whose work grows with an input's traffic counts
    at the nominal input size, ``NOMINAL_PACKETS``.  The rest of the
    set-up (imports, store seeding, server start) counts as timed.
    """
    from workloads import NOMINAL_PACKETS

    raw = ended - started
    ref, ref_n = cal.ref_between(started, ended)
    rest_raw = raw - sum(end - start for _, start, end, _ in workload.setup_parts)
    groups: dict[str, list[float]] = {}
    parts = []
    for label, start, end, packets in workload.setup_parts:
        part_ref, _ = cal.ref_between(start, end)
        calibrated = (end - start) * NOMINAL_REF_S / part_ref
        scaled = calibrated if packets is None else calibrated * NOMINAL_PACKETS / packets
        groups.setdefault(label, []).append(scaled)
        parts.append({
            "label": label, "raw_s": end - start, "ref_s": part_ref,
            "calibrated_s": calibrated, "packets": packets,
        })
    setup_s = rest_raw * NOMINAL_REF_S / ref + sum(
        workload.setup_counts.get(label, len(values)) * statistics.median(values)
        for label, values in groups.items()
    )
    return setup_s, {
        "raw_s": raw, "ref_s": ref, "ref_n": ref_n, "rest_raw_s": rest_raw,
        "parts": parts, "nominal_packets": NOMINAL_PACKETS, "calibrated_s": setup_s,
    }


def serve_detail(rows: list) -> dict:
    """Per-class calibrated latency: p50 for every class, and the miss
    tail at the highest percentile with ten samples beyond it."""
    by_kind: dict[str, list[float]] = {}
    for outcome, sample in rows:
        for kind, ms in outcome.latencies:
            key = "miss" if kind in ("tail", "bypass") else kind
            by_kind.setdefault(key, []).append(ms * sample.scale)
    detail = {f"{kind}_p50_ms": statistics.median(v) for kind, v in sorted(by_kind.items())}
    detail.update({f"{kind}_n": len(v) for kind, v in sorted(by_kind.items())})
    if "miss" in by_kind:
        pct, value, n = quantile_tail(by_kind["miss"])
        detail.update({"miss_tail_pct": pct, "miss_tail_ms": value, "miss_tail_n": n})
    return detail


def traced_facts(workload, rows: list, stats: dict, kept: list) -> dict:
    """Workload-side inputs to :func:`layers.per_layer_metrics`."""
    import layers

    facts: dict = {"pcap_bytes": statistics.fmean(o.pcap_bytes for o, _ in rows)}
    events = workload.facts.get("events")
    if events:
        facts.update(layers.runtime_facts(events, getattr(workload, "jobs", 1)))
    if "peak_kb" in workload.facts:
        facts["peak_traced_kb"] = max(workload.facts["peak_kb"])
    if workload.item == "req":
        facts["service"] = service_facts(workload, rows, kept)
        facts["store"] = {"store.tier.hot_hit_ratio": workload.facts.get("hot_hit_ratio", 0.0)}
    return facts


def service_facts(workload, rows: list, kept: list) -> dict:
    """Handler time per class from the server's spans, and transport
    time: client latency minus handler time, request by request."""
    import layers

    client = [(kind, ms) for outcome, _ in rows for kind, ms in outcome.latencies]
    spans = sorted(
        (span for span in kept if span["name"] == "service.handler"), key=lambda s: s["start"]
    )
    # The traced server also answered the warm-up and one /health
    # before the samples and one after; drop those.
    warm = workload.warm_requests + 1
    spans = spans[warm:warm + len(client)]
    server: dict[str, list[float]] = {"hit": [], "miss": [], "health": []}
    transport = []
    for (kind, ms), span in zip(client, spans):
        key = "miss" if kind in ("tail", "bypass") else kind
        if key in server:
            server[key].append(span["s"] * 1000)
        transport.append(ms - span["s"] * 1000)
    caches = workload.facts.get("x_cache", [])
    hits = sum(1 for _, cache in caches if cache == "hit")
    return {
        **{
            f"service.handler.{key}.server_ms": layers.median_or_zero(values)
            for key, values in server.items()
        },
        "service.transport_ms": layers.median_or_zero(transport),
        "service.response_cache.hit_ratio": hits / len(caches) if caches else 0.0,
    }


def per_sample(stats: dict, samples: int) -> dict:
    """Span aggregates divided by the number of traced samples."""
    return {
        name: {
            "calls": entry["calls"] / samples,
            "total_s": entry["total_s"] / samples,
            "self_s": entry["self_s"] / samples,
            "counts": {k: v / samples for k, v in entry["counts"].items()},
        }
        for name, entry in stats.items()
    }


def run(args: argparse.Namespace) -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}/repro")
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})")
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{args.workload}-s{args.seed}-{uuid.uuid4().hex[:6]}"
    base = ROOT / ".pipebench"
    work = base / "work" / run_id
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # Everything the program writes, temporary files included, stays
    # inside the checkout; the service process inherits both settings.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(src))

    workload = make_workload(args.workload, args.seed, work)
    cal = Calibrator(pin=workload.pin)
    try:
        # The probes' first readings come before set-up starts, so the
        # set-up is calibrated by readings taken while it ran.
        cal.wait_ready()
        # Set-up: imports of the program, fixtures, warm-up.
        started = time.perf_counter()
        workload.setup()
        setup_end = time.perf_counter()
        setup_s, setup_record = setup_time(cal, workload, started, setup_end)

        if args.trace:
            # The first half runs untraced, so the run can report its
            # own tracing overhead; both halves start at the first input.
            untraced = measure(workload, cal, args.seconds / 2)
            tracer = start_trace(workload, work)
            workload.restart_inputs()
            traced = measure(workload, cal, args.seconds / 2)
            stats, kept = stop_trace(workload, tracer)
            rows = untraced + traced
        else:
            rows = measure(workload, cal, args.seconds)
        firsts: dict = {}
        for outcome, _ in rows:
            firsts.setdefault(outcome.key, outcome)
        check = workload.verify(firsts)
        record = {
            "run_id": run_id,
            "git_commit": git_commit(ROOT),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nominal_ref_s": NOMINAL_REF_S,
            "inputs": dict(workload.inputs, **store_size(workload)),
            "probe_cpus": cal.cpus,
            "setup": setup_record,
        }
        attempted, failed, notes = check.attempted, check.failed, list(check.notes)
        for outcome, _ in rows:
            differs = outcome.digest != firsts[outcome.key].digest
            attempted += outcome.attempted
            failed += outcome.failed + differs
            notes.extend(outcome.notes)
            if differs:
                notes.append(f"input {outcome.key}: output differs from its first sample")
        record["samples"] = [s.record() for _, s in rows]
        record["host"] = cal.host_summary()
        record["check"] = {"attempted": attempted, "failed": failed, "notes": notes[:50]}
        if args.trace:
            # Overhead over the inputs both halves sampled, so it does
            # not mix one input's per-packet cost with another's.
            both = {o.key for o, _ in untraced} & {o.key for o, _ in traced}
            before, after = throughput(untraced, both), throughput(traced, both)
            record["untraced_throughput_per_s"] = before
            record["traced_throughput_per_s"] = after
            facts = traced_facts(workload, traced, stats, kept)
            host = cal.host_summary([s for _, s in traced])
            facts["host"] = {
                "host.ref_ms": host["ref_ms"],
                "host.ref_spread": host["ref_spread"],
                "host.steal_share": host["steal_share"],
            }
            facts["overhead"] = {"trace.overhead.throughput_per_s": after - before}
            import layers

            metrics = layers.per_layer_metrics(per_sample(stats, len(traced)), facts)
            units = declared_units("per_layer")
            record["spans"] = stats
        else:
            metrics = {"setup_s": setup_s, "throughput_per_s": throughput(rows)}
            units = declared_units("end_to_end")
            if workload.item == "req":
                record["serve"] = serve_detail(rows)
        record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        return record
    finally:
        workload.close()
        cal.close()
        shutil.rmtree(work, ignore_errors=True)


def start_trace(workload, work: Path):
    import layers
    from tracer import Tracer

    tracer = layers.install(Tracer(spill_dir=work / "spans").install())
    workload.start_tracing(tracer)
    return tracer


def stop_trace(workload, tracer) -> tuple[dict, list]:
    from tracer import merge_stats

    server_stats, server_kept = workload.stop_tracing()
    tracer.restore()
    stats, kept = tracer.collect()
    merge_stats(stats, server_stats)
    return stats, kept + server_kept


def store_size(workload) -> dict:
    """Objects and bytes in the workload's most recent store."""
    store = workload.facts.get("store_dir")
    if store is None:
        return {}
    files = [p for p in Path(store).rglob("*") if p.is_file() and "objects" in p.parts]
    return {"store_objects": len(files), "store_bytes": sum(p.stat().st_size for p in files)}


def print_report(record: dict) -> None:
    """Every named metric with its unit, then the run's context."""
    print(f"run {record['run_id']}  commit {record['git_commit'][:12]}  "
          f"nproc {record['nproc']}  python {record['python']}")
    print(f"inputs {json.dumps(record['inputs'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record.get("serve", {}).items():
        print(f"  serve.{name:<36} {value:>16.6g}")
    host = record["host"]
    print(f"host ref {host['ref_ms']:.2f} ms (spread {host['ref_spread']:.3f}), "
          f"steal {host['steal_share']:.4f}; {len(record['samples'])} samples")
    check = record["check"]
    print(f"checks: {check['failed']} failed of {check['attempted']} attempted")
    for note in check["notes"]:
        print(f"  ! {note}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    record = run(args)
    records = ROOT / ".pipebench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{record['run_id']}.json").write_text(json.dumps(record, indent=1))
    print_report(record)
    check = record["check"]
    print(json.dumps({
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
