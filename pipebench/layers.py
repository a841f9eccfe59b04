"""Where the traced run wraps the program, and the per-layer metrics.

Every target is a public function or method, wrapped at the name its
callers look it up by: a function imported into another module is
wrapped in that module too.  :func:`install` wraps them all; the
server process calls it as well, so the service's handler and store
reads are traced where they run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import Tracer

__all__ = ["declared_units", "install", "per_layer_metrics"]

#: The benchmark's declaration: metric names and units live there only.
SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(section: str) -> dict[str, str]:
    """Name to unit of every metric ``BENCHMARK.json`` declares in
    ``section`` (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC_FILE.read_text())[section]}


def _nbytes(args, kwargs, result) -> dict:
    return {"bytes": len(args[0])}


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _packet_bytes(args, kwargs, result) -> dict:
    # args: (writer, pkt); a record is a 16-byte header plus the data
    # kept under the writer's snaplen.
    writer, pkt = args[0], args[1]
    return {"packets": 1, "bytes": 16 + min(len(pkt.data), writer.snaplen)}


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced target.  Imports the program, so call it only
    after ``src`` is importable."""
    import repro.analysis.engine as analysis_engine
    import repro.analysis.flow as analysis_flow
    import repro.core.study as study
    import repro.gen.packetize as packetize
    import repro.gen.tcpsim as tcpsim
    import repro.net.checksum as checksum
    import repro.net.icmp as icmp
    import repro.net.ipv4 as ipv4
    import repro.net.tcp as tcp
    import repro.net.udp as udp
    import repro.pcap.reader as reader
    import repro.pcap.writer as writer
    import repro.report.figures as figures
    import repro.report.tables as tables
    import repro.service.app as app
    import repro.store.cache as cache
    import repro.stream.checkpoint as checkpoint
    import repro.stream.engine as stream_engine
    import repro.stream.flowtable as stream_flowtable
    from repro.analysis.analyzers import DEFAULT_ANALYZERS
    from repro.store.tier import TieredStore

    wrap = tracer.wrap
    # gen
    wrap(study, "generate_dataset", "gen.generate_dataset")
    wrap(packetize, "realize_tcp", "gen.realize_tcp")
    wrap(tcpsim, "make_tcp_packet", "net.make_tcp_packet")
    for module in (checksum, icmp, ipv4, tcp, udp):
        wrap(module, "internet_checksum", "net.internet_checksum", count=_nbytes)
    wrap(writer.PcapWriter, "write", "pcap.write", count=_packet_bytes)
    # analysis
    tracer.wrap_iter(reader.PcapReader, "__iter__", "pcap.read")
    for module in (analysis_engine, stream_engine):
        wrap(module, "decode_packet", "net.decode_packet")
    wrap(analysis_flow.FlowTable, "process", "analysis.FlowTable.process")
    for cls in DEFAULT_ANALYZERS:
        for hook in ("on_connection", "on_udp"):
            if hook in vars(cls):
                wrap(cls, hook, "analysis.analyzers")
    wrap(analysis_engine.DatasetAnalyzer, "finish", "analysis.finish")
    # core: one span per dataset analysis, so forked workers spill
    # their aggregates at least once per unit.
    wrap(study, "analyze_dataset", "core.analyze_dataset")
    # stream
    wrap(stream_flowtable.StreamFlowTable, "process", "stream.StreamFlowTable.process")
    wrap(checkpoint.StreamCheckpointer, "flush_batch", "stream.checkpoint")
    wrap(checkpoint.StreamCheckpointer, "save", "stream.checkpoint")
    for encoder in ("encode_result_batch", "encode_state"):
        wrap(checkpoint, encoder, "stream.checkpoint.encode", count=_result_bytes)
    # store
    wrap(cache.ConnStore, "file_digest", "store.file_digest")
    wrap(cache.ConnStore, "save_analysis", "store.save_analysis")
    for encoder in ("encode_trace_shard", "encode_dataset_shard"):
        wrap(cache, encoder, "store.encode", count=_result_bytes)
    wrap(cache.ConnStore, "load_analysis", "store.load_analysis")
    for decoder in ("decode_trace_shard", "decode_dataset_shard"):
        wrap(cache, decoder, "store.decode")
    tracer.wrap_iter(cache.ConnStore, "manifests", "store.manifests")
    wrap(cache.ConnStore, "stats", "store.stats")
    wrap(TieredStore, "get_object", "store.tier.get_object")
    # report
    for number in range(1, 16):
        if hasattr(tables, f"table{number}"):
            wrap(tables, f"table{number}", "report.tables")
    for module in (study, app):
        wrap(module, "findings_table5", "report.tables")
    for number in range(1, 11):
        wrap(figures, f"figure{number}", "report.figures")
    wrap(study, "category_breakdown", "report.category_breakdown")
    # service
    wrap(app._RequestHandler, "do_GET", "service.handler", keep=True)
    wrap(app, "store_state_token", "service.store_state_token")
    wrap(app.ReproService, "analyses", "service.analyses")
    return tracer


def _entry(stats: dict, name: str) -> dict:
    return stats.get(name) or {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}


def per_layer_metrics(stats: dict, facts: dict) -> dict[str, float]:
    """Map span aggregates and workload facts to the declared per-layer
    metrics.

    ``facts`` carries what the workload measured itself: ``runtime``
    and ``core`` figures from the study telemetry, ``service`` figures
    from the client, ``host`` readings, ``pcap_bytes`` analyzed,
    ``peak_traced_kb`` and the tracing ``overhead``.
    """

    def self_s(*names: str) -> float:
        return sum(_entry(stats, name)["self_s"] for name in names)

    def calls(name: str) -> int:
        return _entry(stats, name)["calls"]

    def counter(name: str, key: str) -> int:
        return _entry(stats, name)["counts"].get(key, 0)

    encoded = counter("store.encode", "bytes")
    pcap_bytes = facts.get("pcap_bytes", 0)
    out = {
        "gen.generate_dataset.self_s": self_s("gen.generate_dataset"),
        "gen.realize_tcp.calls": calls("gen.realize_tcp"),
        "gen.realize_tcp.self_s": self_s("gen.realize_tcp"),
        "net.make_tcp_packet.calls": calls("net.make_tcp_packet"),
        "net.make_tcp_packet.self_s": self_s("net.make_tcp_packet"),
        "net.internet_checksum.calls": calls("net.internet_checksum"),
        "net.internet_checksum.self_s": self_s("net.internet_checksum"),
        "net.internet_checksum.bytes": counter("net.internet_checksum", "bytes"),
        "pcap.write.self_s": self_s("pcap.write"),
        "pcap.write.packets": counter("pcap.write", "packets"),
        "pcap.write.bytes": counter("pcap.write", "bytes"),
        "pcap.read.self_s": self_s("pcap.read"),
        "pcap.read.packets": counter("pcap.read", "items"),
        "net.decode_packet.calls": calls("net.decode_packet"),
        "net.decode_packet.self_s": self_s("net.decode_packet"),
        "analysis.FlowTable.process.calls": calls("analysis.FlowTable.process"),
        "analysis.FlowTable.process.self_s": self_s("analysis.FlowTable.process"),
        "analysis.analyzers.calls": calls("analysis.analyzers"),
        "analysis.analyzers.self_s": self_s("analysis.analyzers"),
        "analysis.finish.self_s": self_s("analysis.finish"),
        "stream.StreamFlowTable.process.calls": calls("stream.StreamFlowTable.process"),
        "stream.StreamFlowTable.process.self_s": self_s("stream.StreamFlowTable.process"),
        "stream.checkpoint.calls": calls("stream.checkpoint"),
        "stream.checkpoint.self_s": self_s("stream.checkpoint", "stream.checkpoint.encode"),
        "stream.checkpoint.bytes": counter("stream.checkpoint.encode", "bytes"),
        "stream.peak_traced_kb": facts.get("peak_traced_kb", 0.0),
        "store.file_digest.self_s": self_s("store.file_digest"),
        "store.save_analysis.calls": calls("store.save_analysis"),
        "store.save_analysis.self_s": self_s("store.save_analysis", "store.encode"),
        "store.save_analysis.bytes": encoded,
        "store.bytes_per_pcap_byte": encoded / pcap_bytes if pcap_bytes else 0.0,
        "store.load_analysis.calls": calls("store.load_analysis"),
        "store.load_analysis.self_s": self_s("store.load_analysis"),
        "store.decode.self_s": self_s("store.decode"),
        "store.manifests.calls": counter("store.manifests", "invocations"),
        "store.manifests.self_s": self_s("store.manifests"),
        "store.stats.calls": calls("store.stats"),
        "store.stats.self_s": self_s("store.stats"),
        "store.tier.get_object.calls": calls("store.tier.get_object"),
        "store.tier.get_object.self_s": self_s("store.tier.get_object"),
        "report.tables.self_s": self_s("report.tables"),
        "report.figures.self_s": self_s("report.figures"),
        "report.category_breakdown.self_s": self_s("report.category_breakdown"),
        "service.store_state_token.calls": calls("service.store_state_token"),
        "service.store_state_token.self_s": self_s("service.store_state_token"),
        "service.analyses.calls": calls("service.analyses"),
        "service.analyses.self_s": self_s("service.analyses"),
    }
    for group in ("runtime", "core", "service", "host", "store", "overhead"):
        out.update(facts.get(group, {}))
    declared = declared_units("per_layer")
    for name in set(declared) - set(out):
        out[name] = 0.0
    unknown = set(out) - set(declared)
    if unknown:
        raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return out


def runtime_facts(events: list[dict], jobs: int) -> dict:
    """``runtime.*`` and ``core.unit.*`` figures from one study's
    telemetry events."""
    start = next(e["ts"] for e in events if e["event"] == "study_start")
    finish = [e for e in events if e["event"] == "study_finish"][-1]
    started = {e["unit"]: e["ts"] for e in events if e["event"] == "unit_start"}
    units = [e for e in events if e["event"] == "unit_finish"]
    walls = [e["wall_s"] for e in units]
    study_wall = finish.get("wall_s") or (finish["ts"] - start)
    runtime = {
        "runtime.units": len(units),
        "runtime.retries": sum(1 for e in events if e["event"] == "unit_retry"),
        "runtime.queue_wait_s": sum(max(0.0, ts - start) for ts in started.values()),
        "runtime.critical_unit_s": max(walls) if walls else 0.0,
        "runtime.busy_share": sum(walls) / (jobs * study_wall) if study_wall else 0.0,
    }
    core = {
        f"core.unit.{e['unit'].split(':', 1)[1]}.wall_s": e["wall_s"] for e in units
    }
    return {"runtime": runtime, "core": core}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
