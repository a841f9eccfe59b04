"""The benchmark's own tests.

    python3 -m pytest pipebench/tests -q

Each workload runs once at its minimal length, so the whole file takes
about two minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_serve_blocks_follow_the_service_load_mix():
    import random
    from collections import Counter

    import workloads
    from repro.service.loadgen import DEFAULT_MIX

    weights = {e.path: round(e.weight) for e in DEFAULT_MIX if e.method == "GET"}
    counts = {}
    for cls in (workloads.ServeHitWorkload, workloads.ServeMissWorkload):
        workload = cls(3, Path("."))
        workload.mix = list(weights.items())
        workload.hot = {path: b"" for path in weights if path not in ("/health", "/daemon")}
        workload._rng = random.Random(0)
        workload._tail = iter(range(1, 1 << 20))
        block = workload._block()
        counts[cls.name] = Counter(kind for kind, _ in block)
        assert len({path for kind, path in block if kind == "tail"}) == counts[cls.name]["tail"]
    hot_weight = sum(w for path, w in weights.items() if path not in ("/health", "/daemon"))
    assert counts["serve-hit"] == {"hit": workloads.HIT_ROUNDS * hot_weight}
    assert sum(counts["serve-miss"].values()) == sum(weights.values())
    assert counts["serve-miss"]["health"] == weights["/health"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert time.monotonic() - started < 60


def _repro_callables() -> dict:
    """id() of every function-like attribute of every loaded ``repro``
    module and of the classes defined in them."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    seen[(name, attr, member)] = id(raw)
    return seen


def test_tracer_restores_every_wrapped_function():
    layers.install(Tracer()).restore()  # import every traced module first
    before = _repro_callables()
    tracer = layers.install(Tracer())
    assert tracer.wrapped > 50
    assert _repro_callables() != before
    tracer.restore()
    assert tracer.wrapped == 0
    assert _repro_callables() == before


class _Base:
    def work(self, n):
        return sum(range(n))

    @staticmethod
    def helper(n):
        return n * 2


class _Child(_Base):
    pass


def test_tracer_self_time_and_inherited_and_static_members():
    tracer = Tracer()
    tracer.wrap(_Child, "work", "child.work")
    tracer.wrap(_Base, "helper", "base.helper")
    outer = _Child()

    def parent():
        time.sleep(0.02)
        outer.work(1000)
        return _Base.helper(4)

    holder = type("Holder", (), {"parent": staticmethod(parent)})
    tracer.wrap(holder, "parent", "parent")
    assert holder.parent() == 8
    stats = tracer.stats()
    assert stats["parent"]["calls"] == 1
    assert stats["child.work"]["calls"] == 1
    assert stats["base.helper"]["calls"] == 1
    assert stats["parent"]["self_s"] < stats["parent"]["total_s"]
    assert stats["parent"]["self_s"] >= 0.015
    tracer.restore()
    assert "work" not in vars(_Child)
    assert isinstance(vars(_Base)["helper"], staticmethod)
    assert vars(holder)["parent"].__func__ is parent


def test_reference_loop_imports_nothing_from_the_program():
    source = (BENCH / "refloop.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'pipebench'); import refloop; "
         "refloop.reference_s(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
