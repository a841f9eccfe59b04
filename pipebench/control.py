"""Control: does the calibration leave a change in the program alone?

    python3 pipebench/control.py --workload study-parallel --inject cpu --ms 200 --pairs 8

The reference probe shares the CPUs the workload runs on.  If the way
the program uses them moved the probe's readings, a change in the
program would be scaled by a reference it moved itself.  This control
injects a known cost into the analysis of one dataset, ``INJECT_INTO``,
in the process that runs it: a forked runtime worker at ``jobs=2``, the pinned
benchmark process otherwise.  ``cpu`` spins for ``--ms`` milliseconds,
``sleep`` sleeps for them, leaving the CPU idle.

Samples run in pairs on the same input, one plain and one injected, the
order alternating.  Over the pairs it prints:

- ``ref ratio``: the median reference reading of the injected samples
  over that of the plain ones.  1.0 means the injection did not move
  the reference.
- ``raw delta / injected``: the median wall time the injection added,
  over ``--ms``.  1.0 when the injected dataset is on the critical path.
- ``calibrated delta / expected``: the median calibrated time the
  injection added, over the median raw time it added scaled by the
  plain samples' median calibration.  1.0 means the calibration passed
  the injected cost through unchanged.

Run it from the root of a checkout, like ``run.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time
import uuid

from run import ROOT, NOMINAL_REF_S, Calibrator

#: The dataset whose analysis carries the injected cost: the largest
#: unit, so at ``jobs=2`` it is usually the study's critical path.
INJECT_INTO = "D4"


def _inject(kind: str, seconds: float) -> None:
    if kind == "sleep":
        time.sleep(seconds)
        return
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _injected(analyze, dataset: str, kind: str, seconds: float, switch: dict):
    def analyze_with_cost(name, *args, **kwargs):
        if switch["on"] and name == dataset:
            _inject(kind, seconds)
        return analyze(name, *args, **kwargs)

    return analyze_with_cost


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-cold", "study-parallel", "ingest-batch", "ingest-stream"))
    parser.add_argument("--inject", choices=("cpu", "sleep"), required=True)
    parser.add_argument("--ms", type=float, default=200.0)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    work = ROOT / ".pipebench" / "work" / f"control-{uuid.uuid4().hex[:6]}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    sys.path.insert(0, str(src))
    from workloads import make_workload

    workload = make_workload(args.workload, 0, work)
    cal = Calibrator(pin=workload.pin)
    switch = {"on": False}
    try:
        workload.setup()
        cal.wait_ready()
        if args.workload.startswith("study"):
            import repro.core.study as study

            study.analyze_dataset = _injected(
                study.analyze_dataset, INJECT_INTO, args.inject, args.ms / 1000, switch
            )
        else:
            workload._analyze = _injected(
                workload._analyze, INJECT_INTO, args.inject, args.ms / 1000, switch
            )
        plains, injecteds = [], []
        for pair in range(args.pairs):
            seed = workload.subseeds()[pair % len(workload.subseeds())]
            workload.next_subseed = lambda seed=seed: seed
            timed = {}
            for on in (pair % 2 == 1, pair % 2 == 0):
                switch["on"] = on
                _, timed[on] = cal.time(args.workload, workload.sample)
            plain, injected = timed[False], timed[True]
            plains.append(plain)
            injecteds.append(injected)
            print(f"pair {pair}: input {seed} ref {plain.ref_s * 1e3:.3f} -> "
                  f"{injected.ref_s * 1e3:.3f} ms, raw {plain.raw_s:.3f} -> "
                  f"{injected.raw_s:.3f} s", flush=True)
    finally:
        workload.close()
        cal.close()
        shutil.rmtree(work, ignore_errors=True)

    def median(attr: str, samples: list) -> float:
        return statistics.median(getattr(sample, attr) for sample in samples)

    def median_delta(attr: str) -> float:
        pairs = zip(injecteds, plains)
        return statistics.median(getattr(i, attr) - getattr(p, attr) for i, p in pairs)

    raw_delta = median_delta("raw_s")
    print(f"{args.workload}, {args.inject} {args.ms:g} ms in {INJECT_INTO}, "
          f"{args.pairs} pairs, nominal ref {NOMINAL_REF_S * 1e3:g} ms")
    print(f"  ref ratio                    {median('ref_s', injecteds) / median('ref_s', plains):.3f}")
    print(f"  raw delta / injected         {raw_delta / (args.ms / 1000):.3f}")
    print(f"  calibrated delta / expected  "
          f"{median_delta('calibrated_s') / (raw_delta * median('scale', plains)):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
