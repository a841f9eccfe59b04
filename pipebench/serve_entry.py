"""Start ``repro-study serve`` as its own process, optionally traced.

    python3 pipebench/serve_entry.py [--trace-out PATH] serve --store-dir DIR --port 0

With ``--trace-out`` the layer wrappers are installed before the
service starts, and the handler threads' spans are written to PATH
when the service drains after SIGTERM.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _exit_with_parent() -> None:
    """SIGTERM this process (a graceful drain) once the benchmark that
    started it is gone, so a killed run leaves no server behind."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list[str]) -> int:
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        import layers
        from tracer import Tracer

        tracer = layers.install(Tracer().install())
    from repro.core.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)
            tracer.restore()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
