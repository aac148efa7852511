"""Run the rolegate HTTP service in a process of its own, for the benchmark.

    python3 perfbench/server.py --data-dir DIR --port N [--trace]

Builds the public ``Service`` over DIR (the live file is DIR/live.rbak) with
the frozen benchmark clock and the benchmark's two obligation policies, and
serves until its standard input closes.  It then shuts the service down and
exits 0.  With ``--trace`` it installs the span wrappers before the service
is built, and at exit writes a per-layer summary (JSON) to
``common.SERVER_TRACE`` and a sample of its spans to ``common.SERVER_SPANS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

import common


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", required=True, type=Path)
    ap.add_argument("--port", required=True, type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    common.use_checkout_source()
    from rolegate.config import ServiceConfig
    from rolegate.service import Service

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_engine(tracer)
        tracing.install_service(tracer)

    config = ServiceConfig(
        host="127.0.0.1",
        port=args.port,
        data_dir=args.data_dir,
        obligations=common.obligation_policies(),
    )
    service = Service(config, clock=common.frozen_clock)
    service.start()
    serving = threading.Thread(target=service.serve_forever, name="serve")
    serving.start()

    sys.stdin.read()  # the benchmark closes our stdin when it is done

    # The final flush would re-export the whole directory, which the benchmark
    # neither measures nor keeps (the data directory is deleted afterwards).
    service.engine.live_path = None
    service.shutdown()
    serving.join()

    if tracer is not None:
        spans = tracer.take()
        tracing.write_spans(spans, common.SERVER_SPANS)
        summary = {"spans": tracer.summary(spans), "counts": dict(tracer.counts)}
        common.SERVER_TRACE.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
