"""Start the lock server with every layer wrapped (the traced server).

Takes the ``repro serve`` options the benchmark uses plus ``--summary``.
Before calling :func:`repro.service.server.serve` it wraps the wire
codec, ``ServiceCore.handle``, the WAL append and fsync, ``EventBus``
publishing and the scheduler layers (see ``tracer.tap_layers``).  When
the server has drained it writes the spans next to the summary and the
per-layer summary to ``--summary``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from layers import summarize
from tracer import Tracer, tap_layers, write_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--wal", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--entities", type=int, required=True)
    parser.add_argument("--max-sessions", type=int, required=True)
    parser.add_argument("--deadline", type=int, required=True)
    parser.add_argument("--drain-timeout", type=float, required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()

    from repro.service import server
    from repro.service.core import ServiceConfig

    cores = []
    build_core = server.build_core

    def keep_core(*a, **k):
        core, sink = build_core(*a, **k)
        cores.append(core)
        return core, sink

    tracer = Tracer()
    server.build_core = keep_core
    try:
        with tap_layers(tracer, service=True):
            code = asyncio.run(server.serve(
                "127.0.0.1", args.port, args.entities, 0,
                ServiceConfig(
                    max_sessions=args.max_sessions,
                    deadline_steps=args.deadline,
                ),
                wal_path=args.wal, journal_path=args.journal,
                port_file=args.port_file,
                drain_timeout=args.drain_timeout,
            ))
    finally:
        server.build_core = build_core
    scheduler = cores[0].scheduler
    summary_path = Path(args.summary)
    write_spans(tracer, summary_path.with_suffix(".spans.jsonl"))
    summary = summarize(
        tracer, [scheduler.metrics],
        [scheduler.lock_manager.table.waits_for.counters_snapshot()],
    )
    summary_path.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
