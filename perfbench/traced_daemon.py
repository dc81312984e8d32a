"""Run ``repro serve`` with span recorders on the daemon's layer boundaries.

Usage: ``python traced_daemon.py SPANS.npz [serve options...]``.  The
options are passed to ``repro.cli`` unchanged, so the traced daemon has
the same defaults as the untraced one.  The spans are written to
``SPANS.npz`` when the daemon has drained and stopped, with the cost
of recording one span, measured before any wrapper is installed.

``repro.service.ingest`` binds ``decode_packet`` and ``from_bytes`` by
name at import, so those are replaced on that module, not on the module
that defines them.
"""

from __future__ import annotations

import sys

from spans import SpanRecorder, span_cost_ns


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions and methods the per-layer metrics use."""
    import repro.service.daemon as daemon
    import repro.service.ingest as ingest
    import repro.service.snapshot as snapshot
    from repro.core.qmax import QMax
    from repro.parallel.engine import ShardedQMaxEngine
    from repro.service.rpc import OPS

    ingest.decode_packet = rec.wrap(ingest.decode_packet, "netflow.decode")
    ingest.from_bytes = rec.wrap(ingest.from_bytes, "wire.decode")
    ingest.items_from_flow_records = rec.wrap(
        ingest.items_from_flow_records, "ingest.items")
    ingest.items_from_report = rec.wrap(
        ingest.items_from_report, "ingest.items")
    feeder = ingest.BatchFeeder
    feeder.put = rec.wrap(feeder.put, "feeder.put")
    feeder.flush_now = rec.wrap(feeder.flush_now, "feeder.flush")
    QMax.add_many = rec.wrap(QMax.add_many, "qmax.add")
    ShardedQMaxEngine.add_many = rec.wrap(
        ShardedQMaxEngine.add_many, "parallel.add")
    daemon.MeasurementDaemon.handle_rpc = rec.wrap(
        daemon.MeasurementDaemon.handle_rpc, "rpc.other",
        name_of=lambda _self, op, *_: f"rpc.{op}" if op in OPS else "rpc.other",
    )
    daemon.merge_top_items = rec.wrap(daemon.merge_top_items, "merge.top")
    snapshot.encode_id = rec.wrap(snapshot.encode_id, "snapshot.encode")


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    cost = span_cost_ns()
    rec = SpanRecorder()
    install(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        rec.dump(out, cost)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
