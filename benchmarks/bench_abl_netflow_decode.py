"""Ablation: NetFlow v5 decode, column decoder vs reference decoder.

The daemon's UDP reader turns each export datagram into the
``(ids, vals)`` lists its feeder takes.  Two ways to get there:

* ``decode_items`` — one ``struct.iter_unpack`` over the record area,
  reading only ``src_ip`` and ``octets``; no per-record object.  This
  is what the daemon runs.
* ``decode_packet`` + ``items_from_flow_records`` — the reference
  path: every field of every record validated into a ``FlowRecord``,
  then projected to the same two columns.

Both decode the same caida16-profile flow records (packets of the
synthetic trace aggregated per 5-tuple, as an exporter would), packed
30 to a datagram.  The recorded metric that carries across hosts is
their within-run ratio; the gate holds it at ``RATIO_GATE``.
"""

from __future__ import annotations

from bench_common import emit_table
from conftest import repeats, scaled

from repro.bench.runner import measure_callable
from repro.service.ingest import items_from_flow_records
from repro.traffic.netflow import (
    FlowRecord,
    decode_items,
    decode_packet,
    encode_packets,
)
from repro.traffic.synthetic import PROFILES, generate_packets

#: The acceptance gate: records/s of decode_items over the reference.
RATIO_GATE = 10.0


def _datagrams(n_packets: int, seed: int = 5):
    """caida16 packets aggregated into flow records, v5-encoded."""
    flows = {}
    for p in generate_packets(PROFILES["caida16"], n_packets, seed=seed,
                              n_flows=max(256, n_packets // 2)):
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto)
        packets, octets = flows.get(key, (0, 0))
        flows[key] = (packets + 1, octets + p.size)
    records = [
        FlowRecord(src_ip=s, dst_ip=d, src_port=sp, dst_port=dp, proto=pr,
                   packets=packets, octets=octets)
        for (s, d, sp, dp, pr), (packets, octets) in flows.items()
    ]
    # Whole datagrams only: the daemon's traffic is full 30-record ones.
    records = records[:len(records) - len(records) % 30]
    return encode_packets(records), len(records)


def _runner(decode, datagrams, n_records):
    def run():
        for data in datagrams:
            decode(data)
        return n_records
    return run


def _reference(data):
    return items_from_flow_records(decode_packet(data))


def test_ablation_netflow_decode(benchmark):
    datagrams, n_records = _datagrams(scaled(300_000, minimum=60_000))
    # Same answers before timing anything.
    for data in datagrams:
        assert decode_items(data) == _reference(data)

    columns_run = _runner(decode_items, datagrams, n_records)
    columns = measure_callable("decode_items", lambda: columns_run,
                               repeats=repeats())
    reference = measure_callable(
        "decode_packet+items",
        lambda: _runner(_reference, datagrams, n_records),
        repeats=repeats(),
    )
    ratio = columns.mpps / reference.mpps

    emit_table(
        f"Ablation: NetFlow v5 decode (records={n_records}, "
        f"datagrams={len(datagrams)})",
        ["decoder", "MPPS", "vs reference"],
        [["decode_items", columns.mpps, ratio],
         ["decode_packet + items_from_flow_records", reference.mpps, 1.0]],
        config={"records": n_records, "datagrams": len(datagrams),
                "records_per_datagram": 30,
                "trace": "caida16-profile flows"},
        metrics=[
            {"name": "decode_items", "value": columns.mpps,
             "unit": "mpps"},
            {"name": "decode_packet+items", "value": reference.mpps,
             "unit": "mpps"},
            {"name": "columns_over_reference", "value": ratio,
             "unit": "ratio"},
        ],
    )

    assert ratio >= RATIO_GATE, (
        f"decode_items is only {ratio:.1f}x the reference decoder "
        f"(gate: >={RATIO_GATE:g}x)"
    )

    benchmark(columns_run)
