"""Deterministic benchmark inputs, their wire encodings, and answer checks.

Both streams are pure functions of ``(seed, index)``: a block of records
can be regenerated after the run to check the daemon's answers, so the
load generator never has to keep what it sent.

The encoders build whole datagrams and frames with NumPy record dtypes
instead of :func:`repro.traffic.netflow.encode_packets` and
:func:`repro.netwide.wire.to_bytes`, which cost microseconds per record
and would make the sender, not the daemon, the bottleneck.  Every run
first checks that its encoders produce the same bytes as those
reference functions (:func:`check_encoders`).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netwide import wire
from repro.parallel.merge import merge_top_items
from repro.traffic import netflow
from repro.traffic.synthetic import CAIDA16, zipf_weights

RECORDS_PER_DATAGRAM = netflow.MAX_RECORDS_PER_PACKET

V5_HEADER = np.dtype([
    ("version", ">u2"), ("count", ">u2"), ("sys_uptime", ">u4"),
    ("unix_secs", ">u4"), ("unix_nsecs", ">u4"), ("flow_sequence", ">u4"),
    ("engine_type", "u1"), ("engine_id", "u1"), ("sampling", ">u2"),
])
V5_RECORD = np.dtype([
    ("src_ip", ">u4"), ("dst_ip", ">u4"), ("nexthop", ">u4"),
    ("input", ">u2"), ("output", ">u2"), ("packets", ">u4"),
    ("octets", ">u4"), ("first", ">u4"), ("last", ">u4"),
    ("src_port", ">u2"), ("dst_port", ">u2"), ("pad1", "u1"),
    ("tcp_flags", "u1"), ("proto", "u1"), ("tos", "u1"),
    ("src_as", ">u2"), ("dst_as", ">u2"), ("src_mask", "u1"),
    ("dst_mask", "u1"), ("pad2", ">u2"),
])
V5_DATAGRAM = np.dtype([
    ("header", V5_HEADER), ("records", V5_RECORD, (RECORDS_PER_DATAGRAM,)),
])
DATAGRAM_BYTES = V5_DATAGRAM.itemsize

QMRP_RECORD = np.dtype([("flow", ">u4"), ("pid", ">u8"), ("hash", ">f8")])
FRAME_HEADER = struct.Struct("!I")


class NetflowStream:
    """NetFlow v5 records shaped by the ``caida16`` trace profile.

    Source addresses follow the profile's Zipf flow popularity; octet
    counts are heavy-tailed (Pareto packet counts times the profile's
    packet-size mixture) and identically distributed over time, so once
    the top-q has filled almost every record falls below Ψ.
    """

    DATAGRAMS_PER_BLOCK = 256
    RECORDS_PER_BLOCK = DATAGRAMS_PER_BLOCK * RECORDS_PER_DATAGRAM

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0x5EED])
        n = CAIDA16.n_flows
        self._cdf = np.cumsum(zipf_weights(n, CAIDA16.alpha))
        self._cdf[-1] = 1.0
        self._src = rng.integers(0x0A000000, 0x0AFFFFFF, n, dtype=np.uint32)
        self._dst = rng.integers(0xC0A80000, 0xC0A8FFFF, n, dtype=np.uint32)
        self._sport = rng.integers(1024, 65535, n, dtype=np.uint16)
        self._dport = rng.choice(
            np.array([80, 443, 53, 22, 8080, 3306], dtype=np.uint16), n)
        self._proto = rng.choice(np.array([6, 17], dtype=np.uint8), n,
                                 p=[0.8, 0.2])

    def block_records(self, block: int) -> Dict[str, np.ndarray]:
        """The records of block ``block`` as columns."""
        rng = np.random.default_rng([self.seed, 1, block])
        n = self.RECORDS_PER_BLOCK
        flow = np.searchsorted(self._cdf, rng.random(n), side="right")
        flow = np.minimum(flow, len(self._cdf) - 1)
        packets = np.minimum(1 + rng.pareto(CAIDA16.alpha, n), 1e6)
        packets = packets.astype(np.uint64)
        size = rng.choice(np.array(CAIDA16.size_points, dtype=np.uint64), n,
                          p=CAIDA16.size_probs)
        octets = np.minimum(packets * size, 2**32 - 1).astype(np.uint32)
        return {
            "src_ip": self._src[flow], "dst_ip": self._dst[flow],
            "src_port": self._sport[flow], "dst_port": self._dport[flow],
            "proto": self._proto[flow], "packets": packets.astype(np.uint32),
            "octets": octets,
        }

    def block_datagrams(self, block: int) -> List[memoryview]:
        """Block ``block`` encoded as NetFlow v5 export datagrams."""
        cols = self.block_records(block)
        grams = np.zeros(self.DATAGRAMS_PER_BLOCK, dtype=V5_DATAGRAM)
        grams["header"]["version"] = netflow.VERSION
        grams["header"]["count"] = RECORDS_PER_DATAGRAM
        recs = grams["records"].reshape(-1)
        for field, col in cols.items():
            recs[field] = col
        grams["records"] = recs.reshape(-1, RECORDS_PER_DATAGRAM)
        raw = memoryview(grams.tobytes())
        return [raw[i:i + DATAGRAM_BYTES]
                for i in range(0, len(raw), DATAGRAM_BYTES)]

    def records(self, n_records: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(src_ip, octets)`` of the first ``n_records`` records."""
        blocks = -(-n_records // self.RECORDS_PER_BLOCK)
        cols = [self.block_records(b) for b in range(blocks)]
        src = np.concatenate([c["src_ip"] for c in cols])[:n_records]
        octets = np.concatenate([c["octets"] for c in cols])[:n_records]
        return src.astype(np.int64), octets.astype(np.float64)


class ReportStream:
    """QMRP report frames whose sample values rise over the stream.

    Record ``i`` has id ``(flow, packet_id=i)`` and value ``i`` plus
    noise smaller than q, so nearly every record beats Ψ and is
    admitted.  Each frame holds one report of :attr:`ENTRIES` samples,
    sorted by value as the wire format requires.
    """

    ENTRIES = 1000
    FRAMES_PER_BLOCK = 4
    NOISE = 64.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        name = f"nmp-{seed}".encode()
        self._head = (
            struct.pack("!4sBH", b"QMRP", 1, len(name)) + name
            + struct.pack("!QI", self.ENTRIES, self.ENTRIES)
        )

    def block_entries(self, block: int) -> np.ndarray:
        """Entries of the frames of block ``block``, one frame per row."""
        rng = np.random.default_rng([self.seed, 2, block])
        shape = (self.FRAMES_PER_BLOCK, self.ENTRIES)
        first = block * self.FRAMES_PER_BLOCK * self.ENTRIES
        pid = first + np.arange(shape[0] * shape[1], dtype=np.uint64)
        value = pid.astype(np.float64) + rng.random(pid.size) * self.NOISE
        flow = rng.integers(0, 1 << 20, pid.size, dtype=np.uint32)
        entries = np.empty(shape, dtype=QMRP_RECORD)
        entries["flow"] = flow.reshape(shape)
        entries["pid"] = pid.reshape(shape)
        entries["hash"] = value.reshape(shape)
        order = np.argsort(entries["hash"], axis=1, kind="stable")
        return np.take_along_axis(entries, order, axis=1)

    def block_frames(self, block: int) -> List[bytes]:
        """Block ``block`` as ``!I``-length-prefixed wire frames."""
        body_len = len(self._head) + self.ENTRIES * QMRP_RECORD.itemsize
        prefix = FRAME_HEADER.pack(body_len) + self._head
        return [prefix + row.tobytes() for row in self.block_entries(block)]

    def records(self, n_frames: int, first: int = 0) -> np.ndarray:
        """Entries of the ``n_frames`` frames from frame ``first`` on,
        ordered by packet id (consecutive: ``first * ENTRIES`` up)."""
        fpb = self.FRAMES_PER_BLOCK
        blocks = range(first // fpb, -(-(first + n_frames) // fpb))
        rows = np.concatenate([self.block_entries(b) for b in blocks])
        skip = first - blocks.start * fpb
        flat = rows[skip:skip + n_frames].reshape(-1)
        return flat[np.argsort(flat["pid"], kind="stable")]


def check_encoders(seed: int) -> None:
    """Raise unless both encoders match the repository's reference ones."""
    ns = NetflowStream(seed)
    cols = ns.block_records(0)
    gram = bytes(ns.block_datagrams(0)[1])
    k = RECORDS_PER_DATAGRAM
    ref = netflow.encode_packets([
        netflow.FlowRecord(
            src_ip=int(cols["src_ip"][i]), dst_ip=int(cols["dst_ip"][i]),
            src_port=int(cols["src_port"][i]),
            dst_port=int(cols["dst_port"][i]), proto=int(cols["proto"][i]),
            packets=int(cols["packets"][i]), octets=int(cols["octets"][i]),
        )
        for i in range(k, 2 * k)
    ])
    if ref != [gram]:
        raise AssertionError("NetFlow v5 encoder differs from encode_packets")
    rs = ReportStream(seed)
    row = rs.block_entries(0)[0]
    report = wire.Report(
        f"nmp-{seed}", rs.ENTRIES,
        tuple(((int(e["flow"]), int(e["pid"])), float(e["hash"]))
              for e in row),
    )
    blob = wire.to_bytes(report)
    if rs.block_frames(0)[0] != FRAME_HEADER.pack(len(blob)) + blob:
        raise AssertionError("QMRP frame encoder differs from wire.to_bytes")


# ----------------------------------------------------------------------
# Answer checks.  Each returns a list of problems; empty means correct.
# ----------------------------------------------------------------------

def check_record_top(answer: Sequence, entries: np.ndarray, q: int) -> List[str]:
    """Report stream: the daemon's ``top`` must equal the reference top-q
    of the sent records as a value multiset (the contract of
    ``tests/service/test_daemon_e2e.py``), and every answered
    ``(id, value)`` must be a record that was sent.  ``entries`` are
    ordered by consecutive packet id, as :meth:`ReportStream.records`
    returns them."""
    problems = []
    base = int(entries["pid"][0]) if len(entries) else 0
    vals = entries["hash"].astype(np.float64)
    k = min(q, len(vals))
    top = np.argpartition(vals, len(vals) - k)[len(vals) - k:]
    ref = merge_top_items(
        [[((int(entries["flow"][i]), int(entries["pid"][i])), float(vals[i]))
          for i in top]], q)
    got = sorted((float(v) for _, v in answer), reverse=True)
    want = [v for _, v in ref]
    if got != want:
        problems.append(
            f"top value multiset differs from the reference: "
            f"{len(got)} vs {len(want)} values, first mismatch "
            f"{next(((g, w) for g, w in zip(got, want) if g != w), None)}")
    for item_id, val in answer:
        flow, pid = item_id
        row = pid - base
        if not (0 <= row < len(vals) and int(entries["flow"][row]) == flow
                and float(vals[row]) == float(val)):
            problems.append(f"answered record {item_id}={val} was never sent")
            break
    return problems


def check_keyed_top(answer: Sequence, ids: np.ndarray, vals: np.ndarray,
                    q: int) -> List[str]:
    """NetFlow stream: ``top`` collapses the top-q *records* by source
    address, keeping each address's largest value.  With ties at the
    q-th value several answers are valid; this accepts exactly those.
    """
    problems = []
    n = len(vals)
    if len(answer) > q:
        problems.append(f"answer has {len(answer)} > q={q} items")
    answered = [float(v) for _, v in answer]
    if answered != sorted(answered, reverse=True):
        problems.append("answer is not sorted by descending value")
    thresh = np.partition(vals, n - q)[n - q] if n > q else -np.inf
    above = vals > thresh
    required: Dict[int, float] = {}
    for i, v in zip(ids[above].tolist(), vals[above].tolist()):
        if v > required.get(i, -np.inf):
            required[i] = v
    tied = set(ids[vals == thresh].tolist())
    tie_slots = q - int(above.sum())
    got = {}
    for item_id, val in answer:
        got[item_id] = float(val)
    if len(got) != len(answer):
        problems.append("answer repeats an id")
    missing = [i for i in required if got.get(i) != required[i]]
    if missing:
        problems.append(
            f"{len(missing)} ids above the q-th value are missing or wrong, "
            f"e.g. {missing[0]}: want {required[missing[0]]}, "
            f"got {got.get(missing[0])}")
    extra = [(i, v) for i, v in got.items()
             if i not in required and not (v == thresh and i in tied)]
    if extra:
        problems.append(f"{len(extra)} answered ids are not in the top-q, "
                        f"e.g. {extra[0]}")
    at_thresh = sum(1 for i, v in got.items() if i not in required)
    if at_thresh > max(tie_slots, 0):
        problems.append(f"{at_thresh} tied ids for {tie_slots} slots")
    return problems


def check_sent_pairs(answer: Sequence, ids: np.ndarray,
                     vals: np.ndarray) -> List[str]:
    """Every answered ``(id, value)`` pair must be a record that was sent."""
    if not answer:
        return ["empty answer"]
    lowest = min(float(v) for _, v in answer)
    keep = vals >= lowest
    sent = set(zip(ids[keep].tolist(), vals[keep].tolist()))
    for item_id, val in answer:
        if (item_id, float(val)) not in sent:
            return [f"answered pair ({item_id}, {val}) was never sent"]
    return []
