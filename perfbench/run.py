#!/usr/bin/env python3
"""Socket-level benchmark of the measurement daemon and fleet coordinator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload netflow-udp --seed 1 \\
        --seconds 35 --trace 0

The script starts a fleet coordinator (``repro fleet serve``) and a
daemon (``repro serve``, every setting at its CLI default) registered
with it, then acts as the load generator: one thread sends the workload
over loopback, a second runs a closed-loop RPC client.  It measures the
daemon from outside (its ``stats``/``metrics`` RPC ops and ``/proc``),
checks every answer against a reference computed from what was sent,
and prints the metrics as one JSON object on the last line of stdout.

``--trace 1`` runs the workload with the daemon started through
``traced_daemon.py`` and prints the per-layer metrics instead.
The exit code is non-zero when a correctness or accounting check fails
or the run is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

# The load generator may use at most two threads; keep BLAS pools off.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    print(f"error: the repro package is not at {SRC}; run from a full "
          f"checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import procfs  # noqa: E402
import streams  # noqa: E402
from procs import (  # noqa: E402
    HOST, ROOT, BenchError, Proc, RpcConn, split_cpus, start_coordinator,
    start_daemon, stop_daemon,
)
from spans import Spans  # noqa: E402

from repro.service.snapshot import decode_id  # noqa: E402

#: Daemon launches per run; ``setup_s`` is their median.
SETUPS = 3
#: Mean think time of the closed-loop client between two daemon ``top``
#: queries, drawn uniformly from [0, 2 × mean] so that queries arrive at
#: every point of the daemon's batch cycle: on ``netflow-udp`` long
#: enough that the queries do not dominate the paced phase's CPU, on
#: ``report-tcp`` short beside ~150 ms answers.
THINK_S = {"udp": 0.020, "tcp": 0.010}
#: Think time between two coordinator ``top`` queries.
FLEET_THINK_S = 0.010
#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Interval between daemon samples (``stats`` and ``/proc``) for the
#: ingest rate and CPU per record; shorter while no queries run, so
#: that the moment the receive buffer overflows is seen.
SAMPLE_S = 1.0
SAMPLE_QUIET_S = 0.25
#: Share of ``--seconds`` given to the quiet phase of coordinator
#: ``top`` queries after ingest; long, so that it does not sample one
#: fast or slow second of a shared host.
FLEET_SHARE = 0.2
#: Iterations of the host-speed reference loop (a few ms of CPU).
HOST_REF_LOOP = 100_000
#: A run whose open-loop sender ran later than this (p99) is invalid.
MAX_LATE_MS = 50.0
#: How long the daemon may take to account for every record sent.
DRAIN_TIMEOUT = 60.0

NETFLOW_PACED_RPS = 15_000     # records/s, well below today's capacity
NETFLOW_OVERLOAD_RPS = 300_000  # records/s, well above it
NETFLOW_PACED_SHARE = 0.35      # of the ingest time; the rest is overload
NETFLOW_OVERLOAD_POOL_BLOCKS = 40

#: Report-stream blocks per round of the sharded pass (4000 records
#: each); every round ends in a checked ``top`` and a ``reset``.
SHARDED_ROUND_BLOCKS = 50
#: The traced run of ``report-tcp`` adds a pass of the same stream
#: through a daemon with this many shard processes (``repro.parallel``),
#: this share of ``--seconds`` long; the ``parallel.*`` metrics are
#: taken from it.
SHARDS = 2
SHARDED_SHARE = 0.5

#: Workload → transport.  Every daemon setting is its CLI default.
WORKLOADS = {
    "netflow-udp": "udp",
    "report-tcp": "tcp",
}

END_TO_END = {
    "setup_s": "s", "ingest_rps": "1/s", "delivered_frac": "frac",
    "cpu_us_per_record": "us", "peak_rss_mb": "MB", "top_p50_ms": "ms",
    "top_p95_ms": "ms", "fleet_top_p50_ms": "ms",
}

PER_LAYER = {
    "netflow.decode_us_per_record": "us",
    "ingest.items_us_per_record": "us",
    "ingest.udp_other_us_per_record": "us",
    "udp.kernel_drops": "count",
    "wire.decode_us_per_record": "us",
    "feeder.put_us_per_record": "us",
    "feeder.batch_records_mean": "count",
    "feeder.stalls": "count",
    "qmax.add_us_per_record": "us",
    "qmax.admit_frac": "frac",
    "qmax.iterations": "count",
    "qmax.evictions": "count",
    "parallel.add_us_per_record": "us",
    "parallel.ring_stalls": "count",
    "parallel.prefilter_reject_frac": "frac",
    "parallel.worker_cpu_frac": "frac",
    "rpc.top_server_ms": "ms",
    "rpc.top_flush_ms": "ms",
    "rpc.top_wait_ms": "ms",
    "merge.top_ms": "ms",
    "snapshot.encode_ms": "ms",
    "fleet.pull_ms": "ms",
    "fleet.merge_ms": "ms",
    "daemon.busy_frac": "frac",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "frac",
}


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail_percentile(values: List[float], pct: float) -> float:
    """The ``pct`` percentile of time-ordered samples, as the median over
    consecutive windows that each hold :data:`TAIL_SAMPLES` samples
    beyond it (one window when there are too few samples).

    A stall of the host that spans a few windows moves only those."""
    size = int(np.ceil(TAIL_SAMPLES / (1 - pct / 100)))
    n_windows = max(1, len(values) // size)
    windows = np.array_split(np.asarray(values, dtype=float), n_windows)
    return float(np.median([np.percentile(w, pct) for w in windows]))


def slope(samples: List[tuple], num: int, den: int) -> float:
    """Δsample[num] / Δsample[den] from the first sample to the last.

    Rates and CPU per record are totals over the whole measured phase,
    not medians of short windows: on a shared host the daemon runs in
    fast and slow stretches several seconds long, and a median of
    windows reports whichever stretch was longer."""
    if len(samples) < 2 or samples[-1][den] <= samples[0][den]:
        raise BenchError("too few daemon samples to measure a rate")
    return ((samples[-1][num] - samples[0][num])
            / (samples[-1][den] - samples[0][den]))


def host_ref_ms(cpus) -> float:
    """Best of five timings of a fixed pure-Python loop on ``cpus``.

    A host-speed reference taken while the daemon is not running: on a
    shared virtual machine the same code runs faster or slower from one
    second to the next, and every time metric moves with it."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            acc = 0
            for i in range(HOST_REF_LOOP):
                acc += i * i % 7
            best = min(best, time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, saved)
    return best * 1e3


class DaemonView:
    """What the benchmark reads about one running daemon from outside."""

    def __init__(self, proc: Proc, conn: RpcConn, transport: str) -> None:
        self.proc = proc
        self.conn = conn
        self.transport = transport

    def cpu(self) -> Dict[int, float]:
        return procfs.cpu_seconds(procfs.process_tree(self.proc.pid))

    def udp(self) -> procfs.UdpSocket:
        return procfs.udp_socket(self.proc.udp_port)

    def snapshot(self) -> Dict[str, Any]:
        """CPU and daemon counters at one instant."""
        cpu = self.cpu()
        stats = self.conn.call("stats")
        return {"t": time.perf_counter(), "cpu": cpu, "stats": stats}


def cpu_delta(a: Dict[int, float], b: Dict[int, float], root: int):
    """(tree CPU, root-process CPU) spent between two ``cpu()`` reads."""
    tree = sum(b.values()) - sum(a.get(p, 0.0) for p in b)
    return tree, b.get(root, 0.0) - a.get(root, 0.0)


class Probe(threading.Thread):
    """The closed-loop RPC client: ``top`` queries with a fixed think
    time while :attr:`active` is set, and/or a ``stats`` sample every
    ``sample_s`` seconds, on the shared RPC connection."""

    def __init__(self, view: DaemonView, tops: bool,
                 sample_s: Optional[float], seed: int = 0) -> None:
        super().__init__(name="perfbench-probe", daemon=True)
        self.view = view
        self.tops = tops
        self.sample_s = sample_s
        self.think_s = THINK_S[view.transport]
        self._rng = random.Random(seed)
        self.top_ms: List[float] = []
        #: (t, records_out, kernel drops, daemon-tree CPU seconds)
        self.samples: List[tuple] = []
        self.error: Optional[BaseException] = None
        self.active = threading.Event()
        self.active.set()
        self._halt = threading.Event()

    def _sample(self) -> None:
        stats = self.view.conn.call("stats")
        drops = self.view.udp().drops if self.view.transport == "udp" else 0
        cpu = sum(self.view.cpu().values())
        # Timed by the daemon's own clock when it counted.
        self.samples.append(
            (stats["uptime_s"], stats["feeder"]["records_out"], drops, cpu))

    def run(self) -> None:
        next_sample = 0.0 if self.sample_s else float("inf")
        conn = self.view.conn
        try:
            while not self._halt.is_set():
                now = time.perf_counter()
                if now >= next_sample:
                    self._sample()
                    next_sample = now + self.sample_s
                if self.tops and self.active.is_set():
                    # Timed until the whole answer has arrived; decoding
                    # it is the client's work, done after the clock stops.
                    with conn.lock:
                        t0 = time.perf_counter()
                        line = conn.request("top")
                        self.top_ms.append((time.perf_counter() - t0) * 1e3)
                    conn.decode("top", line)
                    self._halt.wait(self._rng.uniform(0, 2 * self.think_s))
                else:
                    wait = next_sample - time.perf_counter()
                    self._halt.wait(min(max(0.0, wait), self.think_s))
            if self.sample_s:
                self._sample()  # closes the last window at the phase's end
        except BaseException as exc:  # reported by finish()
            self.error = exc

    def finish(self) -> "Probe":
        self._halt.set()
        self.join(DRAIN_TIMEOUT)
        if self.is_alive():
            raise BenchError("query client did not stop")
        if self.error is not None:
            raise BenchError(f"query client failed: {self.error!r}")
        return self


def send_scheduled(sock: socket.socket, addr, datagram: Callable[[int], Any],
                   count: int, rate: float) -> List[float]:
    """Open-loop sender of ``rate`` evenly spaced datagrams/s: datagram
    ``i`` is due at ``i / rate`` seconds.  Returns how late each one was
    sent, in ms."""
    late = []
    period = 1.0 / rate
    t0 = time.perf_counter()
    i = 0
    while i < count:
        now = time.perf_counter()
        due = min(count, int((now - t0) / period) + 1)
        while i < due:
            gram = datagram(i)
            late.append((time.perf_counter() - t0 - i * period) * 1e3)
            sock.sendto(gram, addr)
            i += 1
        wait = t0 + i * period - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
    return late


def wait_until(what: str, done: Callable[[], bool],
               poll_s: float = 0.01) -> None:
    """Poll ``done`` until it holds; the run fails if it never does."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT
    while not done():
        if time.perf_counter() > deadline:
            raise BenchError(f"accounting check failed: {what} did not "
                             f"hold within {DRAIN_TIMEOUT:g}s")
        time.sleep(poll_s)


def decoded(answer) -> List[tuple]:
    return [(decode_id(i), float(v)) for i, v in answer]


class Workload:
    """One pass of a workload against one running daemon."""

    def __init__(self, name: str, seed: int, seconds: float,
                 shards: int = 1) -> None:
        self.transport = WORKLOADS[name]
        self.shards = shards
        self.seed = seed
        # Ingest first, then the quiet phase of coordinator queries.
        self.ingest_s = seconds * (1 - FLEET_SHARE)
        self.fleet_s = seconds * FLEET_SHARE
        self.problems: List[str] = []
        self.out: Dict[str, Any] = {}

    def check(self, problems: List[str], where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    # -- netflow-udp ----------------------------------------------------

    def run_udp(self, view: DaemonView, q: int) -> None:
        stream = streams.NetflowStream(self.seed)
        per_block = stream.DATAGRAMS_PER_BLOCK
        paced_s = self.ingest_s * NETFLOW_PACED_SHARE
        over_s = self.ingest_s - paced_s
        rec = streams.RECORDS_PER_DATAGRAM
        paced_n = int(paced_s * NETFLOW_PACED_RPS / rec)
        over_n = int(over_s * NETFLOW_OVERLOAD_RPS / rec)
        paced_blocks = -(-paced_n // per_block)
        grams = [g for b in range(paced_blocks)
                 for g in stream.block_datagrams(b)]
        pool_blocks = range(paced_blocks,
                            paced_blocks + NETFLOW_OVERLOAD_POOL_BLOCKS)
        pool = [g for b in pool_blocks for g in stream.block_datagrams(b)]
        addr = (HOST, view.proc.udp_port)
        drops0 = view.udp().drops
        received0 = view.conn.call("stats")["udp"]["records"]

        def accounted(sent_dgrams: int) -> Callable[[], bool]:
            def done() -> bool:
                stats = view.conn.call("stats")
                sock = view.udp()
                self.out["drops"] = sock.drops - drops0
                return (sock.rx_queue == 0 and stats["feeder"]["pending"] == 0
                        and stats["udp"]["records"] - received0
                        + rec * (sock.drops - drops0)
                        + stats["udp"]["malformed"] == sent_dgrams * rec)
            return done

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            # Paced phase: below capacity, queries running; loss, CPU
            # per record, query latency and an exact answer.
            probe = Probe(view, tops=True, sample_s=SAMPLE_S, seed=self.seed)
            probe.start()
            late_paced = send_scheduled(
                sock, addr, grams.__getitem__, paced_n,
                NETFLOW_PACED_RPS / rec)
            probe.finish()
            wait_until("sent = udp.records + 30 x drops + malformed "
                       "(paced phase)", accounted(paced_n))
            after = view.snapshot()
            sent = paced_n * rec
            got = after["stats"]["udp"]["records"] - received0
            ids, vals = stream.records(sent)
            answer = decoded(view.conn.call("top"))
            if got == sent:
                self.check(streams.check_keyed_top(answer, ids, vals, q),
                           "paced top")
            else:
                self.check(streams.check_sent_pairs(answer, ids, vals),
                           "paced top")
            log(f"paced phase: daemon busy "
                f"{slope(probe.samples, 3, 0):.2f} of a CPU")
            self.out.update(
                attempted=sent, failed=sent - got, top_ms=probe.top_ms,
                cpu_us_per_record=slope(probe.samples, 3, 1) * 1e6,
            )

            # Overload phase: offered well above capacity, no queries;
            # the daemon-side slope once the receive buffer is full.
            probe = Probe(view, tops=False, sample_s=SAMPLE_QUIET_S)
            start = view.snapshot()
            probe.start()
            late_over = send_scheduled(
                sock, addr, lambda i: pool[i % len(pool)], over_n,
                NETFLOW_OVERLOAD_RPS / rec)
            probe.finish()
            end = view.snapshot()
            wait_until("sent = udp.records + 30 x drops + malformed "
                       "(overload phase)", accounted(paced_n + over_n))
        samples = probe.samples
        full = [s for s in samples if s[2] > samples[0][2]]
        if len(full) < 3:
            # Not a wrong answer, but the number below then measures the
            # offered rate, not the daemon.
            print("warning: the receive buffer never overflowed; the "
                  "overload rate is not above capacity", file=sys.stderr)
            full = samples[len(samples) // 2:]
        self.out["ingest_rps"] = slope(full, 1, 0)
        self.out["window"] = (start, end)
        self.out["late_ms_p99"] = max(percentile(late_paced, 99),
                                      percentile(late_over, 99))
        pool_ids = np.concatenate([stream.block_records(b)["src_ip"]
                                   for b in pool_blocks]).astype(np.int64)
        pool_vals = np.concatenate([stream.block_records(b)["octets"]
                                    for b in pool_blocks]).astype(float)
        answer = decoded(view.conn.call("top"))
        self.check(streams.check_sent_pairs(
            answer, np.concatenate([ids, pool_ids]),
            np.concatenate([vals, pool_vals])), "final top")

    # -- report-tcp -------------------------------------------------------

    def run_tcp(self, view: DaemonView, q: int) -> None:
        stream = streams.ReportStream(self.seed)
        frames = 0
        block = 0
        records_in0 = view.conn.call("stats")["feeder"]["records_in"]
        probe = Probe(view, tops=True, sample_s=SAMPLE_S, seed=self.seed)
        start = view.snapshot()
        probe.start()
        deadline = start["t"] + self.ingest_s
        with socket.create_connection((HOST, view.proc.tcp_port)) as data:
            while time.perf_counter() < deadline:
                for frame in stream.block_frames(block):
                    data.sendall(frame)
                    frames += 1
                block += 1
        sent = frames * stream.ENTRIES
        probe.finish()
        end = view.snapshot()
        wait_until("sent = feeder.records_in", lambda: view.conn.call(
            "stats")["feeder"]["records_in"] - records_in0 == sent)
        after = view.snapshot()
        got = after["stats"]["feeder"]["records_out"] - records_in0
        # The first fifth of the phase is warm-up.
        steady = probe.samples[len(probe.samples) // 5:]
        if got != sent:
            self.check([f"{sent} records sent, {got} ingested"], "accounting")
        entries = stream.records(frames)
        answer = decoded(view.conn.call("top"))
        self.check(streams.check_record_top(answer, entries, q), "top")
        self.out.update(
            attempted=sent, failed=sent - got, top_ms=probe.top_ms,
            ingest_rps=slope(steady, 1, 0),
            cpu_us_per_record=slope(steady, 3, 1) * 1e6,
            window=(start, end), late_ms_p99=0.0, drops=0,
        )

    # -- report-tcp, sharded pass (traced run only) -----------------------

    def run_tcp_rounds(self, view: DaemonView, q: int) -> None:
        """The report stream in rounds of a fixed record count, for at
        least the ingest time.  A round ends when the daemon has taken all
        of its records and answered a ``top`` (the workers' barrier);
        that answer is checked against the round's records, then a
        ``reset`` empties the engine.  The reset also clears the sharded
        engine's id interning table, which otherwise keeps every tuple
        id ever ingested.  Queries run beside ingest only."""
        stream = streams.ReportStream(self.seed)
        per_round = SHARDED_ROUND_BLOCKS * stream.FRAMES_PER_BLOCK
        records = per_round * stream.ENTRIES
        conn = view.conn
        records_in0 = conn.call("stats")["feeder"]["records_in"]
        answers = []
        probe = Probe(view, tops=True, sample_s=None, seed=self.seed)
        start = view.snapshot()
        probe.start()
        deadline = start["t"] + self.ingest_s
        with socket.create_connection((HOST, view.proc.tcp_port)) as data:
            while not answers or time.perf_counter() < deadline:
                if answers:
                    conn.call("reset")
                sent = (len(answers) + 1) * records
                probe.active.set()
                first = len(answers) * SHARDED_ROUND_BLOCKS
                for block in range(first, first + SHARDED_ROUND_BLOCKS):
                    for frame in stream.block_frames(block):
                        data.sendall(frame)
                wait_until("sent = feeder.records_in", lambda: conn.call(
                    "stats")["feeder"]["records_in"] - records_in0 == sent,
                    poll_s=0.002)
                probe.active.clear()
                answers.append(conn.call("top"))
        probe.finish()
        end = view.snapshot()
        sent = len(answers) * records
        got = end["stats"]["feeder"]["records_out"] - records_in0
        if got != sent:
            self.check([f"{sent} records sent, {got} ingested"], "accounting")
        for i, answer in enumerate(answers):
            entries = stream.records(per_round, first=i * per_round)
            self.check(streams.check_record_top(decoded(answer), entries, q),
                       f"round {i} top")
        log(f"rounds: {len(answers)} of {records} records")
        self.out.update(
            attempted=sent, failed=sent - got, top_ms=probe.top_ms,
            window=(start, end), late_ms_p99=0.0, drops=0,
        )

    # -- shared ----------------------------------------------------------

    def run(self, proc: Proc, fleet: Proc) -> Dict[str, Any]:
        with RpcConn(proc.rpc_port) as conn:
            view = DaemonView(proc, conn, self.transport)
            q = conn.call("health")["q"]
            if self.transport == "udp":
                self.run_udp(view, q)
            elif self.shards > 1:
                self.run_tcp_rounds(view, q)
            else:
                self.run_tcp(view, q)
            # Quiet phase: the fleet answer must equal the daemon's, then
            # closed-loop global queries.
            mine = conn.call("top")
            with RpcConn(fleet.rpc_port) as fc:
                glob = fc.call("top", q=q)
                if glob["coverage"] != 1.0:
                    self.check([f"coverage {glob['coverage']}"], "fleet top")
                if sorted(map(json.dumps, glob["items"])) != sorted(
                        map(json.dumps, mine)):
                    self.check(["differs from the daemon's top"], "fleet top")
                fleet_ms = []
                deadline = time.perf_counter() + self.fleet_s
                while time.perf_counter() < deadline:
                    t0 = time.perf_counter()
                    line = fc.request("top", q=q)
                    fleet_ms.append((time.perf_counter() - t0) * 1e3)
                    fc.decode("top", line)
                    time.sleep(FLEET_THINK_S)
                self.out["fleet_metrics"] = fc.call("metrics")
            self.out["fleet_ms"] = fleet_ms
            self.out["stats"] = conn.call("stats")
            self.out["metrics"] = conn.call("metrics")
            tree = procfs.process_tree(proc.pid)
            self.out["peak_rss_mb"] = procfs.vm_hwm_mb(tree)
        return self.out


def end_to_end(out: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    top = out["top_ms"]
    return {
        "setup_s": statistics.median(setups),
        "ingest_rps": out["ingest_rps"],
        "delivered_frac": 1.0 - out["failed"] / out["attempted"],
        "cpu_us_per_record": out["cpu_us_per_record"],
        "peak_rss_mb": out["peak_rss_mb"],
        "top_p50_ms": percentile(top, 50),
        "top_p95_ms": tail_percentile(top, 95),
        "fleet_top_p50_ms": percentile(out["fleet_ms"], 50),
    }


def _metric(snapshot: Dict[str, Any], name: str, field: str = "value"):
    return sum(m.get(field, 0.0) for m in snapshot["metrics"]
               if m["name"] == name)


def per_layer(out: Dict[str, Any], spans: Spans, pid: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    stats, met = out["stats"], out["metrics"]
    records = max(stats["feeder"]["records_out"], 1)
    udp_records = max(stats["udp"]["records"], 1)
    tcp_records = max(stats["tcp"]["records"], 1)
    start, end = out["window"]
    win_records = max(end["stats"]["feeder"]["records_out"]
                      - start["stats"]["feeder"]["records_out"], 1)
    tree_cpu, own_cpu = cpu_delta(start["cpu"], end["cpu"], pid)
    wall = end["t"] - start["t"]
    window = spans.in_window(int(start["t"] * 1e9), int(end["t"] * 1e9))
    # RPC handlers can wait (a sharded query waits for its workers), so
    # only the ingest path's self time is taken out of the daemon's CPU.
    rpc = np.isin(spans.code, [i for i, n in enumerate(spans.names)
                               if n.startswith("rpc.")])
    traced_s = float(spans.self_ns[window & ~rpc].sum()) / 1e9
    tops = spans.mask("rpc.top")
    n_tops = max(int(tops.sum()), 1)
    top_server = spans.dur[tops] / 1e6
    server_p50 = float(np.median(top_server)) if len(top_server) else 0.0
    engine = stats["engine"]
    if "admitted" in engine:
        admitted, rejected = engine["admitted"], engine["rejected"]
    else:  # sharded: the workers' counters, prefilter rejects included
        admitted = _metric(met, "repro_shard_admitted")
        rejected = _metric(met, "repro_shard_rejected")
    prefiltered = _metric(met, "repro_worker_prefilter_rejected_total")
    fleet = out["fleet_metrics"]

    def per_record(name: str, n: int) -> float:
        return spans.self_seconds(name) / n * 1e6

    def mean_ms(name: str) -> float:
        count = _metric(fleet, name, "count")
        return _metric(fleet, name, "sum") / count * 1e3 if count else 0.0

    def per_top_ms(name: str) -> float:
        return float(spans.dur[spans.under(name, "rpc.top")].sum()) / n_tops / 1e6

    return {
        "netflow.decode_us_per_record": per_record("netflow.decode", udp_records),
        "ingest.items_us_per_record": per_record("ingest.items", records),
        "ingest.udp_other_us_per_record":
            (own_cpu - traced_s) / win_records * 1e6,
        "udp.kernel_drops": float(out["drops"]),
        "wire.decode_us_per_record": per_record("wire.decode", tcp_records),
        "feeder.put_us_per_record": per_record("feeder.put", records),
        "feeder.batch_records_mean":
            stats["feeder"]["records_out"] / max(stats["feeder"]["batches"], 1),
        "feeder.stalls": float(stats["feeder"]["stalls"]),
        "qmax.add_us_per_record": per_record("qmax.add", records),
        "qmax.admit_frac": admitted / max(admitted + rejected, 1),
        "qmax.iterations": _metric(met, "repro_qmax_iterations_total"),
        "qmax.evictions": _metric(met, "repro_qmax_evictions_total"),
        "parallel.add_us_per_record": per_record("parallel.add", records),
        "parallel.ring_stalls": float(sum(engine.get("stalls") or [0])),
        "parallel.prefilter_reject_frac":
            prefiltered / max(admitted + rejected, 1),
        "parallel.worker_cpu_frac":
            (tree_cpu - own_cpu) / tree_cpu if tree_cpu > 0 else 0.0,
        "rpc.top_server_ms": server_p50,
        "rpc.top_flush_ms": per_top_ms("feeder.flush"),
        "rpc.top_wait_ms": percentile(out["top_ms"], 50) - server_p50,
        "merge.top_ms": per_top_ms("merge.top"),
        "snapshot.encode_ms": per_top_ms("snapshot.encode"),
        "fleet.pull_ms": mean_ms("repro_fleet_pull_seconds"),
        "fleet.merge_ms": mean_ms("repro_fleet_merge_seconds"),
        "daemon.busy_frac": tree_cpu / wall,
        "loadgen.late_ms_p99": out["late_ms_p99"],
        # The cost of recording the window's spans, measured in the
        # daemon before tracing began, against the daemon's own CPU.
        "trace.overhead_frac":
            int(window.sum()) * spans.span_cost_ns / 1e9 / own_cpu,
    }


def run_pass(work: Workload, workdir: str, fleet: Proc, cpus, setups: int,
             spans_path: Optional[str] = None):
    """Launch the daemon ``setups`` times (keeping the last), run
    ``work`` against it and stop it.  Returns the setup times and the
    daemon's pid."""
    setup_s = []
    for i in range(setups):
        proc = start_daemon(fleet.rpc_port, os.path.join(workdir, "daemon.log"),
                            cpus, work.shards, spans_path)
        setup_s.append(proc.setup_s)
        if i < setups - 1:
            stop_daemon(proc, fleet.rpc_port)
    try:
        work.run(proc, fleet)
    except BaseException:
        proc.stop()
        raise
    stop_daemon(proc, fleet.rpc_port)
    late = work.out["late_ms_p99"]
    if late > MAX_LATE_MS:
        raise BenchError(f"the sender fell behind its schedule: p99 "
                         f"{late:.1f} ms late (limit {MAX_LATE_MS:g} ms)")
    return setup_s, proc.pid


def traced_pass(work: Workload, workdir: str, fleet: Proc,
                cpus) -> Dict[str, float]:
    """One pass of ``work`` with the traced daemon; its per-layer metrics."""
    spans_path = os.path.join(workdir, "spans.npz")
    _, pid = run_pass(work, workdir, fleet, cpus, 1, spans_path)
    spans = Spans.load(spans_path)
    os.unlink(spans_path)
    log(f"spans ({work.shards} shard(s)): {len(spans.ids)}, "
        f"{spans.span_cost_ns:.0f} ns to record one")
    return per_layer(work.out, spans, pid)


def measure(args, workdir: str, fleet: Proc, cpus) -> Dict[str, Any]:
    work = Workload(args.workload, args.seed, args.seconds)
    passes = [work]
    if args.trace == 0:
        setups, _ = run_pass(work, workdir, fleet, cpus, SETUPS)
        metrics, units = end_to_end(work.out, setups), END_TO_END
        log(f"samples: top={len(work.out['top_ms'])} "
            f"fleet_top={len(work.out['fleet_ms'])} setups={len(setups)}")
    else:
        metrics, units = traced_pass(work, workdir, fleet, cpus), PER_LAYER
        if work.transport == "tcp":
            # repro.parallel: the same stream through shard processes.
            sharded = Workload(args.workload, args.seed,
                               args.seconds * SHARDED_SHARE, SHARDS)
            passes.append(sharded)
            layers = traced_pass(sharded, workdir, fleet, cpus)
            metrics.update((n, v) for n, v in layers.items()
                           if n.startswith("parallel."))
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    problems = [p for w in passes for p in w.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(w.out["attempted"] for w in passes),
        "failed": sum(w.out["failed"] for w in passes),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from repro.core.kernels import native_available

    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"native_kernel={native_available()}")
    streams.check_encoders(args.seed)
    workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    daemon_cpus, other_cpus = split_cpus()
    ref_before = host_ref_ms(daemon_cpus)
    # The coordinator inherits this process's CPUs.
    os.sched_setaffinity(0, other_cpus)
    log(f"daemon CPUs {sorted(daemon_cpus)}, load generator and "
        f"coordinator CPUs {sorted(other_cpus)}")
    fleet = None
    steal0 = procfs.cpu_steal()
    try:
        fleet = start_coordinator(os.path.join(workdir, "fleet.log"))
        result = measure(args, workdir, fleet, daemon_cpus)
        steal1 = procfs.cpu_steal()
        log(f"host steal: {(steal1[0] - steal0[0]) / (steal1[1] - steal0[1]):.3f}"
            f" of CPU time during the run")
        ref_after = host_ref_ms(daemon_cpus)
        log(f"host reference loop on the daemon's CPU: {ref_before:.2f} ms "
            f"before, {ref_after:.2f} ms after the run "
            f"({ref_after / ref_before - 1:+.1%})")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name in ("daemon.log", "fleet.log"):
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, errors="replace") as fh:
                    sys.stderr.write(fh.read()[-4000:])
        return 1
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
