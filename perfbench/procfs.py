"""Readers for the ``/proc`` counters the benchmark measures from outside.

Everything here parses text the Linux kernel writes; each parser takes
the text (or a ``/proc`` root) so the tests can feed it fixtures.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, NamedTuple, Tuple


class ProcStat(NamedTuple):
    pid: int
    ppid: int
    state: str


def parse_stat(text: str) -> ProcStat:
    """Parse one ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are split after its *last* closing parenthesis.
    """
    head, _, rest = text.rpartition(")")
    pid = int(head.split("(", 1)[0])
    # rest starts at field 3 (state); field 4 is the parent pid.
    fields = rest.split()
    return ProcStat(pid, int(fields[1]), fields[0])


def parse_vm_hwm_kb(status_text: str) -> int:
    """``VmHWM`` (peak resident set) in kB from ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line in status text")


class UdpSocket(NamedTuple):
    port: int
    rx_queue: int
    drops: int


def parse_net_udp(text: str) -> List[UdpSocket]:
    """Rows of ``/proc/net/udp``: local port, receive-queue bytes, drops."""
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) < 13:
            continue
        port = int(fields[1].rsplit(":", 1)[1], 16)
        rx_queue = int(fields[4].split(":")[1], 16)
        rows.append(UdpSocket(port, rx_queue, int(fields[-1])))
    return rows


def parse_cpu_steal(stat_text: str) -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``: the time
    a hypervisor ran something else while this guest wanted the CPU."""
    fields = [int(f) for f in stat_text.split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def process_tree(root_pid: int, proc: str = "/proc") -> List[int]:
    """``root_pid`` and every live descendant (shard workers included)."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        try:
            st = parse_stat(_read(f"{proc}/{name}/stat"))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(st.ppid, []).append(st.pid)
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def running(pids: Iterable[int], proc: str = "/proc") -> List[int]:
    """The ``pids`` that still run (exited and zombie ones are left out)."""
    out = []
    for pid in pids:
        try:
            if parse_stat(_read(f"{proc}/{pid}/stat")).state != "Z":
                out.append(pid)
        except (OSError, ValueError, IndexError):
            continue
    return out


def parse_schedstat_ns(text: str) -> int:
    """On-CPU nanoseconds from a ``/proc/<pid>/task/<tid>/schedstat``."""
    return int(text.split()[0])


def cpu_seconds(pids: Iterable[int], proc: str = "/proc") -> Dict[int, float]:
    """On-CPU seconds per pid, summed over its threads, at nanosecond
    resolution (``/proc/<pid>/stat`` counts 10 ms ticks, too coarse for
    a few seconds of CPU).  Pids that have exited are left out."""
    out = {}
    for pid in pids:
        try:
            tids = os.listdir(f"{proc}/{pid}/task")
        except OSError:
            continue
        ns = 0
        for tid in tids:
            try:
                ns += parse_schedstat_ns(
                    _read(f"{proc}/{pid}/task/{tid}/schedstat"))
            except (OSError, ValueError, IndexError):
                continue  # thread exited
        out[pid] = ns / 1e9
    return out


def vm_hwm_mb(pids: Iterable[int], proc: str = "/proc") -> float:
    """Summed ``VmHWM`` of ``pids`` in MB (10^6 bytes)."""
    total_kb = 0
    for pid in pids:
        try:
            total_kb += parse_vm_hwm_kb(_read(f"{proc}/{pid}/status"))
        except (OSError, ValueError):
            continue
    return total_kb * 1024 / 1e6


def udp_socket(port: int, proc: str = "/proc") -> UdpSocket:
    """The ``/proc/net/udp`` row of the socket bound to ``port``."""
    for row in parse_net_udp(_read(f"{proc}/net/udp")):
        if row.port == port:
            return row
    raise LookupError(f"no UDP socket on port {port}")


def cpu_steal(proc: str = "/proc") -> Tuple[int, int]:
    return parse_cpu_steal(_read(f"{proc}/stat"))
