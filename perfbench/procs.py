"""Starting, querying and stopping the daemon and the coordinator."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import procfs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOST = "127.0.0.1"

START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: How long a stopped daemon's child processes may take to exit.
ORPHAN_TIMEOUT = 5.0


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def child_env() -> Dict[str, str]:
    """The caller's environment with ``src`` importable and no ``REPRO_*``
    overrides, so the daemon runs with its own defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


class RpcConn:
    """One persistent connection speaking the newline-JSON RPC.

    Threads share it request by request; a caller that times a request
    holds :attr:`lock` around it so the time excludes waiting for
    another thread's request."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self.sock.makefile("rb")
        self.lock = threading.RLock()

    def call(self, op: str, **params: Any) -> Any:
        return self.decode(op, self.request(op, **params))

    def request(self, op: str, **params: Any) -> bytes:
        """Send one request and return the raw response line."""
        params["op"] = op
        with self.lock:
            self.sock.sendall(json.dumps(params).encode() + b"\n")
            line = self._file.readline()
        if not line:
            raise BenchError(f"RPC {op!r}: connection closed")
        return line

    @staticmethod
    def decode(op: str, line: bytes) -> Any:
        doc = json.loads(line)
        if not doc.get("ok"):
            raise BenchError(f"RPC {op!r} failed: {doc.get('error')}")
        return doc["result"]

    def close(self) -> None:
        self._file.close()
        self.sock.close()

    def __enter__(self) -> "RpcConn":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def rpc_once(port: int, op: str, **params: Any) -> Any:
    with RpcConn(port) as conn:
        return conn.call(op, **params)


class Proc:
    """A ``repro`` subprocess whose ready line names its ports."""

    def __init__(self, argv: List[str], ready_prefix: str, log_path: str,
                 cpus: Optional[Set[int]] = None):
        self.t_spawn = time.perf_counter()
        self._log = open(log_path, "ab")
        self.popen = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(), cwd=ROOT,
        )
        self.pid = self.popen.pid
        try:
            if cpus:
                # Still one thread: every thread it starts inherits this.
                os.sched_setaffinity(self.pid, cpus)
            self.ports = self._await_ready(ready_prefix)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, prefix: str) -> Dict[str, str]:
        deadline = self.t_spawn + START_TIMEOUT
        out = self.popen.stdout
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise BenchError(f"no ready line within {START_TIMEOUT:g}s")
            chunk = os.read(out.fileno(), 4096)
            if not chunk:
                raise BenchError("process exited before its ready line")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith(prefix):
            raise BenchError(f"unexpected ready line {line!r}")
        return dict(p.split("=", 1) for p in line.split() if "=" in p)

    def stop(self) -> List[int]:
        """SIGTERM, wait for the drain, escalate to SIGKILL; then kill
        any descendant (such as a shard worker) still running
        :data:`ORPHAN_TIMEOUT` seconds later.  Returns those pids."""
        left: List[int] = []
        if self.popen.poll() is None:
            tree = procfs.process_tree(self.pid)
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
            deadline = time.perf_counter() + ORPHAN_TIMEOUT
            while procfs.running(tree[1:]) and time.perf_counter() < deadline:
                time.sleep(0.02)
            left = procfs.running(tree[1:])
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        self._log.close()
        return left


def start_coordinator(log_path: str) -> Proc:
    proc = Proc(
        [sys.executable, "-m", "repro.cli", "fleet", "serve",
         "--host", HOST, "--port", "0", "--log-level", "warning"],
        "repro.fleet coordinator up:", log_path,
    )
    proc.rpc_port = int(proc.ports["rpc"])
    return proc


def split_cpus() -> Tuple[Set[int], Set[int]]:
    """(daemon CPUs, everyone else's CPUs): the daemon gets the last
    allowed CPU to itself so the load generator never competes with it;
    with a single CPU both share it."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return allowed, allowed
    last = max(allowed)
    return {last}, allowed - {last}


def start_daemon(fleet_port: int, log_path: str, cpus: Set[int],
                 shards: int = 1, spans_path: Optional[str] = None) -> Proc:
    """Start ``repro serve`` (or the traced launcher) registered with the
    coordinator; returns once it answers ``health`` and the coordinator
    lists it alive.  ``proc.setup_s`` is that time since spawn.  With
    ``shards`` > 1 the engine runs that many worker processes."""
    serve = ["--host", HOST, "--udp-port", "0", "--tcp-port", "0",
             "--rpc-port", "0", "--fleet", f"{HOST}:{fleet_port}",
             "--log-level", "warning"]
    if shards > 1:
        serve += ["--shards", str(shards), "--shard-mode", "process"]
    if spans_path is None:
        argv = [sys.executable, "-m", "repro.cli", "serve", *serve]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced_daemon.py"),
                spans_path, *serve]
    proc = Proc(argv, "repro.service up:", log_path, cpus)
    try:
        proc.rpc_port = int(proc.ports["rpc"])
        proc.udp_port = int(proc.ports["udp"])
        proc.tcp_port = int(proc.ports["tcp"])
        proc.backend = proc.ports["backend"]
        if shards > 1 and "/process" not in proc.backend:
            raise BenchError(f"the sharded daemon runs backend "
                             f"{proc.backend!r}, not shard processes")
        if rpc_once(proc.rpc_port, "health")["status"] != "ok":
            raise BenchError("daemon health is not ok")
        me = f"{HOST}:{proc.rpc_port}"
        deadline = time.perf_counter() + START_TIMEOUT
        with RpcConn(fleet_port) as fleet:
            while not any(m["daemon_id"] == me and m["alive"]
                          for m in fleet.call("status")["members"]):
                if time.perf_counter() > deadline:
                    raise BenchError("daemon never registered with the fleet")
                time.sleep(0.002)
        proc.setup_s = time.perf_counter() - proc.t_spawn
    except BaseException:
        proc.stop()
        raise
    return proc


def stop_daemon(proc: Proc, fleet_port: int) -> None:
    """Stop a daemon and wait until the coordinator has dropped it, so
    the next daemon joins a fleet of one.  Fails if the daemon exits
    with an error or leaves a child process running."""
    left = proc.stop()
    if left:
        raise BenchError(f"the stopped daemon left {len(left)} child "
                         f"process(es) running (killed): {left}")
    code = proc.popen.returncode
    if code != 0:
        raise BenchError(f"daemon exited with code {code}")
    me = f"{HOST}:{proc.rpc_port}"
    deadline = time.perf_counter() + START_TIMEOUT
    with RpcConn(fleet_port) as fleet:
        while any(m["daemon_id"] == me for m in fleet.call("status")["members"]):
            if time.perf_counter() > deadline:
                raise BenchError(f"the coordinator still lists {me} after "
                                 f"it stopped (deregistration was lost)")
            time.sleep(0.01)
