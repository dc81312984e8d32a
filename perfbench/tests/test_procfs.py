import os
import subprocess
import sys
import time

import pytest

import procfs

STAT = ("4242 (py (x) y) S 4200 4242 4200 0 -1 4194560 100 0 0 0 "
        "250 50 7 3 20 0 1 0 1000 0 0")

NET_UDP = """\
   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
 1234: 0100007F:EDCB 00000000:0000 07 00000000:00001F40 00:00000000 00000000  1000        0 99 2 0000000000000000 17
 1235: 0100007F:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 98 2 0000000000000000 0
"""


def test_parse_stat_handles_parentheses_in_the_command_name():
    assert procfs.parse_stat(STAT) == (4242, 4200, "S")


def test_parse_vm_hwm():
    text = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t  5120 kB\nVmRSS:\t 100 kB\n"
    assert procfs.parse_vm_hwm_kb(text) == 5120
    with pytest.raises(ValueError):
        procfs.parse_vm_hwm_kb("Name:\tkthread\n")


def test_parse_schedstat():
    assert procfs.parse_schedstat_ns("7197793 2242466 10\n") == 7197793


def test_parse_cpu_steal():
    text = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 0 0 0 0 0 0 0 0 0\n"
    assert procfs.parse_cpu_steal(text) == (35, 1000)


def test_parse_net_udp():
    rows = procfs.parse_net_udp(NET_UDP)
    assert rows == [procfs.UdpSocket(0xEDCB, 0x1F40, 17),
                    procfs.UdpSocket(53, 0, 0)]


def test_live_process_tree_cpu_memory_and_udp_socket():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        tree = procfs.process_tree(os.getpid())
        assert tree[0] == os.getpid() and child.pid in tree
        cpu = procfs.cpu_seconds(tree)
        assert cpu[os.getpid()] > 0
        assert procfs.vm_hwm_mb([os.getpid()]) > 1
        assert procfs.running([child.pid]) == [child.pid]
        child.kill()
        deadline = time.time() + 5
        while procfs.running([child.pid]) and time.time() < deadline:
            time.sleep(0.01)  # an unreaped child is a zombie: not running
        assert procfs.running([child.pid]) == []
    finally:
        child.kill()
        child.wait()
    import socket
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
        rx.bind(("127.0.0.1", 0))
        port = rx.getsockname()[1]
        tx.sendto(b"x" * 100, ("127.0.0.1", port))
        time.sleep(0.05)
        row = procfs.udp_socket(port)
        assert row.rx_queue > 0 and row.drops == 0
