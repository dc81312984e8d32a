import json
import os
import time

import numpy as np
import pytest

import run


class RecordingSocket:
    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((time.perf_counter(), data))


def test_open_loop_sender_holds_its_schedule():
    sock = RecordingSocket()
    rate, count = 2000.0, 600
    t0 = time.perf_counter()
    late = run.send_scheduled(sock, None, lambda i: i, count, rate)
    assert [d for _, d in sock.sent] == list(range(count))
    assert len(late) == count and min(late) >= 0
    # Nothing is sent before it is due, and the whole run keeps pace.
    for i, (t, _) in enumerate(sock.sent):
        assert t - t0 >= i / rate - 1e-4
    assert sock.sent[-1][0] - t0 == pytest.approx((count - 1) / rate, abs=0.05)
    assert np.percentile(late, 50) < 5.0


def test_slope_is_the_total_over_the_phase():
    # (t, records): a slow stretch counts by its length, not by a vote.
    samples = list(zip([0.0, 1.0, 2.0, 3.0, 4.0],
                       [0, 2000, 4000, 5000, 6000]))
    assert run.slope(samples, 1, 0) == pytest.approx(1500)
    # CPU per record: (records, CPU seconds).
    cpu = [(0, 0.0), (100, 0.5), (300, 1.5)]
    assert run.slope(cpu, 1, 0) == pytest.approx(0.005)
    with pytest.raises(run.BenchError):
        run.slope([(0, 0.0), (0, 0.0)], 0, 1)


def test_percentiles():
    assert run.percentile(list(range(101)), 95) == pytest.approx(95)
    # Too few samples for two windows: the plain percentile.
    assert run.tail_percentile(list(range(101)), 95) == pytest.approx(95)
    # Five windows of 200; one has a stall, the median ignores it.
    calm = [1.0] * 180 + [2.0] * 20
    stalled = [1.0] * 100 + [50.0] * 100
    values = calm * 2 + stalled + calm * 2
    assert run.tail_percentile(values, 95) == pytest.approx(2.0)
    assert run.percentile(values, 95) == pytest.approx(50.0)


def test_benchmark_json_matches_the_command():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
