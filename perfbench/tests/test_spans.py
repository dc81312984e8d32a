import numpy as np

from spans import NO_PARENT, SpanRecorder, Spans, self_times, span_cost_ns


def test_self_time_subtracts_direct_children_only():
    # 0 [0,100) ─┬─ 1 [10,40) ── 3 [15,25)
    #            └─ 2 [50,90)
    dur = np.array([100, 30, 40, 10])
    parent = np.array([NO_PARENT, 0, 0, 1])
    assert self_times(dur, parent).tolist() == [30, 20, 40, 10]


def test_recorder_nests_spans_and_computes_self_time():
    rec = SpanRecorder()

    def leaf(x):
        return x + 1

    leaf = rec.wrap(leaf, "leaf")

    def outer(n):
        return sum(leaf(i) for i in range(n))

    outer = rec.wrap(outer, "outer")
    assert outer(3) == 6
    assert leaf(0) == 1
    spans = Spans(rec.table(), rec.names)
    assert spans.mask("outer").sum() == 1 and spans.mask("leaf").sum() == 4
    assert spans.under("leaf", "outer").sum() == 3
    root = np.flatnonzero(spans.mask("outer"))[0]
    kids = spans.under("leaf", "outer")
    assert spans.self_ns[root] == spans.dur[root] - spans.dur[kids].sum()
    assert spans.self_seconds("outer") >= 0


def test_name_of_picks_span_names_from_arguments():
    rec = SpanRecorder()
    handle = rec.wrap(lambda op: op, "rpc.other",
                      name_of=lambda op: f"rpc.{op}")
    handle("top")
    handle("stats")
    handle("top")
    spans = Spans(rec.table(), rec.names)
    assert spans.mask("rpc.top").sum() == 2
    assert spans.mask("rpc.stats").sum() == 1


def test_exceptions_still_close_the_span(tmp_path):
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    boom = rec.wrap(boom, "boom")
    try:
        boom()
    except KeyError:
        pass
    rec.wrap(lambda: None, "after")()
    path = str(tmp_path / "spans.npz")
    rec.dump(path)
    spans = Spans.load(path)
    assert spans.mask("boom").sum() == 1
    # The failed call popped its stack entry: "after" is a root span.
    assert spans.parent[spans.mask("after")].tolist() == [NO_PARENT]


def test_disabled_recorder_passes_calls_through():
    rec = SpanRecorder()
    fn = rec.wrap(lambda: 7, "x")
    rec.enabled = False
    assert fn() == 7
    assert len(rec.table()) == 0


def test_span_cost_is_measured_and_kept_with_the_spans(tmp_path):
    cost = span_cost_ns(calls=2000, repeats=2)
    assert cost > 0
    rec = SpanRecorder()
    rec.wrap(lambda: None, "x")()
    path = str(tmp_path / "spans.npz")
    rec.dump(path, cost)
    assert Spans.load(path).span_cost_ns == cost
