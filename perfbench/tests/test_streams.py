import numpy as np

import streams
from repro.netwide.wire import from_bytes
from repro.traffic.netflow import decode_packet


def test_encoders_match_the_reference_encoders():
    for seed in (0, 1, 12345):
        streams.check_encoders(seed)


def test_streams_are_deterministic_and_decodable():
    a, b = streams.NetflowStream(7), streams.NetflowStream(7)
    assert [bytes(g) for g in a.block_datagrams(3)] == [
        bytes(g) for g in b.block_datagrams(3)]
    records = decode_packet(bytes(a.block_datagrams(0)[2]))
    src, octets = a.records(3 * streams.RECORDS_PER_DATAGRAM)
    assert [r.src_ip for r in records] == src[60:90].tolist()
    assert [float(r.octets) for r in records] == octets[60:90].tolist()

    rs = streams.ReportStream(7)
    frame = rs.block_frames(1)[2]
    report = from_bytes(frame[4:])
    assert len(report.entries) == rs.ENTRIES
    entries = rs.records(12)
    assert entries["pid"].tolist() == list(range(12 * rs.ENTRIES))
    (flow, pid), value = report.entries[0]
    assert entries["flow"][pid] == flow and entries["hash"][pid] == value


def _keyed_answer(ids, vals, q):
    """The daemon's answer for a keyed stream, computed the slow way."""
    order = np.argsort(-vals, kind="stable")[:q]
    best = {}
    for i in order:
        best.setdefault(int(ids[i]), float(vals[i]))
    return sorted(best.items(), key=lambda kv: -kv[1])


def test_keyed_top_check_accepts_exact_answers_and_rejects_wrong_ones():
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 50, 2000)
    vals = rng.integers(0, 300, 2000).astype(float)  # many ties
    q = 40
    answer = _keyed_answer(ids, vals, q)
    assert streams.check_keyed_top(answer, ids, vals, q) == []
    wrong_value = [(answer[0][0], answer[0][1] + 1)] + answer[1:]
    assert streams.check_keyed_top(wrong_value, ids, vals, q)
    assert streams.check_keyed_top(answer[1:], ids, vals, q)
    lowest = int(np.argmin(vals))
    extra = answer + [(int(ids[lowest]) + 1000, float(vals[lowest]))]
    assert streams.check_keyed_top(extra, ids, vals, q)


def test_record_top_check():
    rs = streams.ReportStream(3)
    entries = rs.records(4)
    q = 100
    top = np.argsort(entries["hash"])[-q:][::-1]
    answer = [((int(entries["flow"][i]), int(entries["pid"][i])),
               float(entries["hash"][i])) for i in top]
    assert streams.check_record_top(answer, entries, q) == []
    assert streams.check_record_top(answer[:-1], entries, q)
    forged = [((answer[0][0][0] + 1, answer[0][0][1]), answer[0][1])]
    assert streams.check_record_top(forged + answer[1:], entries, q)


def test_record_top_check_on_a_later_round():
    rs = streams.ReportStream(3)
    whole = rs.records(12)
    later = rs.records(6, first=5)
    assert (later == whole[5 * rs.ENTRIES:11 * rs.ENTRIES]).all()
    q = 100
    top = np.argsort(later["hash"])[-q:][::-1]
    answer = [((int(later["flow"][i]), int(later["pid"][i])),
               float(later["hash"][i])) for i in top]
    assert streams.check_record_top(answer, later, q) == []
    # The same answer does not pass against another round's records.
    assert streams.check_record_top(answer, rs.records(6), q)


def test_sent_pairs_check():
    ids = np.array([1, 2, 3])
    vals = np.array([10.0, 20.0, 30.0])
    assert streams.check_sent_pairs([(3, 30.0), (1, 10.0)], ids, vals) == []
    assert streams.check_sent_pairs([(3, 20.0)], ids, vals)
    assert streams.check_sent_pairs([], ids, vals)
