"""Tests for the NetFlow v5 export codec."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetFlowDecodeError, ReproError
from repro.errors import ConfigurationError
from repro.service.ingest import items_from_flow_records
from repro.traffic.netflow import (
    MAX_RECORDS_PER_PACKET,
    FlowRecord,
    decode_items,
    decode_packet,
    decode_stream,
    encode_packets,
    records_from_sample,
)


def _record(i: int) -> FlowRecord:
    return FlowRecord(
        src_ip=0x0A000000 + i,
        dst_ip=0xC0A80000 + i,
        src_port=1024 + i,
        dst_port=80,
        proto=6,
        packets=10 * i + 1,
        octets=1500 * i + 40,
        first_ms=i,
        last_ms=i + 100,
    )


class TestFlowRecord:
    def test_field_ranges_validated(self):
        with pytest.raises(ConfigurationError):
            FlowRecord(2**32, 0, 0, 0, 6, 1, 1)
        with pytest.raises(ConfigurationError):
            FlowRecord(0, 0, 70000, 0, 6, 1, 1)
        with pytest.raises(ConfigurationError):
            FlowRecord(0, 0, 0, 0, 300, 1, 1)


class TestRoundTrip:
    def test_single_packet(self):
        records = [_record(i) for i in range(7)]
        (packet,) = encode_packets(records)
        assert decode_packet(packet) == records

    def test_multi_packet_chunking(self):
        records = [_record(i) for i in range(75)]
        packets = encode_packets(records)
        assert len(packets) == 3  # 30 + 30 + 15
        assert decode_stream(packets) == records

    def test_empty(self):
        assert encode_packets([]) == []
        assert decode_stream([]) == []

    def test_exactly_max_records(self):
        records = [_record(i) for i in range(MAX_RECORDS_PER_PACKET)]
        packets = encode_packets(records)
        assert len(packets) == 1
        assert decode_packet(packets[0]) == records


class TestDecodeValidation:
    """decode_packet raises NetFlowDecodeError — which is-a
    ConfigurationError, so pre-service callers keep working — for every
    malformed shape the daemon's UDP listener counts and drops."""

    def test_truncated_header(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet(b"\x00\x05")

    def test_empty_datagram(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet(b"")

    def test_wrong_version(self):
        (packet,) = encode_packets([_record(1)])
        corrupted = b"\x00\x09" + packet[2:]
        with pytest.raises(NetFlowDecodeError):
            decode_packet(corrupted)

    def test_truncated_body(self):
        (packet,) = encode_packets([_record(1), _record(2)])
        with pytest.raises(NetFlowDecodeError):
            decode_packet(packet[:-10])

    def test_count_beyond_protocol_limit(self):
        (packet,) = encode_packets([_record(1)])
        # Claim MAX+1 records in the header; pad so the length check
        # alone wouldn't catch it.
        bogus_count = MAX_RECORDS_PER_PACKET + 1
        corrupted = (packet[:2] + bogus_count.to_bytes(2, "big")
                     + packet[4:] + b"\x00" * 4096)
        with pytest.raises(NetFlowDecodeError):
            decode_packet(corrupted)

    def test_non_bytes_input(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet("not bytes")  # type: ignore[arg-type]

    def test_typed_error_is_backward_compatible(self):
        assert issubclass(NetFlowDecodeError, ConfigurationError)
        assert issubclass(NetFlowDecodeError, ReproError)

    @settings(max_examples=120, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_garbage_never_escapes_typed_errors(self, data):
        """Arbitrary bytes either decode or raise NetFlowDecodeError —
        never a bare struct.error/ValueError that would kill the
        daemon's read loop."""
        try:
            records = decode_packet(data)
        except NetFlowDecodeError:
            return
        assert isinstance(records, list)


class TestSampleExport:
    def test_from_pba_sample(self):
        sample = [(0x0A000001, 500.0, 612.7), (0x0A000002, 90.0, 90.0)]
        records = records_from_sample(sample)
        assert records[0].src_ip == 0x0A000001
        assert records[0].octets == 613
        assert records[1].octets == 90

    def test_rejects_non_int_keys(self):
        with pytest.raises(ConfigurationError):
            records_from_sample([("flow-a", 1.0, 1.0)])

    def test_end_to_end_with_pba(self, rng):
        """Measure with PBA, export as NetFlow, re-ingest, compare."""
        from repro.apps.pba import PriorityBasedAggregation

        pba = PriorityBasedAggregation(16, seed=1)
        for _ in range(2000):
            pba.update(0x0A000000 + rng.randint(0, 9),
                       rng.uniform(100, 1500))
        sample = pba.sample()
        packets = encode_packets(records_from_sample(sample))
        back = decode_stream(packets)
        assert {r.src_ip for r in back} == {k for k, _w, _e in sample}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_roundtrip_property(n, seed):
    """Property: any batch of valid records survives encode/decode."""
    import random

    rng = random.Random(seed)
    records = [
        FlowRecord(
            src_ip=rng.randrange(2**32),
            dst_ip=rng.randrange(2**32),
            src_port=rng.randrange(2**16),
            dst_port=rng.randrange(2**16),
            proto=rng.randrange(2**8),
            packets=rng.randrange(2**32),
            octets=rng.randrange(2**32),
        )
        for _ in range(n)
    ]
    assert decode_stream(encode_packets(records)) == records


class TestDecodeItems:
    """``decode_items`` is the collector's fast path; the reference is
    ``items_from_flow_records(decode_packet(...))``."""

    def test_keys_by_source_ip_values_by_octets(self):
        records = [_record(i) for i in range(5)]
        (packet,) = encode_packets(records)
        ids, vals = decode_items(packet)
        assert ids == [r.src_ip for r in records]
        assert vals == [float(r.octets) for r in records]

    def test_u32_extremes(self):
        records = [
            FlowRecord(0, 1, 2, 3, 6, 4, 0),
            FlowRecord(2**32 - 1, 1, 2, 3, 6, 4, 2**32 - 1),
        ]
        (packet,) = encode_packets(records)
        assert decode_items(packet) == ([0, 2**32 - 1], [0.0, 2**32 - 1.0])

    def test_header_only_packet_is_empty(self):
        (packet,) = encode_packets([_record(1)])
        empty = packet[:2] + b"\x00\x00" + packet[4:24]
        assert decode_items(empty) == ([], [])
        assert decode_packet(empty) == []

    def test_malformed_raises_typed_error(self):
        (packet,) = encode_packets([_record(1), _record(2)])
        for bad in (b"", packet[:10], packet[:-1], b"\x00\x09" + packet[2:],
                    "not bytes", None):
            with pytest.raises(NetFlowDecodeError):
                decode_items(bad)  # type: ignore[arg-type]


#: Field offsets inside a 48-byte v5 record that decode_items reads.
_SRC_IP_AT, _OCTETS_AT = 0, 20
_U32_EDGES = (0, 1, 2**31, 2**32 - 2, 2**32 - 1)


def _valid_packet(rng: random.Random, n: int) -> bytes:
    """A well-formed v5 packet of ``n`` records: random bytes in every
    field, with src_ip/octets often pinned to u32 edge values."""
    header = struct.pack("!HH", 5, n) + rng.randbytes(20)
    body = bytearray(rng.randbytes(48 * n))
    for i in range(n):
        for at in (_SRC_IP_AT, _OCTETS_AT):
            if rng.random() < 0.3:
                struct.pack_into("!I", body, 48 * i + at,
                                 rng.choice(_U32_EDGES))
    return header + bytes(body)


def _mutate(rng: random.Random, packet: bytes):
    kind = rng.randrange(7)
    data = bytearray(packet)
    if kind == 0:  # bit flips anywhere, header included
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
    elif kind == 1:  # truncation
        del data[rng.randrange(len(data) + 1):]
    elif kind == 2:  # trailing bytes past the last record
        data += rng.randbytes(rng.randint(1, 100))
    elif kind == 3:  # wrong version
        struct.pack_into("!H", data, 0,
                         rng.choice([0, 1, 4, 6, 9, 10, 0xFFFF]))
    elif kind == 4:  # count beyond the v5 maximum, padded to fit
        count = rng.choice([MAX_RECORDS_PER_PACKET + 1, 64, 0xFFFF])
        struct.pack_into("!H", data, 2, count)
        if count < 100:  # so the length check alone would pass
            data += bytes(48 * count)
    elif kind == 5:  # other bytes-like types
        return rng.choice([bytearray, memoryview])(bytes(data))
    else:  # not bytes at all
        return rng.choice([packet.hex(), list(packet), None, 5, 5.0])
    return bytes(data)


def _outcome(decode, data):
    try:
        return decode(data)
    except NetFlowDecodeError:
        return NetFlowDecodeError


@pytest.mark.parametrize("seed", range(3))
def test_decode_items_matches_reference(seed):
    """Differential fuzz: on every input ``decode_items`` returns what
    ``items_from_flow_records(decode_packet(...))`` returns, or both
    raise NetFlowDecodeError.  Ids are plain ints, so snapshots can
    checkpoint UDP-ingested ids."""
    rng = random.Random(seed)
    decoded = raised = 0
    for _ in range(1000):
        packet = _valid_packet(rng, rng.randint(0, MAX_RECORDS_PER_PACKET))
        data = packet if rng.random() < 0.3 else _mutate(rng, packet)
        expected = _outcome(
            lambda d: items_from_flow_records(decode_packet(d)), data)
        got = _outcome(decode_items, data)
        assert got == expected, (seed, data)
        if got is NetFlowDecodeError:
            raised += 1
            continue
        decoded += 1
        ids, vals = got
        assert all(type(i) is int for i in ids)
        assert all(type(v) is float for v in vals)
    # Both outcomes are exercised, not just one.
    assert decoded > 300 and raised > 100, (decoded, raised)
