"""Snapshot codec, atomic write, and validation."""

from __future__ import annotations

import json
import os

import pytest

from repro._compat import HAVE_NUMPY, np
from repro.errors import ServiceError
from repro.service.snapshot import (
    SNAPSHOT_FILE,
    build_state,
    decode_id,
    encode_id,
    load_snapshot,
    restore_items,
    write_snapshot,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


class TestIdCodec:
    @pytest.mark.parametrize(
        "item_id",
        [
            0,
            2**63,
            -5,
            "flow-a",
            "五",
            3.25,
            True,
            (7, 100),
            ("nested", (1, 2), "五"),
            (),
        ],
    )
    def test_roundtrip(self, item_id):
        back = decode_id(json.loads(json.dumps(encode_id(item_id))))
        assert back == item_id
        assert type(back) is type(item_id)

    @needs_numpy
    @pytest.mark.parametrize("dtype", ["uint64", "int64", "uint32"])
    def test_numpy_integer_ids_encode_as_int(self, dtype):
        """Array paths hand out NumPy integer ids; they checkpoint as
        the plain int they equal, including past 2**63 for uint64."""
        info = np.iinfo(dtype)
        for value in (0, 7, int(info.max)):
            item_id = np.dtype(dtype).type(value)
            back = decode_id(json.loads(json.dumps(encode_id(item_id))))
            assert back == value
            assert type(back) is int

    @needs_numpy
    def test_numpy_ids_survive_a_snapshot(self, tmp_path):
        retained = [(np.uint64(2**64 - 1), 9.0), (np.int64(-3), 4.0),
                    ((np.uint64(5), 6), 1.0)]
        state = build_state(
            backend_name="qmax", q=4, seq=1, retained=retained,
            evicted=[], evicted_dropped=0, counters={},
        )
        write_snapshot(str(tmp_path), state)
        back, _evicted, _dropped, _seq = restore_items(
            load_snapshot(str(tmp_path))
        )
        assert back == [(2**64 - 1, 9.0), (-3, 4.0), ((5, 6), 1.0)]

    def test_unsupported_type_is_typed_error(self):
        with pytest.raises(ServiceError):
            encode_id(object())

    def test_undecodable_blob_is_typed_error(self):
        with pytest.raises(ServiceError):
            decode_id({"mystery": 1})
        with pytest.raises(ServiceError):
            decode_id([1, 2])


class TestWriteLoad:
    def _state(self, retained, evicted=()):
        return build_state(
            backend_name="qmax", q=4, seq=3,
            retained=list(retained), evicted=list(evicted),
            evicted_dropped=0, counters={"records": len(retained)},
        )

    def test_roundtrip(self, tmp_path):
        retained = [(1, 10.0), ("f", 5.5), ((2, 3), 7.0)]
        evicted = [(9, 1.0)]
        write_snapshot(str(tmp_path), self._state(retained, evicted))
        doc = load_snapshot(str(tmp_path))
        got_retained, got_evicted, dropped, seq = restore_items(doc)
        assert got_retained == retained
        assert got_evicted == evicted
        assert (dropped, seq) == (0, 3)

    def test_atomic_no_tmp_left_behind(self, tmp_path):
        write_snapshot(str(tmp_path), self._state([(1, 1.0)]))
        write_snapshot(str(tmp_path), self._state([(2, 2.0)]))
        assert os.listdir(tmp_path) == [SNAPSHOT_FILE]
        (retained, _e, _d, _s) = restore_items(
            load_snapshot(str(tmp_path))
        )
        assert retained == [(2, 2.0)]

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path / "nowhere")) is None

    def test_corrupt_snapshot_is_typed_error(self, tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_text("{not json")
        with pytest.raises(ServiceError):
            load_snapshot(str(tmp_path))

    def test_wrong_format_is_typed_error(self, tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_text(
            json.dumps({"format": "something-else", "version": 1})
        )
        with pytest.raises(ServiceError):
            load_snapshot(str(tmp_path))

    def test_future_version_is_typed_error(self, tmp_path):
        state = self._state([(1, 1.0)])
        state["version"] = 999
        write_snapshot(str(tmp_path), state)
        with pytest.raises(ServiceError):
            load_snapshot(str(tmp_path))
