"""Checkpointing retained + evicted state to disk, atomically.

Format: one JSON document per directory (``snapshot.json``), written
to a temp file, fsync'd, and moved into place with ``os.replace`` — a
reader (or a recovering daemon) sees either the previous snapshot or
the new one, never a torn write.  JSON keeps snapshots debuggable
(``jq .seq snapshot.json``); ids that JSON cannot represent natively
(strings are fine; tuples like the wire-report ``(flow, packet_id)``
identity are not) ride a small tagged encoding, see :func:`encode_id`.

Recovery replays the retained set through ``add_many`` into a fresh
engine: the replayed structure retains the top-q of the snapshot's
retained set, which contains the stream's top-q as of snapshot time —
so no item that was in the answer before the crash is lost.  The
eviction log (when tracked) is carried forward verbatim, capped by
configuration; the cap drops oldest-first and is recorded in the
``evicted_dropped`` counter rather than silently.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.types import Item, ItemId

SNAPSHOT_FORMAT = "qmax-service-snapshot"
SNAPSHOT_VERSION = 1
SNAPSHOT_FILE = "snapshot.json"


# ----------------------------------------------------------------------
# Id codec: JSON-safe, round-trip-exact for the id types the engines
# accept (ints, strings, floats, and nested tuples thereof).  Other
# integer types, such as NumPy's, come back as the equal plain int.
# ----------------------------------------------------------------------

def encode_id(item_id: ItemId) -> Any:
    """Encode one item id into a JSON-representable value."""
    if type(item_id) is int:
        return item_id
    if type(item_id) is str:
        return {"s": item_id}
    if type(item_id) is float:
        return {"f": item_id}
    if type(item_id) is bool:
        return {"b": item_id}
    if type(item_id) is tuple:
        return {"t": [encode_id(part) for part in item_id]}
    if isinstance(item_id, numbers.Integral) and not isinstance(item_id, bool):
        # Integer ids from array paths (np.uint64, np.int64, ...) are
        # checkpointed as the plain int they equal.
        return int(item_id)
    raise ServiceError(
        f"cannot snapshot id of type {type(item_id).__name__}: "
        f"{item_id!r}"
    )


def decode_id(obj: Any) -> ItemId:
    """Inverse of :func:`encode_id`."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, dict) and len(obj) == 1:
        ((tag, value),) = obj.items()
        if tag == "s" and isinstance(value, str):
            return value
        if tag == "f" and isinstance(value, (int, float)):
            return float(value)
        if tag == "b" and isinstance(value, bool):
            return value
        if tag == "t" and isinstance(value, list):
            return tuple(decode_id(part) for part in value)
    raise ServiceError(f"undecodable snapshot id {obj!r}")


def _encode_items(items: List[Item]) -> List[List[Any]]:
    return [[encode_id(item_id), float(val)] for item_id, val in items]


def _decode_items(rows: Any) -> List[Item]:
    if not isinstance(rows, list):
        raise ServiceError("snapshot item list is not a list")
    out: List[Item] = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise ServiceError(f"malformed snapshot item {row!r}")
        out.append((decode_id(row[0]), float(row[1])))
    return out


# ----------------------------------------------------------------------
# Write / load.
# ----------------------------------------------------------------------

def build_state(
    backend_name: str,
    q: int,
    seq: int,
    retained: List[Item],
    evicted: List[Item],
    evicted_dropped: int,
    counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Assemble the snapshot document."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "seq": seq,
        "wall_time": time.time(),
        "backend": backend_name,
        "q": q,
        "retained": _encode_items(retained),
        "evicted": _encode_items(evicted),
        "evicted_dropped": evicted_dropped,
        "counters": counters,
    }


def write_snapshot(directory: str, state: Dict[str, Any]) -> str:
    """Write a snapshot document atomically; returns the final path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SNAPSHOT_FILE)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(directory: str) -> Optional[Dict[str, Any]]:
    """Load and validate the directory's snapshot.

    Returns ``None`` when no snapshot exists (a fresh start); raises
    :class:`~repro.errors.ServiceError` when one exists but cannot be
    trusted — recovery must not silently proceed from corrupt state.
    """
    path = os.path.join(directory, SNAPSHOT_FILE)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ServiceError(f"corrupt snapshot {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ServiceError(f"{path} is not a {SNAPSHOT_FORMAT} document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ServiceError(
            f"unsupported snapshot version {doc.get('version')!r} "
            f"in {path}"
        )
    return doc


def restore_items(
    doc: Dict[str, Any],
) -> Tuple[List[Item], List[Item], int, int]:
    """Extract (retained, evicted, evicted_dropped, seq) from a
    validated snapshot document."""
    retained = _decode_items(doc.get("retained", []))
    evicted = _decode_items(doc.get("evicted", []))
    dropped = doc.get("evicted_dropped", 0)
    seq = doc.get("seq", 0)
    if not isinstance(dropped, int) or not isinstance(seq, int):
        raise ServiceError("malformed snapshot counters")
    return retained, evicted, dropped, seq
