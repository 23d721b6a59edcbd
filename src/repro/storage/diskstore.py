"""A compact serialized tree store (secondary-storage flavor, [51]).

The paper's author's VLDB'03 system [51] evaluates node-selecting
queries on XML in *secondary storage*; the point reproduced here is the
data layout: the whole index of Section 2 — parent, post, subtree-end,
label ids — packs into flat integer arrays that serialize to a single
binary file and load back with ``array`` module block reads (no
per-node parsing).  All O(1) axis checks work directly on the loaded
arrays through the normal :class:`Tree` API.

Format (little-endian, version 1)::

    magic b"RTRE" | version u32 | n u32 | n_labels u32
    label table: n_labels length-prefixed UTF-8 strings
    parent: n × i64   (root = -1)
    label ids: n × u32
    children: CSR — offsets (n+1) × u32, then child ids (n-1) × u32

Multi-labeled nodes fall back to a JSON side table appended at the end
(rare in practice; absent for single-label trees).

**Crash safety.**  Since the resilience PR the on-disk file carries a
12-byte checksum trailer — ``b"RCRC"`` + CRC32(payload) + payload
length, little-endian — and :func:`dump_tree` writes atomically: the
bytes go to ``path + ".tmp"``, are fsynced, and land via
``os.replace``, so a crash (even ``kill -9``) between write and rename
leaves the *previous* version intact and loadable.  On load a present
trailer is verified and any mismatch raises a typed
:class:`~repro.errors.StorageError` naming the path and byte offset;
files written before the trailer existed still load (the parser has
always ignored trailing bytes, so the formats are mutually
compatible).  :func:`verify_store` checks a file without building the
tree — the ``repro store verify`` command.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from array import array

from repro.errors import ParseError, StorageError
from repro.faults import faultpoint, register_site
from repro.trees.tree import Children, Tree

__all__ = [
    "dump_tree",
    "load_tree",
    "dumps_tree",
    "loads_tree",
    "read_blob",
    "verify_store",
    "write_blob",
]

_MAGIC = b"RTRE"
_VERSION = 1

#: checksum trailer: magic + CRC32(payload) + len(payload), 12 bytes
_TRAILER_MAGIC = b"RCRC"
_TRAILER_LEN = 12

register_site("disk.read", "document bytes read from disk")
register_site("disk.write", "atomic store write (tmp + fsync + replace)")
register_site("disk.verify", "store checksum verification")


def _truncate_bytes(data: bytes, rng) -> bytes:
    """Corruption mutator for ``disk.read``: keep a seeded prefix."""
    if len(data) < 2:
        return b""
    return data[: rng.randrange(1, len(data))]


def _make_trailer(payload: bytes) -> bytes:
    return _TRAILER_MAGIC + struct.pack(
        "<II", zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )


def _check_trailer(
    data: bytes, path: "str | None" = None, strict: bool = False
) -> "tuple[bytes, bool]":
    """Detect and verify the checksum trailer; returns (payload, had_trailer).

    A well-formed trailer whose CRC disagrees with the payload raises a
    typed :class:`~repro.errors.StorageError` naming the path and the
    byte offset of the trailer.  Data without a trailer passes through
    untouched (files written before the trailer existed) unless
    ``strict`` — the write-side readback check, where a missing trailer
    means the write itself was mangled.  Verification is the
    ``disk.verify`` fault-injection site.
    """
    where = f" in tree store {path!r}" if path else ""
    if (
        len(data) >= _TRAILER_LEN
        and data[-_TRAILER_LEN:-8] == _TRAILER_MAGIC
    ):
        expected, length = struct.unpack("<II", data[-8:])
        if length == len(data) - _TRAILER_LEN:
            data = faultpoint("disk.verify", data, mutator=_truncate_bytes)
            payload = data[:-_TRAILER_LEN]
            actual = zlib.crc32(payload) & 0xFFFFFFFF
            if actual != expected:
                raise StorageError(
                    f"checksum mismatch{where}: CRC32 of {len(payload)} "
                    f"payload bytes is {actual:#010x} but the trailer at "
                    f"offset {len(data) - _TRAILER_LEN} says {expected:#010x}"
                )
            return payload, True
    if strict:
        raise StorageError(
            f"missing or malformed checksum trailer{where} "
            f"(expected {_TRAILER_MAGIC!r} at offset "
            f"{max(len(data) - _TRAILER_LEN, 0)})"
        )
    return data, False


def _read_exact(buf: io.BytesIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or fail with a typed error — a short
    read means the store was truncated or corrupted on disk."""
    data = buf.read(n)
    if len(data) != n:
        raise ParseError(
            f"truncated tree store: expected {n} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def dumps_tree(tree: Tree) -> bytes:
    """Serialize a tree to the compact binary format."""
    out = io.BytesIO()
    label_table: dict[str, int] = {}
    label_ids = array("I")
    for lab in tree.label:
        if lab not in label_table:
            label_table[lab] = len(label_table)
        label_ids.append(label_table[lab])
    out.write(_MAGIC)
    out.write(struct.pack("<III", _VERSION, tree.n, len(label_table)))
    for lab in label_table:  # dicts preserve insertion order
        encoded = lab.encode("utf-8")
        out.write(struct.pack("<I", len(encoded)))
        out.write(encoded)
    parent = array("q", tree.parent)
    out.write(parent.tobytes())
    out.write(label_ids.tobytes())
    # the Tree's own CSR pair: int32 and u32 agree on these non-negative ids
    out.write(tree.children.offsets.tobytes())
    out.write(tree.children.ids.tobytes())
    # extra labels side table (only when some node is multi-labeled)
    extras = {
        str(v): sorted(labs - {tree.label[v]})
        for v, labs in enumerate(tree.labels)
        if len(labs) > 1
    }
    blob = json.dumps(extras).encode("utf-8") if extras else b""
    out.write(struct.pack("<I", len(blob)))
    out.write(blob)
    payload = out.getvalue()
    return payload + _make_trailer(payload)


def loads_tree(data: bytes, path: "str | None" = None) -> Tree:
    """Deserialize the compact binary format back into a Tree.

    Any truncation or corruption surfaces as a typed
    :class:`~repro.errors.ParseError` (structure) or
    :class:`~repro.errors.StorageError` (checksum) — never a raw
    ``struct.error`` or an array size mismatch.  Data carrying the
    checksum trailer is verified first; trailer-less data (pre-trailer
    files) parses as before.
    """
    data, _ = _check_trailer(data, path)
    buf = io.BytesIO(data)
    if buf.read(4) != _MAGIC:
        raise ParseError("not a repro tree store (bad magic)")
    version, n, n_labels = struct.unpack("<III", _read_exact(buf, 12, "header"))
    if version != _VERSION:
        raise ParseError(f"unsupported tree store version {version}")
    table: list[str] = []
    try:
        for _ in range(n_labels):
            (length,) = struct.unpack(
                "<I", _read_exact(buf, 4, "label length")
            )
            table.append(_read_exact(buf, length, "label").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"corrupt tree store label table: {exc}") from exc
    parent = array("q")
    parent.frombytes(_read_exact(buf, 8 * n, "parent array"))
    label_ids = array("I")
    label_ids.frombytes(_read_exact(buf, 4 * n, "label ids"))
    offsets = array("I")
    offsets.frombytes(_read_exact(buf, 4 * (n + 1), "children offsets"))
    n_children = offsets[-1] if len(offsets) else 0
    child_ids = array("i")
    child_ids.frombytes(_read_exact(buf, 4 * n_children, "children ids"))
    (blob_len,) = struct.unpack("<I", _read_exact(buf, 4, "extras length"))
    try:
        extras = (
            json.loads(_read_exact(buf, blob_len, "extras")) if blob_len else {}
        )
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"corrupt tree store extras table: {exc}") from exc
    if any(label_id >= len(table) for label_id in label_ids):
        raise ParseError("corrupt tree store: label id out of range")

    primary = [table[i] for i in label_ids]
    labels = []
    for v in range(n):
        extra = extras.get(str(v))
        if extra:
            labels.append(frozenset([primary[v], *extra]))
        else:
            labels.append(frozenset((primary[v],)))
    return Tree(primary, labels, parent, Children(child_ids, offsets))


def dump_tree(tree: Tree, path: str) -> int:
    """Write the store file atomically; returns the byte size.

    The bytes (payload + checksum trailer) go to ``path + ".tmp"``,
    are flushed and fsynced, read back and checksum-verified, and only
    then moved into place with ``os.replace`` — so a crash at *any*
    point (even ``kill -9`` between write and rename) leaves either
    the previous version or the new one, never a torn file.  A write
    that comes back corrupted (the ``disk.write`` fault site chops the
    buffer) is caught by the readback check and raises a typed
    :class:`~repro.errors.StorageError` with the destination
    untouched.
    """
    data = dumps_tree(tree)
    blob = faultpoint("disk.write", data, mutator=_truncate_bytes)
    return _install_blob(blob, path)


def _install_blob(blob: bytes, path: str) -> int:
    """The atomic landing sequence shared by every trailered file the
    library writes (tree stores, corpus shard spills): write ``blob``
    (payload + trailer) to ``path + ".tmp"``, flush, fsync, read it
    back and verify the trailer, then ``os.replace`` into place.  A
    failure at any point leaves the previous version of ``path``
    intact and no temp litter (short of a hard kill mid-write, which
    the next attempt's ``os.replace`` of the same temp path repairs).
    """
    tmp = path + ".tmp"
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            with open(tmp, "rb") as fh:
                written = fh.read()
            _check_trailer(written, path, strict=True)
            os.replace(tmp, path)
        except OSError as exc:
            raise StorageError(
                f"cannot write tree store {path!r}: {exc}"
            ) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(blob)


def write_blob(path: str, payload: bytes) -> int:
    """Atomically persist an arbitrary byte payload with a CRC trailer.

    The corpus layer's primitive: shard spill files and any other
    small artifact that needs the tree store's crash-safety story
    (tmp + fsync + readback verify + ``os.replace``) without being a
    tree.  Returns the bytes written (payload + 12-byte trailer).
    """
    return _install_blob(payload + _make_trailer(payload), path)


def read_blob(path: str) -> bytes:
    """Read back a :func:`write_blob` file; returns the verified payload.

    A missing trailer, a checksum mismatch, or an I/O failure all
    surface as typed errors (:class:`~repro.errors.StorageError`)
    naming the path — a torn or tampered blob can never be mistaken
    for a short-but-valid one.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read blob {path!r}: {exc}") from exc
    payload, _ = _check_trailer(data, path, strict=True)
    return payload


def load_tree(path: str) -> Tree:
    """Load a store file written by :func:`dump_tree`.

    I/O failures surface as :class:`~repro.errors.StorageError` with the
    path in the message; corrupt content as
    :class:`~repro.errors.ParseError` (structure) or
    :class:`~repro.errors.StorageError` (checksum, with the offending
    offset).  The read is a ``disk.read`` fault-injection site and the
    checksum check a ``disk.verify`` one.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read tree store {path!r}: {exc}") from exc
    data = faultpoint("disk.read", data, mutator=_truncate_bytes)
    try:
        return loads_tree(data, path=path)
    except ParseError as exc:
        raise ParseError(f"tree store {path!r}: {exc}") from exc


def verify_store(path: str) -> dict:
    """Check a store file end to end without installing it anywhere.

    Verifies the checksum trailer (when present) and fully parses the
    payload; returns a summary dict.  ``checksum`` is ``"ok"`` for a
    verified trailer and ``"legacy"`` for a pre-trailer file that still
    parses.  Corruption raises the same typed errors as
    :func:`load_tree` — this is what ``repro store verify`` prints.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read tree store {path!r}: {exc}") from exc
    _, had_trailer = _check_trailer(data, path)
    try:
        tree = loads_tree(data, path=path)
    except ParseError as exc:
        raise ParseError(f"tree store {path!r}: {exc}") from exc
    return {
        "path": path,
        "bytes": len(data),
        "checksum": "ok" if had_trailer else "legacy",
        "nodes": tree.n,
        "labels": len(set(tree.label)),
    }
