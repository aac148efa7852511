"""Point-in-time snapshots of the full engine state, with integrity checking.

Snapshot file layout (also used for the live state file):

    magic "RBAK" | format version byte (1) | four length-prefixed sections
    | 32-byte SHA-256 digest

Sections, in order: directory bundle XML, runtime JSON (capture metadata,
assignment timestamps, transaction counters), audit JSON, anomaly JSON.
Lengths are big-endian u64.  The digest covers the payload bytes exactly
(everything between the version byte and the digest), so any single flipped
payload bit is detected.

Writes go to a temp file with a unique name (``tempfile.mkstemp``, mode
0600) in the same directory, which is fsynced and renamed into place; a crash
at any point leaves either the old file or the new one, never a partial, and
two writers never write into one temp file.  The catalog is the directory
listing itself: one ``snap-<id>.rbak`` file per snapshot, ids strictly
increasing.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
import threading
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .directory import DirectoryState, RbacError
from .migration import export_bundle, import_bundle
from .restriction import AnomalyEvent, AuditRecord, TransactionCounter, iso8601, join_fields

MAGIC = b"RBAK"
FILE_VERSION = 1
_HEADER = len(MAGIC) + 1  # magic and version byte
_DIGEST_SIZE = hashlib.sha256().digest_size
_SNAP_RE = re.compile(r"snap-([0-9]+)\.rbak")


class UnknownSnapshot(RbacError):
    code = "unknown-snapshot"


class ChecksumMismatch(RbacError):
    code = "checksum-mismatch"


class IoFailure(RbacError):
    code = "io-failure"


class StorageFull(RbacError):
    code = "storage-full"


@dataclass(frozen=True)
class EngineCut:
    """A consistent point-in-time capture of everything the engine holds."""

    state: DirectoryState
    counters: tuple[TransactionCounter, ...]
    audit: tuple[AuditRecord, ...]
    anomalies: tuple[AnomalyEvent, ...]
    captured_at: int
    reason: str = ""


@dataclass(frozen=True)
class SnapshotEntry:
    """One snapshot in the catalog (id 0 for the live state file)."""

    id: int
    created_at: int
    checksum: str
    size_bytes: int
    verified: Optional[bool] = None  # None when verification was not requested

    def line(self) -> str:
        """The ``snapshot=`` value and the ``snapshot list`` CLI line."""
        status = "-" if self.verified is None else ("ok" if self.verified else "corrupt")
        return join_fields(
            str(self.id), iso8601(self.created_at), self.checksum, str(self.size_bytes), status
        )


def _wrap_os_error(exc: OSError) -> RbacError:
    if exc.errno == errno.ENOSPC:
        return StorageFull(str(exc))
    return IoFailure(str(exc))


# How each runtime record is stored in JSON: (JSON key, dataclass field,
# conversion applied on decode or None), in the dataclass's field order,
# because decode passes the values positionally.
_COUNTER_FIELDS = (
    ("policy", "policy_id", None),
    ("principal", "principal", None),
    ("window-start", "window_start", int),
    ("count", "count", int),
)
_AUDIT_FIELDS = (
    ("at", "at", int),
    ("request-id", "request_id", None),
    ("subject", "subject", None),
    ("resource", "resource", None),
    ("action", "action", None),
    ("effect", "effect", None),
    ("reason", "reason", None),
    ("matched-role", "matched_role", None),
)
_ANOMALY_FIELDS = (
    ("at", "at", int),
    ("policy", "policy", None),
    ("principal", "principal", None),
    ("observed", "observed", int),
    ("limit", "limit", int),
    ("request-id", "request_id", None),
)


def _to_json(record, fields) -> dict:
    return {key: getattr(record, name) for key, name, _ in fields}


def _from_json(cls, fields, raw: dict):
    return cls(*[conv(raw[key]) if conv else raw[key] for key, _, conv in fields])


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_cut(cut: EngineCut) -> bytes:
    """Serialize a cut to snapshot bytes (deterministic for equal cuts)."""
    xml = export_bundle(cut.state)
    runtime = _dumps(
        {
            "captured-at": cut.captured_at,
            "reason": cut.reason,
            "assignment-times": sorted(
                [u, r, t] for (u, r), t in cut.state.assignments.items()
            ),
            "counters": sorted(
                (_to_json(c, _COUNTER_FIELDS) for c in cut.counters),
                key=lambda c: (c["policy"], c["principal"]),
            ),
        }
    )
    audit = _dumps([_to_json(r, _AUDIT_FIELDS) for r in cut.audit])
    anomalies = _dumps([_to_json(e, _ANOMALY_FIELDS) for e in cut.anomalies])

    payload = b"".join(
        len(section).to_bytes(8, "big") + section
        for section in (xml, runtime, audit, anomalies)
    )
    digest = hashlib.sha256(payload).digest()
    return MAGIC + bytes([FILE_VERSION]) + payload + digest


def payload_span(blob: bytes) -> tuple[int, int]:
    """Byte range [start, end) of the checksummed payload within a snapshot."""
    return _HEADER, len(blob) - _DIGEST_SIZE


def _split_sections(payload: bytes, count: int) -> tuple[list[bytes], int]:
    """The first ``count`` length-prefixed sections and the offset after them."""
    sections: list[bytes] = []
    offset = 0
    for _ in range(count):
        if offset + 8 > len(payload):
            raise ChecksumMismatch("truncated section table")
        length = int.from_bytes(payload[offset : offset + 8], "big")
        offset += 8
        if offset + length > len(payload):
            raise ChecksumMismatch("section extends past payload")
        sections.append(payload[offset : offset + length])
        offset += length
    return sections, offset


def decode_cut(blob: bytes) -> EngineCut:
    """Parse and integrity-check snapshot bytes back into a cut."""
    if len(blob) < _HEADER + _DIGEST_SIZE or blob[: len(MAGIC)] != MAGIC:
        raise ChecksumMismatch("not a snapshot file or truncated header")
    if blob[len(MAGIC)] != FILE_VERSION:
        raise ChecksumMismatch(f"unsupported snapshot file version {blob[len(MAGIC)]}")
    payload, stored = blob[_HEADER:-_DIGEST_SIZE], blob[-_DIGEST_SIZE:]
    if hashlib.sha256(payload).digest() != stored:
        raise ChecksumMismatch("payload digest does not match stored digest")
    sections, end = _split_sections(payload, 4)
    if end != len(payload):
        raise ChecksumMismatch("trailing bytes after sections")

    xml, runtime_raw, audit_raw, anomalies_raw = sections
    runtime = json.loads(runtime_raw)
    state = import_bundle(xml, now=0)
    times = {(u, r): int(t) for u, r, t in runtime.get("assignment-times", [])}
    if set(times) != set(state.assignments):
        raise ChecksumMismatch("assignment times do not cover bundle memberships")
    return EngineCut(
        state=replace(state, assignments=times),
        counters=tuple(
            _from_json(TransactionCounter, _COUNTER_FIELDS, c)
            for c in runtime.get("counters", [])
        ),
        audit=tuple(_from_json(AuditRecord, _AUDIT_FIELDS, r) for r in json.loads(audit_raw)),
        anomalies=tuple(
            _from_json(AnomalyEvent, _ANOMALY_FIELDS, e) for e in json.loads(anomalies_raw)
        ),
        captured_at=int(runtime.get("captured-at", 0)),
        reason=runtime.get("reason", ""),
    )


def _entry(
    snapshot_id: int, created_at: int, blob: bytes, verified: Optional[bool] = None
) -> SnapshotEntry:
    """Catalog metadata for snapshot bytes; the checksum is the digest they store."""
    checksum = blob[-_DIGEST_SIZE:].hex() if len(blob) >= _HEADER + _DIGEST_SIZE else ""
    return SnapshotEntry(snapshot_id, created_at, checksum, len(blob), verified)


def write_state_file(path: Path, cut: EngineCut) -> SnapshotEntry:
    """Atomically write a cut to ``path`` (temp file + fsync + rename)."""
    blob = encode_cut(cut)
    path = Path(path)
    tmp: Optional[str] = None  # unique per writer, so concurrent writers never share it
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="." + path.name + ".", suffix=".tmp", dir=path.parent)
        with open(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        raise _wrap_os_error(exc) from exc
    return _entry(0, cut.captured_at, blob)


def read_state_file(path: Path) -> EngineCut:
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise _wrap_os_error(exc) from exc
    return decode_cut(blob)


class SnapshotStore:
    """Catalog of snapshot files in one directory.

    There is no separate index: the set of ``snap-<id>.rbak`` files is the
    catalog, so there is nothing extra to corrupt.  Partial writes are
    invisible (they live under a temp name until the atomic rename).
    """

    def __init__(self, directory: Path, keep_last: int = 10) -> None:
        self.directory = Path(directory)
        self.keep_last = keep_last
        self._lock = threading.Lock()

    def path_for(self, snapshot_id: int) -> Path:
        return self.directory / f"snap-{snapshot_id}.rbak"

    def ids(self) -> list[int]:
        if not self.directory.is_dir():
            return []
        found = []
        for name in os.listdir(self.directory):
            m = _SNAP_RE.fullmatch(name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def latest_id(self) -> Optional[int]:
        ids = self.ids()
        return ids[-1] if ids else None

    def save(self, cut: EngineCut) -> SnapshotEntry:
        """Durably write a new snapshot; prune old ones after success."""
        with self._lock:
            existing = self.ids()  # write_state_file creates the directory
            snapshot_id = (existing[-1] + 1) if existing else 1
            meta = replace(write_state_file(self.path_for(snapshot_id), cut), id=snapshot_id)
            if self.keep_last:
                for old_id in self.ids()[: -self.keep_last] or []:
                    try:
                        self.path_for(old_id).unlink(missing_ok=True)
                    except OSError:
                        pass  # retention is best-effort, never blocks the new snapshot
            return meta

    def load(self, snapshot_id: int) -> EngineCut:
        return self.load_with_meta(snapshot_id)[0]

    def load_with_meta(self, snapshot_id: int) -> tuple[EngineCut, SnapshotEntry]:
        """The verified cut and its catalog metadata, both from one read.

        Retention may prune the file right after the read; the metadata does
        not depend on it still being there.
        """
        path = self.path_for(snapshot_id)
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            raise UnknownSnapshot(str(snapshot_id)) from None
        except OSError as exc:
            raise _wrap_os_error(exc) from exc
        cut = decode_cut(blob)
        return cut, _entry(snapshot_id, cut.captured_at, blob)

    def list_entries(self, verify: bool = False) -> list[SnapshotEntry]:
        """Catalog entries in id order; checksums re-verified only on request."""
        entries = []
        for snapshot_id in self.ids():
            path = self.path_for(snapshot_id)
            try:
                blob = path.read_bytes()
            except OSError as exc:
                raise _wrap_os_error(exc) from exc
            verified: Optional[bool] = None
            if verify:
                try:
                    decode_cut(blob)
                    verified = True
                except RbacError:
                    verified = False
            entries.append(_entry(snapshot_id, _peek_created_at(blob), blob, verified))
        return entries


def _peek_created_at(blob: bytes) -> int:
    """Best-effort capture time, read without digest verification (0 if unreadable)."""
    try:
        runtime = _split_sections(blob[_HEADER:-_DIGEST_SIZE], 2)[0][1]
        return int(json.loads(runtime).get("captured-at", 0))
    except (ChecksumMismatch, ValueError):
        return 0
