"""Write-ahead journal: crash-consistent durability for engine state.

The snapshot machinery (:mod:`repro.server.persistence`) makes restarts
cheap, but a snapshot alone bounds data loss only by the snapshot
interval: a power cut between snapshots silently rolls the server back
in time — the home forgets migrations while every hyperlink already
rewritten on disk still points at the co-ops.  This module closes that
window with the standard ARIES-style recipe:

- every state-mutating engine event (migrate, remigrate, revoke,
  replica repair and drop, pull-completed, regeneration commit,
  validation refresh, content update, GLT row) is appended to an
  append-only *journal* before the server acknowledges it;
- recovery is *snapshot + replay*: load the last checkpoint, then replay
  the journal tail past the checkpoint's LSN;
- *checkpointing* writes a fresh snapshot durably and truncates the
  journal, bounding both recovery time and journal growth.

Record framing is length-prefixed and CRC32-guarded::

    [u32 payload length][u32 CRC32(payload)][payload JSON bytes]

so a torn final record — the normal signature of a crash mid-append —
is detected, truncated, and tolerated, while a corrupt *interior*
record (bit rot, operator damage) stops replay at the last good prefix
rather than applying garbage.

Fsync policy (:attr:`WriteAheadJournal.fsync_policy`):

- ``"always"``   — every append is fsynced before returning, with
  *group commit*: concurrent appenders share one fsync instead of
  queueing one each, so the mutation path is not serialized on disk;
- ``"interval"`` — appends only buffer + flush; the host's periodic
  thread calls :meth:`maybe_sync` so data older than
  ``fsync_interval`` seconds is on disk (the default: bounded loss,
  near-zero hot-path cost);
- ``"off"``      — flush to the OS only (crash of the process loses
  nothing; power loss may lose the tail).

Every record carries the writing server's location and checkpoint
*epoch*; recovery refuses records from a different server and skips
records from a different epoch (a journal mispaired with a snapshot),
so a copied-around journal can never cross-contaminate an engine.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.server.filestore import fsync_directory

if TYPE_CHECKING:
    from repro.faults import FaultPlan

#: Journal record kinds (the engine's durable mutation vocabulary).
RECORD_KINDS = (
    "migrate", "remigrate", "revoke", "replica_drop", "repair",
    "pull", "hosted_dropped", "validate_refreshed",
    "content_update", "regenerate", "glt_row",
    "quarantine", "quarantine_cleared",
)

FSYNC_POLICIES = ("always", "interval", "off")

_HEADER = struct.Struct(">II")   # payload length, CRC32(payload)
_MAX_RECORD = 1 << 22            # 4 MiB: no engine event comes close


class WALError(ReproError):
    """The journal could not be written, read, or applied."""


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    lsn: int
    epoch: int
    location: str
    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JournalScan:
    """The result of reading a journal file back.

    ``valid_bytes`` is the length of the longest decodable prefix;
    ``torn_tail`` flags that trailing bytes past it looked like a record
    cut short mid-write (crash signature) rather than a clean end.
    """

    records: List[JournalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_tail: bool = False

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0


def _encode(record: JournalRecord) -> bytes:
    payload = json.dumps(
        {"lsn": record.lsn, "epoch": record.epoch, "loc": record.location,
         "t": record.time, "kind": record.kind, **record.fields},
        separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> JournalRecord:
    data = json.loads(payload.decode("utf-8"))
    known = {"lsn", "epoch", "loc", "t", "kind"}
    return JournalRecord(
        lsn=int(data["lsn"]), epoch=int(data.get("epoch", 0)),
        location=str(data.get("loc", "")), time=float(data.get("t", 0.0)),
        kind=str(data["kind"]),
        fields={k: v for k, v in data.items() if k not in known})


def scan_journal(path: str) -> JournalScan:
    """Decode every complete, checksummed record in *path*.

    Never raises on damaged content: decoding stops at the first record
    that is incomplete (torn tail) or fails its CRC, and the scan
    reports how many bytes were good.  A missing file is an empty scan.
    """
    scan = JournalScan()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return scan
    offset = 0
    while offset < len(data):
        header_end = offset + _HEADER.size
        if header_end > len(data):
            scan.torn_tail = True
            break
        length, checksum = _HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD:
            scan.torn_tail = True  # garbage length: treat as torn
            break
        payload_end = header_end + length
        if payload_end > len(data):
            scan.torn_tail = True
            break
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != checksum:
            scan.torn_tail = True
            break
        try:
            scan.records.append(_decode_payload(payload))
        except (ValueError, KeyError, TypeError):
            scan.torn_tail = True
            break
        offset = payload_end
        scan.valid_bytes = offset
    return scan


class WriteAheadJournal:
    """An append-only, CRC32-framed journal of engine mutations.

    Opening an existing journal scans it, truncates any torn tail, and
    continues LSNs where the last good record left off.  LSNs are never
    reused — checkpoint truncation empties the file but the counter
    keeps climbing, which is what lets recovery replay "the tail past
    the snapshot LSN" with a plain integer comparison.

    Thread-safe: appends serialize on an internal lock; fsyncs use
    group commit (see module docstring).
    """

    def __init__(self, path: str, *, location: str,
                 fsync_policy: str = "interval",
                 fsync_interval: float = 0.05,
                 epoch: int = 0,
                 start_lsn: int = 0,
                 faults: "Optional[FaultPlan]" = None) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise WALError(f"unknown fsync policy: {fsync_policy!r} "
                           f"(expected one of {FSYNC_POLICIES})")
        self.path = os.path.abspath(path)
        self.location = location
        self.fsync_policy = fsync_policy
        self.fsync_interval = fsync_interval
        self.faults = faults
        self._lock = threading.Lock()
        self._sync_cond = threading.Condition(threading.Lock())
        self._sync_running = False
        self._synced_lsn = 0
        self._last_sync_at = float("-inf")
        self.syncs = 0               # fsync calls actually issued
        self.appends = 0             # records appended this incarnation
        self.records_since_checkpoint = 0
        self.last_checkpoint_at: Optional[float] = None
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        scan = scan_journal(self.path)
        self.torn_tail_truncated = scan.torn_tail
        self._size = scan.valid_bytes
        self.epoch = max(epoch, max((r.epoch for r in scan.records),
                                    default=0))
        # ``start_lsn`` carries LSNs consumed before a checkpoint
        # truncated the file — without it an empty journal would restart
        # numbering at 1 and the snapshot's LSN filter would then
        # swallow every post-restart record at the *next* recovery.
        self._next_lsn = max(scan.last_lsn, start_lsn) + 1
        self._file = open(self.path, "ab")
        if scan.torn_tail or self._file.tell() != scan.valid_bytes:
            # Drop the torn tail (crash mid-append) before appending.
            self._file.truncate(scan.valid_bytes)
            self._file.seek(scan.valid_bytes)
        self.records_since_checkpoint = len(scan.records)
        self._synced_lsn = scan.last_lsn  # on disk already

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, kind: str, now: float, **fields: Any) -> int:
        """Durably record one mutation; returns its LSN.

        With ``fsync_policy="always"`` the record is on disk when this
        returns; otherwise durability is deferred to :meth:`maybe_sync`
        (interval) or the OS (off).
        """
        with self._lock:
            if self._file.closed:
                raise WALError(f"journal is closed: {self.path}")
            lsn = self._next_lsn
            record = JournalRecord(lsn=lsn, epoch=self.epoch,
                                   location=self.location, time=now,
                                   kind=kind, fields=dict(fields))
            frame = _encode(record)
            torn = None
            if self.faults is not None:
                torn = self.faults.check_disk_write(self.path)
            if torn is not None:
                # Injected power loss mid-append: a prefix of the frame
                # reaches the file — exactly the torn tail recovery
                # must truncate.
                from repro.faults import InjectedDiskError

                self._file.write(frame[:max(1, len(frame) // 2)])
                self._file.flush()
                raise InjectedDiskError(
                    f"injected torn journal write: {self.path}")
            self._next_lsn += 1
            self._file.write(frame)
            self._file.flush()
            self._size += len(frame)
            self.appends += 1
            self.records_since_checkpoint += 1
        if self.fsync_policy == "always":
            self._sync_to(lsn)
        return lsn

    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        with self._lock:
            target = self._next_lsn - 1
        if target > 0:
            self._sync_to(target)

    def maybe_sync(self, now: float) -> bool:
        """Interval policy: fsync if the last sync is older than
        ``fsync_interval``.  Cheap to call every host tick."""
        if self.fsync_policy != "interval":
            return False
        with self._lock:
            target = self._next_lsn - 1
            due = now - self._last_sync_at >= self.fsync_interval
        if not due or target <= self._synced_lsn:
            return False
        self._sync_to(target)
        self._last_sync_at = now
        return True

    def _sync_to(self, lsn: int) -> None:
        """Group commit: whoever arrives while a sync is running waits
        for it; one follower then syncs for the whole batch."""
        with self._sync_cond:
            while True:
                if self._synced_lsn >= lsn:
                    return
                if not self._sync_running:
                    self._sync_running = True
                    break
                self._sync_cond.wait(timeout=1.0)
        try:
            with self._lock:
                target = self._next_lsn - 1
                if not self._file.closed:
                    os.fsync(self._file.fileno())
                    self.syncs += 1
        finally:
            with self._sync_cond:
                self._sync_running = False
                self._synced_lsn = max(self._synced_lsn, target)
                self._sync_cond.notify_all()

    # ------------------------------------------------------------------
    # Checkpoint truncation
    # ------------------------------------------------------------------

    def start_epoch(self, epoch: int, now: float) -> None:
        """Checkpoint boundary: everything so far is safely in the
        snapshot — empty the journal and stamp subsequent records with
        the snapshot's *epoch*.  LSNs continue monotonically."""
        with self._lock:
            self._file.truncate(0)
            self._file.seek(0)
            self._file.flush()
            os.fsync(self._file.fileno())
            self.syncs += 1
            self._size = 0
            self.epoch = epoch
            self.records_since_checkpoint = 0
            self.last_checkpoint_at = now
        with self._sync_cond:
            self._synced_lsn = self._next_lsn - 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                try:
                    os.fsync(self._file.fileno())
                except OSError:
                    pass
                self._file.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def size_bytes(self) -> int:
        return self._size

    def describe(self) -> Dict[str, Any]:
        """Counters for the durability admin endpoint and sampling."""
        return {
            "path": self.path,
            "fsync_policy": self.fsync_policy,
            "epoch": self.epoch,
            "last_lsn": self.last_lsn,
            "size_bytes": self.size_bytes,
            "records_since_checkpoint": self.records_since_checkpoint,
            "appends": self.appends,
            "syncs": self.syncs,
            "torn_tail_truncated": self.torn_tail_truncated,
        }

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"WriteAheadJournal({self.path!r}, epoch={self.epoch}, "
                f"lsn={self.last_lsn}, {self.fsync_policy})")


def iter_tail(path: str, after_lsn: int) -> Iterator[JournalRecord]:
    """The journal records with ``lsn > after_lsn`` (replay order)."""
    for record in scan_journal(path).records:
        if record.lsn > after_lsn:
            yield record
