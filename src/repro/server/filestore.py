"""Document stores: where a server keeps document bytes.

The home server's documents and the co-op server's lazily-pulled copies
both live in a :class:`DocumentStore`.  Two implementations:

- :class:`MemoryStore` — a dict; used by the simulator and unit tests;
- :class:`DiskStore` — files under a root directory; used by the real
  socket server, matching the prototype (documents "directly related to
  the name of the file on the server's local disk", section 3.3).

Document names are absolute URL paths (``/dir/foo.html``).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import DocumentNotFound
from repro.faults import InjectedDiskError, apply_corruption
from repro.http.urls import split_path

if TYPE_CHECKING:
    from repro.faults import FaultPlan

_CONTENT_TYPES: Dict[str, str] = {
    ".html": "text/html",
    ".htm": "text/html",
    ".txt": "text/plain",
    ".gif": "image/gif",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".png": "image/png",
    ".css": "text/css",
    ".js": "application/javascript",
    ".xml": "text/xml",
}

DEFAULT_CONTENT_TYPE = "application/octet-stream"


def guess_content_type(name: str) -> str:
    """Content type by file extension, the way the 1998 prototype did."""
    __, ext = os.path.splitext(name.lower())
    return _CONTENT_TYPES.get(ext, DEFAULT_CONTENT_TYPE)


def fsync_directory(path: str) -> None:
    """fsync a directory so a rename inside it is durable.

    A crash after ``os.replace`` but before the directory entry reaches
    disk can resurrect the old file; syncing the parent closes that
    window.  Platforms whose directories cannot be opened or synced
    (Windows) are skipped — rename durability is best-effort there.
    """
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


class DocumentStore(ABC):
    """Byte storage addressed by absolute document path."""

    @abstractmethod
    def get(self, name: str) -> bytes:
        """Return the bytes of *name*; raise DocumentNotFound if absent."""

    @abstractmethod
    def put(self, name: str, data: bytes) -> None:
        """Create or overwrite *name*."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove *name* if present (idempotent)."""

    @abstractmethod
    def names(self) -> List[str]:
        """Every stored document path, sorted."""

    def __contains__(self, name: object) -> bool:
        # Fallback for exotic stores only; MemoryStore and DiskStore both
        # override with O(1) membership instead of a full listing walk.
        if not isinstance(name, str):
            return False
        return any(name == candidate for candidate in self.names())

    def size(self, name: str) -> int:
        return len(self.get(name))

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for name in self.names():
            yield name, self.get(name)


class MemoryStore(DocumentStore):
    """In-memory store; the default for simulation and tests."""

    def __init__(self, initial: Dict[str, bytes] = None) -> None:
        self._data: Dict[str, bytes] = dict(initial or {})

    def get(self, name: str) -> bytes:
        try:
            return self._data[name]
        except KeyError:
            raise DocumentNotFound(name) from None

    def put(self, name: str, data: bytes) -> None:
        if not name.startswith("/"):
            raise DocumentNotFound(f"store names are absolute paths: {name!r}")
        self._data[name] = bytes(data)

    def delete(self, name: str) -> None:
        self._data.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._data)

    def __contains__(self, name: object) -> bool:
        return name in self._data

    def size(self, name: str) -> int:
        try:
            return len(self._data[name])
        except KeyError:
            raise DocumentNotFound(name) from None

    def total_bytes(self) -> int:
        return sum(len(d) for d in self._data.values())


class DiskStore(DocumentStore):
    """Files under *root*; path segments map to directories.

    Path traversal is rejected: every stored name must resolve inside
    *root*.  The ``~migrate`` marker segment is encoded as ``_migrate_`` on
    disk so co-op copies can be cached without creating odd file names.

    Writes are *crash-atomic*: :meth:`put` writes to a temporary file in
    the target directory, fsyncs it, renames it over the destination with
    ``os.replace`` and fsyncs the parent directory — a crash at any point
    leaves either the complete old bytes or the complete new bytes,
    never a truncated document.  Temporary files (suffix ``.tmp``) are
    invisible to :meth:`names`, so an interrupted put cannot masquerade
    as a document after restart.  ``fsync=False`` trades that durability
    for speed (benchmarks, throwaway stores).
    """

    _MARKER_DIR = "_migrate_"
    _TMP_SUFFIX = ".tmp"

    def __init__(self, root: str, *,
                 faults: "Optional[FaultPlan]" = None,
                 fsync: bool = True) -> None:
        self.root = os.path.abspath(root)
        # Deterministic disk-read fault injection (chaos suite); an
        # injected OSError degrades to DocumentNotFound exactly like a
        # genuinely unreadable file.
        self.faults = faults
        self.fsync = fsync
        os.makedirs(self.root, exist_ok=True)

    def _fs_path(self, name: str) -> str:
        segments = split_path(name)
        if any(segment == ".." for segment in segments):
            raise DocumentNotFound(name)
        segments = [self._MARKER_DIR if s == "~migrate" else s for s in segments]
        path = os.path.join(self.root, *segments)
        if not os.path.abspath(path).startswith(self.root + os.sep):
            raise DocumentNotFound(name)
        return path

    def get(self, name: str) -> bytes:
        path = self._fs_path(name)
        corrupt = None
        try:
            if self.faults is not None:
                corrupt = self.faults.on_disk_read(name)
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            raise DocumentNotFound(name) from None
        if corrupt is not None:
            # Injected bit-rot: the read "succeeds" with silently flipped
            # bytes — exactly what scrubbing and digest checks must catch.
            data = apply_corruption(corrupt, data)
        return data

    def put(self, name: str, data: bytes) -> None:
        path = self._fs_path(name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        torn = None
        if self.faults is not None:
            torn = self.faults.check_disk_write(name)
        temp_path = (f"{path}.{os.getpid()}.{id(data) & 0xffff:x}"
                     f"{self._TMP_SUFFIX}")
        handle = open(temp_path, "wb")
        try:
            if torn is not None:
                # Injected power loss mid-write: a prefix reaches the
                # temp file, the rename never happens, the old document
                # (if any) stays complete.
                handle.write(data[:max(1, len(data) // 2)])
                handle.flush()
                raise InjectedDiskError(
                    f"injected torn write: {name}")
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(temp_path, path)
        if self.fsync:
            fsync_directory(directory)

    def delete(self, name: str) -> None:
        try:
            os.remove(self._fs_path(name))
        except OSError:
            pass

    def names(self) -> List[str]:
        found: List[str] = []
        for dirpath, __, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(self._TMP_SUFFIX):
                    continue  # interrupted put; never a document
                full = os.path.join(dirpath, filename)
                relative = os.path.relpath(full, self.root)
                segments = relative.split(os.sep)
                segments = ["~migrate" if s == self._MARKER_DIR else s
                            for s in segments]
                found.append("/" + "/".join(segments))
        return sorted(found)

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._fs_path(name))
        except OSError:
            raise DocumentNotFound(name) from None

    def __contains__(self, name: object) -> bool:
        """Direct membership probe — one ``stat``, no directory walk."""
        if not isinstance(name, str):
            return False
        try:
            return os.path.isfile(self._fs_path(name))
        except DocumentNotFound:
            return False
