"""Striped per-shard locks and seqlock-style shard version stamps.

Multi-core scale-out needs two things from the engine's concurrency
story that one big lock cannot give:

- **Striped locks** (:class:`StripedLock`): the PR 2 per-document
  regeneration guard kept one ``threading.Lock`` per *name* in an
  unbounded dict.  Generalized here: ``zlib.crc32(name) % n_stripes`` maps
  every document to one of a fixed set of locks, so unrelated documents
  in different stripes never contend while two writers of the *same*
  document still serialize — and the lock table stops growing with the
  corpus.
- **Shard version stamps** (:class:`ShardVersions`): a seqlock per
  stripe.  Writers bump the shard's counter to *odd* before mutating
  any state in the shard and to *even* after; a lock-free reader takes
  a stamp, reads, and re-checks the stamp — an odd stamp or a changed
  stamp means a writer was (or got) active and the reader must fall
  back to the locked slow path.  This is what lets a clean cached read
  skip the engine lock entirely while mutations (migrate / revoke /
  pull / regenerate / author update) stay exactly as serialized as
  before.

Shard assignment uses CRC-32 of the document name, *not* ``hash()``:
Python salts string hashes per process, and the multi-process front end
(:mod:`repro.server.multiproc`) needs every worker to agree on which
shard — and therefore which worker — owns a document.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from typing import Iterator, List

DEFAULT_STRIPES = 16


def shard_of(name: str, stripes: int) -> int:
    """The stripe *name* belongs to — stable across processes and runs."""
    if stripes <= 1:
        return 0
    return zlib.crc32(name.encode("utf-8", "surrogatepass")) % stripes


class StripedLock:
    """A fixed array of locks addressed by document name.

    Replaces the unbounded per-name lock dict: memory is O(stripes),
    and two documents contend only when they hash to the same stripe.
    ``acquire_all`` (ordered, deadlock-free) is available for the rare
    whole-table operations.
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.stripes = stripes
        self._locks: List[threading.Lock] = [
            threading.Lock() for __ in range(stripes)]

    def lock_for(self, name: str) -> threading.Lock:
        return self._locks[shard_of(name, self.stripes)]

    @contextmanager
    def holding(self, name: str) -> Iterator[None]:
        lock = self.lock_for(name)
        lock.acquire()
        try:
            yield
        finally:
            lock.release()

    @contextmanager
    def holding_all(self) -> Iterator[None]:
        """Every stripe, acquired in index order (deadlock-free)."""
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()


class ShardVersions:
    """Per-stripe seqlock counters for lock-free validated reads.

    Writers (which the engine already serializes under its host lock)
    call :meth:`write` around any mutation that could invalidate a
    cached read of names in that shard; the counter is odd for the
    duration.  Readers call :meth:`read` before and after their reads:

    - ``None`` (odd counter): a writer is mid-mutation — fall back;
    - a changed stamp: a writer completed in between — fall back;
    - an equal even stamp: the reads happened in a quiescent window.

    Counter loads and stores are single bytecode operations on a list
    cell, atomic under the GIL; no reader-side lock exists by design.
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.stripes = stripes
        self._versions: List[int] = [0] * stripes
        # Write-section nesting depth per shard.  Writers are serialized
        # by the engine lock, so only one thread ever touches this; it
        # exists because write sections nest (a migration-decision
        # callback bumps shards inside a bracketed decision round) and a
        # nested bump would flip the counter back to even mid-mutation.
        self._depth: List[int] = [0] * stripes

    def shard_of(self, name: str) -> int:
        return shard_of(name, self.stripes)

    def read(self, shard: int) -> "int | None":
        """Current stamp of *shard*; ``None`` while a writer is active."""
        version = self._versions[shard]
        return None if version & 1 else version

    def stamp(self, name: str) -> "int | None":
        return self.read(self.shard_of(name))

    def _enter(self, shards: "List[int]") -> None:
        for shard in shards:
            if self._depth[shard] == 0:
                self._versions[shard] += 1
            self._depth[shard] += 1

    def _exit(self, shards: "List[int]") -> None:
        for shard in shards:
            self._depth[shard] -= 1
            if self._depth[shard] == 0:
                self._versions[shard] += 1

    @contextmanager
    def write(self, *names: str) -> Iterator[None]:
        """Mark the shards of *names* write-active for the duration.

        Idempotent per shard (two names in one shard bump once) and
        re-entrant (a nested section leaves the counter odd until the
        outermost exit).  The caller must already hold the engine lock —
        this context manager publishes the mutation to lock-free
        readers, it does not provide mutual exclusion between writers.
        """
        shards = sorted({self.shard_of(name) for name in names})
        self._enter(shards)
        try:
            yield
        finally:
            self._exit(shards)

    @contextmanager
    def write_all(self) -> Iterator[None]:
        """Mark every shard write-active (whole-table mutations:
        migration decision rounds, dead-peer revocation sweeps)."""
        shards = list(range(self.stripes))
        self._enter(shards)
        try:
            yield
        finally:
            self._exit(shards)
