"""Single-threaded, nonblocking HTTP/1.1 load generator core.

Standard library only: nothing here imports the server under test, so
no change to the server can change the load it receives.

- :class:`ResponseReader` frames responses (``Content-Length``,
  pipelining, ``Connection: close``) from bytes received into a reusable
  buffer; body bytes are streamed into a digest or counted, never
  accumulated unless the caller asks for the body.
- :class:`Slot` is one keep-alive connection to one server.  Requests
  are pipelined; when the server ends the connection (its
  ``Keep-Alive: max=N``), unanswered requests move to a fresh connection.
- :class:`Loop` is the open-loop scheduler and selector loop driving
  every slot and any extra pipes (the author-update channel).
"""

from __future__ import annotations

import collections
import errno
import hashlib
import heapq
import itertools
import os
import re
import selectors
import socket
import time
import zlib
from typing import Callable, Deque, Dict, List, Optional, Tuple

_HEAD_STEP = 2048          # header bytes copied per scan; bodies never are
_MAX_HEAD = 64 * 1024
_RECV_BYTES = 256 * 1024
_REQUEST_TIMEOUT = 10.0    # seconds unanswered before a request fails
_KEEP_ALIVE_MAX = re.compile(rb"max\s*=\s*(\d+)", re.I)


class FramingError(Exception):
    """The byte stream is not a well-formed HTTP/1.1 response."""


class Reply:
    """One response: status, lowercased headers, and what the body sink
    produced (length always; identity-body sha256 and the identity body
    itself only when asked for)."""

    __slots__ = ("status", "headers", "length", "received", "hasher",
                 "inflater", "body")

    def __init__(self, status: int, headers: Dict[str, str],
                 length: int) -> None:
        self.status = status
        self.headers = headers
        self.length = length
        self.received = 0
        self.hasher = None
        self.inflater = None
        self.body: Optional[bytearray] = None

    @property
    def close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def sink(self, *, digest: bool, keep: bool) -> None:
        """Choose what the body feeds: a sha256 of the identity bytes
        (gunzipped when the response is gzip-encoded) and/or a copy."""
        if digest:
            self.hasher = hashlib.sha256()
        if keep:
            self.body = bytearray()
        if (digest or keep) and \
                self.headers.get("content-encoding", "") == "gzip":
            self.inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)

    def add(self, chunk: memoryview) -> None:
        self.received += len(chunk)
        if self.hasher is None and self.body is None:
            return
        data = chunk if self.inflater is None \
            else self.inflater.decompress(chunk)
        if self.hasher is not None:
            self.hasher.update(data)
        if self.body is not None:
            self.body += data

    def finish(self) -> None:
        if self.inflater is not None:
            tail = self.inflater.flush()
            if self.hasher is not None:
                self.hasher.update(tail)
            if self.body is not None:
                self.body += tail
            if not self.inflater.eof:
                raise FramingError("truncated gzip body")

    def digest(self) -> Optional[str]:
        return None if self.hasher is None else self.hasher.hexdigest()


def parse_head(head: bytes) -> Reply:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise FramingError(f"bad status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise FramingError(f"bad status {parts[1]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise FramingError(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding"):
        raise FramingError("transfer-encoding is not supported")
    try:
        length = int(headers["content-length"])
    except (KeyError, ValueError):
        raise FramingError("response without a valid Content-Length") \
            from None
    return Reply(status, headers, length)


class ResponseReader:
    """Incremental response framing for one connection.

    ``on_head(reply)`` runs as soon as a head is parsed, so the caller can
    set the body sink before any body byte arrives.
    """

    def __init__(self, on_head: Callable[[Reply], None]) -> None:
        self._on_head = on_head
        self._head = bytearray()
        self._reply: Optional[Reply] = None

    @property
    def idle(self) -> bool:
        return self._reply is None and not self._head

    def feed(self, buf: bytearray, end: int) -> List[Reply]:
        """Consume ``buf[:end]``; return every reply completed by it."""
        done: List[Reply] = []
        view = memoryview(buf)
        pos = 0
        try:
            while pos < end:
                if self._reply is None:
                    pos = self._scan_head(buf, pos, end)
                    if self._reply is None:
                        continue
                    if self._reply.length == 0:
                        done.append(self._complete())
                    continue
                reply = self._reply
                take = min(reply.length - reply.received, end - pos)
                reply.add(view[pos:pos + take])
                pos += take
                if reply.received == reply.length:
                    done.append(self._complete())
        finally:
            view.release()
        return done

    def _scan_head(self, buf: bytearray, pos: int, end: int) -> int:
        old = len(self._head)
        step = min(end, pos + _HEAD_STEP)
        self._head += buf[pos:step]
        cut = self._head.find(b"\r\n\r\n", max(0, old - 3))
        if cut < 0:
            if len(self._head) > _MAX_HEAD:
                raise FramingError("response head too large")
            return step
        consumed = cut + 4 - old
        head = bytes(self._head[:cut])
        self._head.clear()
        self._reply = parse_head(head)
        self._on_head(self._reply)
        return pos + consumed

    def _complete(self) -> Reply:
        reply = self._reply
        self._reply = None
        reply.finish()
        return reply


def keep_alive_max(reply: Reply) -> Optional[int]:
    match = _KEEP_ALIVE_MAX.search(reply.headers.get("keep-alive", "")
                                   .encode("latin-1"))
    return int(match.group(1)) if match else None


class Req:
    """One request in flight.  ``owner.on_reply(req, reply)`` or
    ``owner.on_fail(req, reason)`` is called exactly once."""

    __slots__ = ("server", "path", "gzip", "digest", "keep", "owner",
                 "sent", "tag")

    def __init__(self, server: int, path: str, owner, *, gzip: bool = False,
                 digest: bool = True, keep: bool = False,
                 tag: object = None) -> None:
        self.server = server
        self.path = path
        self.gzip = gzip
        self.digest = digest
        self.keep = keep
        self.owner = owner
        self.sent = 0.0
        self.tag = tag


def tcp_connect(address: Tuple[str, int]) -> socket.socket:
    """A nonblocking TCP connection, possibly still in progress."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    err = sock.connect_ex(address)
    if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
        sock.close()
        raise OSError(err, os.strerror(err))
    return sock


class Slot:
    """One keep-alive connection to one server, reopened on demand."""

    def __init__(self, loop: "Loop", server: int) -> None:
        self.loop = loop
        self.server = server
        self.sock: Optional[socket.socket] = None
        self.connected = False
        self.reader: Optional[ResponseReader] = None
        self.inflight: Deque[Req] = collections.deque()
        self.pending: Deque[Req] = collections.deque()
        self.out = bytearray()
        self.sent_on_conn = 0
        self.max_per_conn: Optional[int] = None
        self.heads = 0           # heads parsed, replies not yet dispatched

    # -- sending --------------------------------------------------------

    def submit(self, req: Req) -> None:
        self.pending.append(req)
        self._drain_pending()

    def _drain_pending(self) -> None:
        if self.sock is None:
            if self.pending:
                self._open()
            return
        if not self.connected:
            return
        host = self.loop.host_header[self.server]
        extra = self.loop.extra_header
        now = time.monotonic()
        while self.pending and (self.max_per_conn is None
                                or self.sent_on_conn < self.max_per_conn):
            req = self.pending.popleft()
            head = f"GET {req.path} HTTP/1.1\r\nHost: {host}\r\n"
            if req.gzip:
                head += "Accept-Encoding: gzip\r\n"
            if extra:
                head += f"{extra}: {next(self.loop.ids)}\r\n"
            self.out += (head + "\r\n").encode("latin-1")
            req.sent = now
            self.inflight.append(req)
            self.sent_on_conn += 1
        self.flush()

    def flush(self) -> None:
        if self.sock is None or not self.connected or not self.out:
            return
        try:
            sent = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self._broken(f"send: {exc.__class__.__name__}")
            return
        del self.out[:sent]
        self._interest()

    # -- connection lifecycle --------------------------------------------

    def _open(self) -> None:
        self.reader = ResponseReader(self._on_head)
        self.heads = 0
        self.connected = False
        self.sent_on_conn = 0
        self.loop.connections_opened += 1
        try:
            self.sock = self.loop.connect(self.loop.addresses[self.server])
        except OSError as exc:
            self._refused(f"connect: {exc}")
            return
        self.loop.selector.register(self.sock, selectors.EVENT_WRITE, self)

    def _refused(self, reason: str) -> None:
        """No connection to be had: everything queued here fails."""
        self._close_socket()
        failed = list(self.inflight) + list(self.pending)
        self.inflight.clear()
        self.pending.clear()
        for req in failed:
            req.owner.on_fail(req, reason)

    def _close_socket(self) -> None:
        if self.sock is None:
            return
        try:
            self.loop.selector.unregister(self.sock)
        except (KeyError, ValueError):
            pass
        self.sock.close()
        self.sock = None
        self.connected = False
        self.out.clear()

    def _broken(self, reason: str) -> None:
        """Transport failure: every unanswered request fails."""
        self._close_socket()
        failed = list(self.inflight)
        self.inflight.clear()
        for req in failed:
            req.owner.on_fail(req, reason)
        if self.pending:
            self._open()

    def _recycle(self) -> None:
        """The server ended the connection cleanly: resend what it did
        not answer on a new connection, first in line."""
        self._close_socket()
        self.pending.extendleft(reversed(self.inflight))
        self.inflight.clear()
        if self.pending:
            self._open()

    def _interest(self) -> None:
        if self.sock is None:
            return
        events = selectors.EVENT_READ
        if self.out or not self.connected:
            events |= selectors.EVENT_WRITE
        self.loop.selector.modify(self.sock, events, self)

    # -- events -----------------------------------------------------------

    def on_event(self, mask: int) -> None:
        if not self.connected and mask & selectors.EVENT_WRITE:
            err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self._refused(f"connect: {os.strerror(err)}")
                return
            self.connected = True
            self._interest()
            self._drain_pending()
            return
        if mask & selectors.EVENT_WRITE:
            self.flush()
        if self.sock is not None and mask & selectors.EVENT_READ:
            self._read()

    def _read(self) -> None:
        buf = self.loop.recv_buffer
        try:
            count = self.sock.recv_into(buf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._broken(f"recv: {exc.__class__.__name__}")
            return
        if count == 0:
            if self.inflight or not self.reader.idle:
                self._broken("connection closed mid-response")
            else:
                self._recycle()    # idle keep-alive timeout
            return
        try:
            replies = self.reader.feed(buf, count)
        except (FramingError, zlib.error) as exc:
            self._broken(f"framing: {exc}")
            return
        for reply in replies:
            self._dispatch(reply)

    def _on_head(self, reply: Reply) -> None:
        # One recv can hold several responses; each is dispatched only
        # after feed() returns, so this head answers the request behind
        # every head parsed but not yet dispatched.
        if self.heads >= len(self.inflight):
            raise FramingError("response without a request")
        req = self.inflight[self.heads]
        self.heads += 1
        # Error bodies are kept (they are short) to name the failure.
        reply.sink(digest=req.digest and reply.status == 200,
                   keep=req.keep and reply.status == 200
                   or reply.status >= 400)

    def _dispatch(self, reply: Reply) -> None:
        req = self.inflight.popleft()
        self.heads -= 1
        if self.max_per_conn is None:
            self.max_per_conn = keep_alive_max(reply)
        self.loop.responses += 1
        if reply.close:
            self._recycle()
        elif self.max_per_conn is not None \
                and self.sent_on_conn < self.max_per_conn:
            self._drain_pending()
        req.owner.on_reply(req, reply)

    def oldest_sent(self) -> Optional[float]:
        return self.inflight[0].sent if self.inflight else None

    def expire(self, reason: str) -> None:
        self._broken(reason)

    def close(self) -> None:
        self._close_socket()


class Loop:
    """Open-loop scheduler plus the selector loop.

    ``at(due, fn)`` schedules ``fn(due)``; lateness (how far past its due
    time each scheduled action ran) is recorded for the generator's own
    validity check.
    """

    def __init__(self, addresses: List[Tuple[str, int]], *,
                 conns_per_server: List[int],
                 connect: Callable[[Tuple[str, int]], socket.socket]
                 = tcp_connect) -> None:
        self.addresses = addresses
        self.connect = connect      # tests substitute canned byte streams
        self.host_header = [f"{h}:{p}" for h, p in addresses]
        # select(2) takes microsecond timeouts; epoll rounds up to a
        # millisecond, which would add ~0.5 ms of lateness to every send.
        self.selector = selectors.SelectSelector()
        self.recv_buffer = bytearray(_RECV_BYTES)
        self.extra_header = ""      # a header name stamped with a request id
        self.ids = itertools.count(1)
        self.slots: List[List[Slot]] = [
            [Slot(self, index) for _ in range(count)]
            for index, count in enumerate(conns_per_server)]
        self._rr = [0] * len(addresses)
        self._heap: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self.lateness: List[float] = []
        self.connections_opened = 0
        self.responses = 0

    def at(self, due: float, fn: Callable[[float], None]) -> None:
        heapq.heappush(self._heap, (due, next(self._seq), fn))

    def submit(self, req: Req) -> None:
        slots = self.slots[req.server]
        index = self._rr[req.server]
        self._rr[req.server] = (index + 1) % len(slots)
        slots[index].submit(req)

    def watch(self, fileobj, callback: Callable[[], None]) -> None:
        self.selector.register(fileobj, selectors.EVENT_READ, callback)

    def run_until(self, deadline: float,
                  stop: Callable[[], bool] = lambda: False) -> None:
        next_expiry = 0.0
        while True:
            now = time.monotonic()
            heap = self._heap
            while heap and heap[0][0] <= now:
                due, _, fn = heapq.heappop(heap)
                self.lateness.append(now - due)
                fn(due)
            if now >= deadline or stop():
                return
            if now >= next_expiry:
                self._expire(now)
                next_expiry = now + 0.5
            timeout = deadline - now
            if heap:
                timeout = min(timeout, heap[0][0] - now)
            for key, mask in self.selector.select(max(0.0, min(timeout,
                                                               0.05))):
                target = key.data
                if isinstance(target, Slot):
                    target.on_event(mask)
                else:
                    target()

    def _expire(self, now: float) -> None:
        for slots in self.slots:
            for slot in slots:
                sent = slot.oldest_sent()
                if sent is not None and now - sent > _REQUEST_TIMEOUT:
                    slot.expire("timeout")

    def close(self) -> None:
        for slots in self.slots:
            for slot in slots:
                slot.close()
        self.selector.close()
