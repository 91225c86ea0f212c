"""A small blocking HTTP client over real sockets.

Used by the DCWS socket server for server-to-server transfers (lazy
migration pulls, validations, pings) and by the real-transport walker.
By default each call opens one connection, HTTP/1.0 style, exactly like
the 1998 prototype's inter-server sessions; pass a
:class:`repro.client.pool.ConnectionPool` to reuse persistent per-peer
channels instead.
"""

from __future__ import annotations

import socket
import time
import zlib
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.document import Location
from repro.core.naming import (
    REPLICAS_HEADER,
    decode_migrated_path,
    is_migrated_path,
)
from repro.errors import HTTPError, NamingError
from repro.faults import apply_corruption
from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.http.content import DIGEST_HEADER, digest_matches, gunzip_bytes
from repro.http.messages import Request, Response, parse_response
from repro.http.urls import URL, parse_url
from repro.client.walker import FetchOutcome

if TYPE_CHECKING:
    from repro.client.cache import ValidatorCache
    from repro.client.pool import ConnectionPool
    from repro.faults import FaultPlan

_RECV_CHUNK = 65536
_MAX_RESPONSE = 64 * 1024 * 1024

# Responses that never carry a body, regardless of Content-Length (which,
# when present, describes the entity the body *would* have been).
_BODYLESS_STATUSES = (204, 304)

# Requester-side replica failure memory: authorities whose transport
# recently refused/reset, remembered briefly so the replica chooser and
# the home fallback route around them instead of re-timing-out on every
# request (DistCache-style client-side failover).
_REPLICA_FAILURE_TTL = 5.0
_replica_failures: Dict[str, float] = {}


def _note_replica_failure(authority: str) -> None:
    _replica_failures[authority] = time.monotonic()


def _replica_recently_failed(authority: str) -> bool:
    failed_at = _replica_failures.get(authority)
    if failed_at is None:
        return False
    if time.monotonic() - failed_at > _REPLICA_FAILURE_TTL:
        del _replica_failures[authority]
        return False
    return True


def reset_replica_failures() -> None:
    """Forget the failure memory (test isolation)."""
    _replica_failures.clear()


def _home_fallback(url: URL) -> Optional[URL]:
    """The home-server URL a migrated-form *url* encodes, if any.

    Pull-through naming means the home always holds the permanent copy,
    so a requester that cannot reach a co-op can re-derive the home URL
    from the path alone — no second lookup, no out-of-band state.
    """
    try:
        home, original = decode_migrated_path(url.path)
    except NamingError:
        return None
    if f"{home.host}:{home.port}" == url.authority:
        return None
    return parse_url(f"http://{home.host}:{home.port}{original}")


def _choose_replica(url: URL, header: str) -> URL:
    """Apply two-choices with failure memory to an advertised replica set.

    The home's redirect already made a load-weighted pick; keep it
    unless its authority recently failed at the transport level, in
    which case reroute to a digest-spread sibling that has not.
    """
    candidates = [a.strip() for a in header.split(",") if a.strip()]
    if len(candidates) < 2 or not is_migrated_path(url.path):
        return url
    if url.authority in candidates and \
            not _replica_recently_failed(url.authority):
        return url
    digest = zlib.crc32(url.request_target.encode("latin-1", "replace"))
    order = [candidates[digest % len(candidates)],
             candidates[(digest >> 16) % len(candidates)]]
    for authority in order + candidates:
        if authority != url.authority and \
                not _replica_recently_failed(authority):
            return parse_url(f"http://{authority}{url.request_target}")
    return url


def http_fetch(peer: Location, request: Request, *,
               timeout: float = 10.0,
               pool: "Optional[ConnectionPool]" = None,
               faults: "Optional[FaultPlan]" = None) -> Response:
    """Send *request* to *peer* and read the complete response.

    With a *pool*, the exchange rides a persistent per-peer channel
    (opened on demand, reused across calls) and the pool's own fault
    plan applies; *faults* covers the unpooled one-shot path.  Raises
    :class:`repro.errors.HTTPError` (or ``OSError``) on transport or
    framing problems; callers treat those as peer failure.
    """
    if pool is not None:
        return pool.fetch(peer, request, timeout=timeout)
    key = f"{peer.host}:{peer.port}"
    if faults is not None:
        faults.on_connect(key)
    corrupt = None
    with socket.create_connection((peer.host, peer.port), timeout=timeout) as sock:
        if faults is not None:
            corrupt = faults.on_exchange(key)
        sock.sendall(request.serialize())
        response, __ = read_framed_response(
            sock, bytearray(), head_request=request.method == "HEAD")
    if corrupt is not None:
        # A seeded ``corrupt`` event is silent by contract: the flipped
        # byte flows onward and only digest verification can notice.
        response.body = apply_corruption(corrupt, response.body)
    return response


def read_framed_response(sock: socket.socket, buffer: bytearray, *,
                         head_request: bool = False) -> Tuple[Response, bool]:
    """Read one complete response off *sock*, honouring framing.

    *buffer* holds bytes already read from the connection (a persistent
    channel's leftover); on return it holds any bytes past this response.
    Returns ``(response, framed)`` where *framed* is True when the body was
    delimited by Content-Length (or was necessarily empty) — i.e. the
    connection is still usable — and False when the body was read to EOF
    (HTTP/1.0 close-delimited).

    Raises :class:`HTTPError` when the peer closes before the head or the
    promised body completes, instead of silently returning a truncation.
    """
    head_end = buffer.find(b"\r\n\r\n")
    while head_end < 0:
        if not _recv_into(sock, buffer):
            raise HTTPError("connection closed before response head completed")
        head_end = buffer.find(b"\r\n\r\n")
    response = parse_response(bytes(buffer[:head_end + 4]))
    expected = None
    if head_request or response.status in _BODYLESS_STATUSES:
        expected = 0
    else:
        expected = response.headers.get_int("content-length")
    if expected is None:
        # No Content-Length: read to EOF (HTTP/1.0 close-delimited).
        while _recv_into(sock, buffer):
            pass
        response.body = bytes(buffer[head_end + 4:])
        del buffer[:]
        return response, False
    needed = head_end + 4 + expected
    if needed > _MAX_RESPONSE:
        raise HTTPError("response exceeds size limit")
    while len(buffer) < needed:
        if not _recv_into(sock, buffer):
            raise HTTPError("connection closed before response body completed")
    response.body = bytes(buffer[head_end + 4:needed])
    del buffer[:needed]
    return response, True


def _recv_into(sock: socket.socket, buffer: bytearray) -> bool:
    """One recv; False on EOF.  Enforces the response size limit."""
    chunk = sock.recv(_RECV_CHUNK)
    if not chunk:
        return False
    buffer.extend(chunk)
    if len(buffer) > _MAX_RESPONSE:
        raise HTTPError("response exceeds size limit")
    return True


def fetch_url(url: URL, *, timeout: float = 10.0,
              max_redirects: int = 5,
              pool: "Optional[ConnectionPool]" = None,
              validators: "Optional[ValidatorCache]" = None,
              accept_gzip: bool = False) -> FetchOutcome:
    """Fetch *url* as a browser would: follow redirects, parse HTML links.

    With a *validators* cache the request carries ``If-None-Match`` /
    ``If-Modified-Since`` for previously seen URLs, and a 304 answer is
    satisfied from the cached entry (zero entity bytes on the wire).
    With ``accept_gzip`` the request advertises ``Accept-Encoding: gzip``
    and a compressed body is transparently decoded before link parsing —
    ``wire_size`` reports the compressed transfer, ``size`` the entity.

    This is the ``fetch`` callable handed to
    :class:`repro.client.walker.RandomWalker` for real-transport runs.
    """
    redirected = False
    fell_back = False
    current = url
    followed = 0
    while True:
        request = Request(method="GET", target=current.request_target)
        request.headers.set("Host", current.authority)
        if accept_gzip:
            request.headers.set("Accept-Encoding", "gzip")
        cached = validators.entry(str(current)) if validators is not None \
            else None
        if cached is not None:
            if cached.etag:
                request.headers.set("If-None-Match", cached.etag)
            if cached.last_modified:
                request.headers.set("If-Modified-Since", cached.last_modified)
            validators.revalidations += 1
        try:
            response = http_fetch(Location(current.host, current.port),
                                  request, timeout=timeout, pool=pool)
        except (OSError, HTTPError):
            _note_replica_failure(current.authority)
            if not fell_back and followed < max_redirects:
                # A dead co-op is not a dead document: the migrated path
                # encodes the home, which always holds the permanent
                # copy — retry there once before giving up.
                fallback = _home_fallback(current)
                if fallback is not None:
                    current = fallback
                    fell_back = True
                    redirected = True
                    followed += 1
                    continue
            return FetchOutcome(status=599, redirected=redirected,
                                replica_fallback=fell_back)
        if response.status == 304 and cached is not None:
            validators.not_modified += 1
            return FetchOutcome(status=304, size=cached.size,
                                links=list(cached.links),
                                images=list(cached.images),
                                redirected=redirected,
                                not_modified=True, wire_size=0,
                                replica_fallback=fell_back)
        if response.status in (301, 302):
            location = response.headers.get("Location")
            if not location or followed >= max_redirects:
                # Out of follows (or nowhere to go): report the redirect
                # itself, the way max_redirects=0 callers expect.
                return FetchOutcome(status=response.status,
                                    size=len(response.body),
                                    redirected=redirected,
                                    replica_fallback=fell_back)
            from repro.http.urls import join_url

            current = join_url(current, location)
            replicas = response.headers.get(REPLICAS_HEADER, "") or ""
            if replicas:
                rerouted = _choose_replica(current, replicas)
                if rerouted is not current:
                    fell_back = fell_back or \
                        rerouted.authority != current.authority
                    current = rerouted
            redirected = True
            followed += 1
            continue
        wire_size = len(response.body)
        declared = response.headers.get_int("content-length")
        if declared is not None and declared != wire_size \
                and response.status not in _BODYLESS_STATUSES:
            # The framing layer raises on close-before-complete, but a
            # buggy or lying server can still hand over fewer (or more)
            # bytes than Content-Length promised.  Never accept such a
            # document silently: report it for WalkerStats accounting.
            return FetchOutcome(status=response.status, size=wire_size,
                                redirected=redirected, wire_size=wire_size,
                                replica_fallback=fell_back, short_body=True)
        encoding = (response.headers.get("Content-Encoding", "") or "").lower()
        if encoding == "gzip" and response.body:
            try:
                response.body = gunzip_bytes(response.body)
            except (OSError, ValueError):
                # Framing was intact but the compressed stream does not
                # decode — the payload was damaged in transit or storage.
                return FetchOutcome(status=response.status,
                                    redirected=redirected,
                                    wire_size=wire_size,
                                    replica_fallback=fell_back,
                                    corrupt_body=True)
            response.headers.remove("Content-Encoding")
        claimed = response.headers.get(DIGEST_HEADER, "") or ""
        if claimed and response.status == 200 \
                and not response.headers.get("Content-Range") \
                and not digest_matches(response.body, claimed):
            # The digest covers the identity body, so this check runs
            # after gzip decode; a mismatch means the entity the server
            # authored is not the entity we received.
            return FetchOutcome(status=response.status,
                                size=len(response.body),
                                redirected=redirected, wire_size=wire_size,
                                replica_fallback=fell_back,
                                corrupt_body=True)
        links, images = _split_links(response)
        if validators is not None and response.ok:
            validators.store(
                str(current),
                etag=response.headers.get("ETag", "") or "",
                last_modified=response.headers.get("Last-Modified", "") or "",
                size=len(response.body), links=links, images=images)
        return FetchOutcome(status=response.status, size=len(response.body),
                            links=links, images=images, redirected=redirected,
                            wire_size=wire_size, replica_fallback=fell_back)


def browser_fetch(*, timeout: float = 10.0,
                  pool: "Optional[ConnectionPool]" = None):
    """A ``fetch`` callable for :class:`RandomWalker` that behaves like
    a real browser: one validator cache for the walker's lifetime (so
    repeat visits revalidate with 304s) and gzip accepted.  The cache is
    exposed as ``fetch.validators`` for assertions and stats.
    """
    from repro.client.cache import ValidatorCache

    validators = ValidatorCache()

    def fetch(url: URL) -> FetchOutcome:
        return fetch_url(url, timeout=timeout, pool=pool,
                         validators=validators, accept_gzip=True)

    fetch.validators = validators
    return fetch


def _split_links(response: Response) -> "tuple[List[str], List[str]]":
    content_type = response.headers.get("Content-Type", "") or ""
    if not content_type.startswith("text/html") or not response.body:
        return [], []
    document = parse_html(response.body.decode("latin-1", "replace"))
    links: List[str] = []
    images: List[str] = []
    for link in extract_links(document):
        if link.embedded:
            images.append(link.value)
        elif link.tag == "a":
            links.append(link.value)
    return links, images


def head_ok(peer: Location, *, timeout: float = 3.0) -> bool:
    """Cheap liveness probe used by examples and tests.

    Targets ``/~dcws/health``, which the engine answers before any
    accounting — probing never inflates hit counters or load metrics.
    """
    request = Request(method="HEAD", target="/~dcws/health")
    try:
        response = http_fetch(peer, request, timeout=timeout)
    except (OSError, HTTPError):
        return False
    return response.status < 500
