"""Request-read hardening: the server-side incremental request reader.

Each case drives a live :class:`AsyncDCWSServer` over a real socket, so
the bytes pass through the loop's nonblocking reads and its per-connection
:class:`~repro.http.wire.RequestParser` exactly as a client's would.
"""

import socket

import pytest

from repro.client.realclient import read_framed_response
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import HTTPError
from repro.http.messages import parse_request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

SITE = {
    "/x.html": b"<html>x</html>",
    "/a.html": b"<html>a</html>",
    "/b.html": b"<html>b</html>",
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(scope="module")
def server():
    engine = DCWSEngine(Location("127.0.0.1", free_port()),
                        ServerConfig(stats_interval=60.0,
                                     pinger_interval=60.0),
                        MemoryStore(SITE))
    with AsyncDCWSServer(engine, tick_period=0.1) as running:
        assert running.wait_ready()
        yield running


@pytest.fixture()
def pair(server):
    """(client socket, running server)."""
    client = socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0)
    try:
        yield client, server
    finally:
        client.close()


def read_response(client, buffer=None):
    return read_framed_response(
        client, bytearray() if buffer is None else buffer)[0]


def test_reads_single_request(pair):
    client, __ = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\nHost: h\r\n\r\n")
    response = read_response(client)
    assert response.status == 200
    assert response.body == SITE["/x.html"]


def test_reads_body_by_content_length(pair):
    client, __ = pair
    client.sendall(b"POST /x.html HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                   b"GET /b.html HTTP/1.1\r\n\r\n")
    buffer = bytearray()
    first = read_response(client, buffer)
    assert first.status != 400  # the body was framed, not misparsed
    # Bytes past the frame stay buffered and parse as the next request.
    second = read_response(client, buffer)
    assert second.status == 200
    assert second.body == SITE["/b.html"]


def test_pipelined_requests_served_in_turn(pair):
    client, __ = pair
    client.sendall(b"GET /a.html HTTP/1.1\r\n\r\nGET /b.html HTTP/1.1\r\n\r\n")
    buffer = bytearray()
    assert read_response(client, buffer).body == SITE["/a.html"]
    assert read_response(client, buffer).body == SITE["/b.html"]
    assert not buffer


def test_clean_eof_between_requests_returns_none(pair):
    client, __ = pair
    client.shutdown(socket.SHUT_WR)
    # Nothing was asked, so nothing is answered: the server just closes.
    assert client.recv(65536) == b""


def test_eof_mid_head_raises(pair):
    client, __ = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\nHost:")
    client.shutdown(socket.SHUT_WR)
    assert read_response(client).status == 400


def test_truncated_body_raises_instead_of_short_request(pair):
    """Regression: a peer closing mid-body must not yield a silently
    truncated request; it is rejected as malformed."""
    client, __ = pair
    client.sendall(b"POST /x.html HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
                   b"partial")
    client.shutdown(socket.SHUT_WR)
    assert read_response(client).status == 400


def test_module_level_read_request_wrapper(pair):
    """The module-level parse the reader frames each head with."""
    assert parse_request(b"GET / HTTP/1.0\r\n\r\n").target == "/"
    with pytest.raises(HTTPError):
        parse_request(b"GET / HTTP/1.0\r\n")  # head never terminated
    # The same request served over the socket.
    client, __ = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\n\r\n")
    assert read_response(client).status == 200
