"""Real-socket overload behaviour: the front-end's graceful 503 drop.

Connections here arrive through the accept-thread handoff
(:meth:`AsyncDCWSServer.adopt_connection`) and stall without sending a
byte, so admission control must count sockets it has only adopted, not
requests it has parsed.
"""

import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from tests.integration.accept_thread import AcceptThreadServer


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture()
def tiny_server():
    """Two connection slots: trivially overloadable."""
    loc = Location("127.0.0.1", free_port())
    config = ServerConfig(max_connections=2,
                          stats_interval=60.0, pinger_interval=60.0)
    engine = DCWSEngine(loc, config, MemoryStore(
        {"/a.html": b"<html>tiny</html>"}))
    server = AcceptThreadServer(engine, request_timeout=3.0,
                                tick_period=0.1)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def open_stalled_connection(port: int) -> socket.socket:
    """Connect but send nothing: holds a slot until its timeout."""
    connection = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    return connection


def test_queue_overflow_answers_503(tiny_server):
    port = tiny_server.port
    held = []
    try:
        # Two silent connections fill both slots; give the accept thread
        # time to hand each one to the loop.
        for __ in range(2):
            held.append(open_stalled_connection(port))
            time.sleep(0.2)
        # The third must be dropped gracefully with a 503 (section 5.2).
        extra = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        held.append(extra)
        data = extra.recv(65536)
        assert b"503" in data.split(b"\r\n")[0]
        assert b"Service Unavailable" in data
    finally:
        for connection in held:
            try:
                connection.close()
            except OSError:
                pass


def test_drop_recorded_in_metrics(tiny_server):
    port = tiny_server.port
    held = []
    try:
        for __ in range(3):
            held.append(open_stalled_connection(port))
            time.sleep(0.2)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            with tiny_server._lock:
                if tiny_server.engine.metrics.drops.lifetime_count >= 1:
                    return
            time.sleep(0.1)
        pytest.fail("drop was never recorded in the engine metrics")
    finally:
        for connection in held:
            try:
                connection.close()
            except OSError:
                pass
