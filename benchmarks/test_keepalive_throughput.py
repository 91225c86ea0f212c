"""Localhost throughput: persistent connections vs one-shot fetches.

Measures requests/second against a real AsyncDCWSServer on loopback
two ways: a fresh TCP connection per request (the pre-keep-alive socket
path) and a pooled persistent channel (the server-to-server path).  The
persistent path must win — it skips a connect/teardown per request —
and the pool's open counter must stay far below the request count.
"""

import socket
import time

from repro.client.pool import ConnectionPool
from repro.client.realclient import http_fetch
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

REQUESTS = 300
DOC = b"<html>" + b"x" * 2048 + b"</html>"


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_keepalive_beats_one_shot(report):
    loc = Location("127.0.0.1", free_port())
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
    engine = DCWSEngine(loc, config, MemoryStore({"/doc.html": DOC}))
    peer = Location("127.0.0.1", loc.port)

    with AsyncDCWSServer(engine) as server:
        assert server.wait_ready()

        def fetch_once():
            request = Request(method="GET", target="/doc.html")
            return http_fetch(peer, request, timeout=10.0)

        # Warm-up so neither mode pays first-request costs.
        for __ in range(10):
            assert fetch_once().status == 200

        start = time.perf_counter()
        for __ in range(REQUESTS):
            assert fetch_once().status == 200
        oneshot_elapsed = time.perf_counter() - start

        with ConnectionPool(timeout=10.0) as pool:
            request = Request(method="GET", target="/doc.html")
            for __ in range(10):
                assert pool.fetch(peer, request).status == 200
            start = time.perf_counter()
            for __ in range(REQUESTS):
                assert pool.fetch(peer, request).status == 200
            pooled_elapsed = time.perf_counter() - start
            opens, reuses = pool.opens, pool.reuses

    oneshot_rps = REQUESTS / oneshot_elapsed
    pooled_rps = REQUESTS / pooled_elapsed
    report("keepalive_throughput", "\n".join([
        f"localhost throughput, {REQUESTS} GETs of a {len(DOC)}-byte document",
        f"  one-shot (connection per request): {oneshot_rps:9.1f} req/s",
        f"  pooled keep-alive channel:         {pooled_rps:9.1f} req/s",
        f"  speedup: {pooled_rps / oneshot_rps:.2f}x   "
        f"pool opens={opens} reuses={reuses}",
    ]))

    assert pooled_rps > oneshot_rps
    assert opens < REQUESTS // 10
