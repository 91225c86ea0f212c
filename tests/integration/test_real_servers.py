"""End-to-end tests over real sockets.

Two DCWS servers run on loopback ports; a real HTTP client exercises
serving, migration, redirection, lazy pulls, piggybacking and the
periodic machinery — the same flows the simulator models, on actual TCP
connections.  The whole suite is parametrized over the two ways a
connection reaches the event loop — its own accept path and a dedicated
accept thread handing sockets over (see ``accept_thread``) — which must
be behaviourally identical: same engine, same protocol code, same answers.
"""

import socket
import time

import pytest

from repro.client.cache import ValidatorCache
from repro.client.realclient import (browser_fetch, fetch_url, head_ok,
                                     http_fetch)
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.http.urls import URL
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from tests.integration.accept_thread import AcceptThreadServer

FRONT_ENDS = {"threaded": AcceptThreadServer, "aio": AsyncDCWSServer}

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><img src="i.gif"></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 500,
    "/big.html": b"<html>" + b"<p>lorem ipsum dolor</p>" * 64 + b"</html>",
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(params=sorted(FRONT_ENDS))
def pair(request):
    """A running (home, coop) server pair on loopback, per accept path."""
    server_cls = FRONT_ENDS[request.param]
    home_loc = Location("127.0.0.1", free_port())
    coop_loc = Location("127.0.0.1", free_port())
    config = ServerConfig(stats_interval=0.5, pinger_interval=0.5,
                          validation_interval=2.0,
                          migration_hit_threshold=1.0)
    home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                             entry_points=["/index.html"], peers=[coop_loc])
    coop_engine = DCWSEngine(coop_loc, config, MemoryStore(),
                             peers=[home_loc])
    home = server_cls(home_engine, tick_period=0.1)
    coop = server_cls(coop_engine, tick_period=0.1)
    home.start()
    coop.start()
    try:
        yield home, coop
    finally:
        home.stop()
        coop.stop()


def url_of(server, path: str) -> URL:
    return URL("127.0.0.1", server.port, path)


class TestBasicServing:
    def test_serves_document(self, pair):
        home, __ = pair
        outcome = fetch_url(url_of(home, "/d.html"))
        assert outcome.status == 200
        assert outcome.links == ["e.html"]

    def test_404(self, pair):
        home, __ = pair
        assert fetch_url(url_of(home, "/ghost.html")).status == 404

    def test_head_probe(self, pair):
        home, __ = pair
        assert head_ok(Location("127.0.0.1", home.port))

    def test_bad_request_handled(self, pair):
        home, __ = pair
        with socket.create_connection(("127.0.0.1", home.port),
                                      timeout=5) as raw:
            raw.sendall(b"NOT-HTTP\r\n\r\n")
            data = raw.recv(65536)
        assert b"400" in data.split(b"\r\n")[0]

    def test_concurrent_fetches(self, pair):
        import threading

        home, __ = pair
        results = []

        def fetch_many():
            for __ in range(10):
                results.append(fetch_url(url_of(home, "/d.html")).status)

        threads = [threading.Thread(target=fetch_many) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results.count(200) == 40


class TestMigrationOverSockets:
    def test_redirect_and_lazy_pull(self, pair):
        home, coop = pair
        home_loc = home.engine.location
        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())
        # Old URL now redirects...
        request = Request(method="GET", target="/d.html")
        response = http_fetch(home_loc, request)
        assert response.status == 301
        location = response.headers.get("Location")
        assert "~migrate" in location
        # ...and following it makes the co-op pull from home, over TCP.
        outcome = fetch_url(url_of(home, "/d.html"))
        assert outcome.status == 200
        assert outcome.redirected
        key = f"/~migrate/127.0.0.1/{home.port}/d.html"
        assert coop.engine.hosted[key].fetched

    def test_dirty_referrer_served_with_rewritten_links(self, pair):
        home, coop = pair
        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())
        outcome = fetch_url(url_of(home, "/index.html"))
        assert outcome.status == 200
        assert any("~migrate" in link for link in outcome.links)

    def test_organic_migration_under_load(self, pair):
        home, coop = pair
        deadline = time.time() + 10.0
        migrated = False
        while time.time() < deadline and not migrated:
            for __ in range(25):
                fetch_url(url_of(home, "/d.html"))
                fetch_url(url_of(home, "/i.gif"))
            with home._lock:
                migrated = bool(home.engine.graph.migrated_documents())
        assert migrated, "no migration happened within the deadline"


class TestPeriodicMachinery:
    def test_pinger_spreads_load_information(self, pair):
        home, coop = pair
        deadline = time.time() + 5.0
        while time.time() < deadline:
            with coop._lock:
                row = coop.engine.glt.get(home.engine.location)
                if row is not None and row.timestamp > float("-inf"):
                    return
            time.sleep(0.1)
        pytest.fail("pinger never spread load information")

    def test_validation_refreshes_changed_content(self, pair):
        home, coop = pair
        with home._lock:
            home.engine.policy.force_migrate(
                "/e.html", coop.engine.location, time.monotonic())
        # Pull the document to the co-op.
        outcome = fetch_url(url_of(home, "/e.html"))
        assert outcome.status == 200
        with home._lock:
            home.engine.update_document("/e.html", b"<html>edited</html>")
        key = f"/~migrate/127.0.0.1/{home.port}/e.html"
        deadline = time.time() + 8.0
        while time.time() < deadline:
            with coop._lock:
                try:
                    if coop.engine.store.get(key) == b"<html>edited</html>":
                        return
                except Exception:
                    pass
            time.sleep(0.2)
        pytest.fail("validation never refreshed the co-op copy")


class TestConditionalGetOverSockets:
    def test_validator_cache_revalidates(self, pair):
        home, __ = pair
        validators = ValidatorCache()
        url = url_of(home, "/d.html")
        first = fetch_url(url, validators=validators)
        assert first.status == 200
        second = fetch_url(url, validators=validators)
        assert second.not_modified
        assert second.ok
        assert second.status == 304
        assert second.wire_size == 0
        # The cached entry preserves what the walker needs to keep going.
        assert second.links == first.links
        assert validators.not_modified == 1

    def test_walker_revalidates_like_a_browser(self, pair):
        from repro.client.walker import RandomWalker

        home, __ = pair
        fetch = browser_fetch()
        walker = RandomWalker(
            [f"http://127.0.0.1:{home.port}/index.html"], fetch,
            seed=7, sleep=lambda __: None)
        walker.run(sequences=4)
        assert walker.stats.not_modified > 0
        assert fetch.validators.not_modified == walker.stats.not_modified
        # Revalidated fetches move head bytes only: the wire total is
        # strictly below the entity total.
        assert walker.stats.bytes_received < walker.stats.entity_bytes

    def test_update_breaks_validator(self, pair):
        home, __ = pair
        validators = ValidatorCache()
        url = url_of(home, "/e.html")
        assert fetch_url(url, validators=validators).status == 200
        with home._lock:
            home.engine.update_document("/e.html", b"<html>edited</html>")
        outcome = fetch_url(url, validators=validators)
        assert outcome.status == 200
        assert not outcome.not_modified


class TestGzipOverSockets:
    def test_gzip_reduces_wire_bytes(self, pair):
        home, __ = pair
        outcome = fetch_url(url_of(home, "/big.html"), accept_gzip=True)
        assert outcome.status == 200
        assert outcome.size == len(SITE["/big.html"])
        assert outcome.wire_size < outcome.size

    def test_identity_without_accept_encoding(self, pair):
        home, __ = pair
        outcome = fetch_url(url_of(home, "/big.html"))
        assert outcome.status == 200
        assert outcome.wire_size == outcome.size == len(SITE["/big.html"])


class TestRangeOverSockets:
    def test_206_slice(self, pair):
        home, __ = pair
        request = Request(method="GET", target="/big.html")
        request.headers.set("Range", "bytes=0-9")
        response = http_fetch(home.engine.location, request)
        assert response.status == 206
        assert response.body == SITE["/big.html"][:10]
        assert response.headers.get("Content-Range") == \
            f"bytes 0-9/{len(SITE['/big.html'])}"

    def test_416_past_end(self, pair):
        home, __ = pair
        request = Request(method="GET", target="/e.html")
        request.headers.set("Range", "bytes=99999-")
        response = http_fetch(home.engine.location, request)
        assert response.status == 416
        assert response.headers.get("Content-Range") == \
            f"bytes */{len(SITE['/e.html'])}"


class TestFramingRecoveryOverSockets:
    """The Content-Length framing bugfix, observed from the wire."""

    def test_negative_length_answers_400_then_keeps_serving(self, pair):
        home, __ = pair
        wire = (b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: -20\r\n\r\n"
                b"GET /e.html HTTP/1.1\r\nHost: h\r\n\r\n")
        with socket.create_connection(("127.0.0.1", home.port),
                                      timeout=5) as raw:
            raw.sendall(wire)
            raw.settimeout(5)
            data = b""
            deadline = time.time() + 5.0
            while b"<html>leaf</html>" not in data and \
                    time.time() < deadline:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                data += chunk
        # First answer is the 400; the pipelined request behind the
        # malformed one is framed correctly and served.
        assert b"400" in data.split(b"\r\n")[0]
        assert b"<html>leaf</html>" in data

    def test_conflicting_lengths_answer_400_and_close(self, pair):
        home, __ = pair
        wire = (b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n"
                b"Content-Length: 30\r\n\r\nhello"
                b"GET /e.html HTTP/1.1\r\nHost: h\r\n\r\n")
        with socket.create_connection(("127.0.0.1", home.port),
                                      timeout=5) as raw:
            raw.sendall(wire)
            raw.settimeout(5)
            data = b""
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                data += chunk
        # Smuggling-ambiguous framing: one 400, then the connection
        # closes without ever serving the smuggled request.
        assert b"400" in data.split(b"\r\n")[0]
        assert b"<html>leaf</html>" not in data


class TestLifecycle:
    def test_double_start_rejected(self, pair):
        home, __ = pair
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            home.start()

    def test_context_manager(self):
        loc = Location("127.0.0.1", free_port())
        engine = DCWSEngine(loc, ServerConfig(), MemoryStore(SITE),
                            entry_points=["/index.html"])
        with AsyncDCWSServer(engine) as server:
            assert server.wait_ready()
            assert fetch_url(url_of(server, "/e.html")).status == 200
