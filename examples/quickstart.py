#!/usr/bin/env python
"""Quickstart: two real DCWS servers on localhost.

Starts a *home* server holding a small site and an empty *co-op* server,
both as real event-loop socket servers (the front end hosting the
paper's section 5.1 engine).  A burst of client traffic overloads the
home server; the migration policy picks a hot document, rewrites the
hyperlinks pointing at it, and the co-op starts serving it after a lazy
pull — all over plain HTTP, observable with any browser.

Run:  python examples/quickstart.py
"""

import socket
import time

from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.urls import URL
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

SITE = {
    "/index.html": (b'<html><head><title>Quickstart</title></head><body>'
                    b'<h1>Welcome</h1><a href="hot.html">the hot page</a> '
                    b'<a href="about.html">about</a>'
                    b'<img src="logo.gif"></body></html>'),
    "/hot.html": b'<html><body>Everyone wants this page. '
                 b'<a href="/index.html">home</a></body></html>',
    "/about.html": b"<html><body>A quiet page.</body></html>",
    "/logo.gif": b"GIF89a" + b"\x00" * 400,
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main() -> None:
    home_loc = Location("127.0.0.1", free_port())
    coop_loc = Location("127.0.0.1", free_port())
    # Compressed intervals so the demo balances within seconds.
    config = ServerConfig(stats_interval=0.5, pinger_interval=1.0,
                          validation_interval=5.0,
                          migration_hit_threshold=1.0)
    home = AsyncDCWSServer(DCWSEngine(
        home_loc, config, MemoryStore(SITE),
        entry_points=["/index.html"], peers=[coop_loc]), tick_period=0.1)
    coop = AsyncDCWSServer(DCWSEngine(
        coop_loc, config, MemoryStore(), peers=[home_loc]), tick_period=0.1)

    with home, coop:
        print(f"home server:  http://{home_loc}")
        print(f"co-op server: http://{coop_loc}")
        print("\n-- hammering /hot.html to overload the home server --")
        deadline = time.time() + 10.0
        while time.time() < deadline:
            fetch_url(URL("127.0.0.1", home.port, "/hot.html"))
            fetch_url(URL("127.0.0.1", home.port, "/logo.gif"))
            with home._lock:
                if home.engine.graph.migrated_documents():
                    break

        with home._lock:
            migrated = [(r.name, str(r.location))
                        for r in home.engine.graph.migrated_documents()]
        print(f"migrated documents: {migrated or 'none (try again)'}")

        print("\n-- the home server now redirects old URLs (HTTP 301) --")
        moved_path = migrated[0][0] if migrated else "/hot.html"
        outcome = fetch_url(URL("127.0.0.1", home.port, moved_path))
        print(f"GET {moved_path} -> status {outcome.status}, "
              f"followed a redirect: {outcome.redirected}")

        print("\n-- and the entry page's hyperlinks were rewritten --")
        index = fetch_url(URL("127.0.0.1", home.port, "/index.html"))
        for link in index.links:
            print(f"  <a href={link!r}>")

        with coop._lock:
            hosted = [key for key, h in coop.engine.hosted.items() if h.fetched]
        print(f"\nco-op now hosts: {hosted}")
        print("\nDone: the co-op serves the hot page; the home serves the "
              "entry point and redirects stale URLs.")


if __name__ == "__main__":
    main()
