"""Hot-path serving: splice reconstruction and the response cache.

Two measurements back the serve-path optimisations:

1. Regenerating a dirty ~6.5 KB document via the link-template splice
   must be at least 5x faster than the tokenize -> parse -> rewrite ->
   serialize pipeline it replaces (the paper's ~20 ms cost, section 5.3).
2. Serving a hot document through a real AsyncDCWSServer must not get
   slower with the rendered-response cache on; with a disk-backed store
   the cached path skips the store read and response assembly entirely.

Numbers land in ``benchmarks/results/reconstruction_fastpath.txt`` and in
the machine-readable ``BENCH_reconstruction.json`` at the repo root.

Unlike the pytest-benchmark microbenches, this file needs only pytest, so
CI runs it as a smoke test with tiny parameters.
"""

import json
import os
import random
import socket
import time

from repro.client.pool import ConnectionPool
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.datasets.base import filler_text
from repro.html.parser import parse_html
from repro.html.rewriter import rewrite_html
from repro.html.template import build_link_template
from repro.http.messages import Request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import DiskStore

DOCUMENT_BYTES = 6500
LINKS = 10
SPLICE_ROUNDS = 200
REQUESTS = 200
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_reconstruction.json")


def record_json(**fields) -> None:
    """Merge *fields* into the repo-root benchmark record."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            data = json.load(handle)
    data.update(fields)
    with open(BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def build_document(document_bytes=DOCUMENT_BYTES, links=LINKS, seed=7):
    rng = random.Random(seed)
    anchors = "".join(f'<a href="/doc{k}.html">link {k}</a>'
                      for k in range(links))
    body = filler_text(rng, document_bytes - 60 * links)
    return (f"<html><head><title>bench</title></head>"
            f"<body>{anchors}<p>{body}</p></body></html>")


def best_of(runs, fn):
    best = float("inf")
    for __ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_splice_beats_full_parse(report):
    source = build_document()
    rewrite = lambda v: v + "?moved" if v.startswith("/doc") else None
    template = build_link_template(parse_html(source))

    # Sanity first: the fast path is byte-identical to the slow one.
    assert template.splice(rewrite)[0] == rewrite_html(source, rewrite)

    def full_parse():
        for __ in range(SPLICE_ROUNDS):
            rewrite_html(source, rewrite)

    def splice():
        # What the engine does per regeneration: recompute replacements
        # against current graph state, then splice.
        for __ in range(SPLICE_ROUNDS):
            template.splice_all(template.compute_replacements(rewrite))

    full_elapsed = best_of(3, full_parse)
    splice_elapsed = best_of(3, splice)
    speedup = full_elapsed / splice_elapsed
    full_us = full_elapsed / SPLICE_ROUNDS * 1e6
    splice_us = splice_elapsed / SPLICE_ROUNDS * 1e6

    report("reconstruction_fastpath_splice", "\n".join([
        f"dirty-document regeneration, {DOCUMENT_BYTES}-byte document, "
        f"{LINKS} links, {SPLICE_ROUNDS} rounds (best of 3)",
        f"  full parse pipeline:   {full_us:9.1f} us/doc",
        f"  link-template splice:  {splice_us:9.1f} us/doc",
        f"  speedup: {speedup:.1f}x",
    ]))
    record_json(document_bytes=DOCUMENT_BYTES, links=LINKS,
                full_parse_us=round(full_us, 2),
                splice_us=round(splice_us, 2),
                splice_speedup=round(speedup, 2))
    assert speedup >= 5.0


def serve_throughput(config, tmp_path, label):
    docroot = tmp_path / label
    docroot.mkdir()
    (docroot / "doc.html").write_bytes(build_document().encode("latin-1"))
    loc = Location("127.0.0.1", free_port())
    engine = DCWSEngine(loc, config, DiskStore(str(docroot)))
    with AsyncDCWSServer(engine) as server:
        assert server.wait_ready()
        with ConnectionPool(timeout=10.0) as pool:
            request = Request(method="GET", target="/doc.html")
            for __ in range(10):
                assert pool.fetch(loc, request).status == 200
            start = time.perf_counter()
            for __ in range(REQUESTS):
                assert pool.fetch(loc, request).status == 200
            elapsed = time.perf_counter() - start
        hits = engine.response_cache.stats.hits
    return REQUESTS / elapsed, hits


def test_response_cache_serve_throughput(report, tmp_path):
    base = dict(stats_interval=60.0, pinger_interval=60.0)
    uncached_rps, __ = serve_throughput(
        ServerConfig(response_cache_entries=0, byte_cache_bytes=0, **base),
        tmp_path, "uncached")
    cached_rps, hits = serve_throughput(
        ServerConfig(**base), tmp_path, "cached")
    gain = cached_rps / uncached_rps

    report("reconstruction_fastpath_cache", "\n".join([
        f"hot-document serve throughput, {REQUESTS} pooled GETs, "
        f"disk-backed store",
        f"  caches off (store read per request): {uncached_rps:9.1f} req/s",
        f"  response cache on:                   {cached_rps:9.1f} req/s",
        f"  gain: {gain:.2f}x   response-cache hits={hits}",
    ]))
    record_json(serve_requests=REQUESTS,
                uncached_rps=round(uncached_rps, 1),
                cached_rps=round(cached_rps, 1),
                response_cache_gain=round(gain, 3),
                response_cache_hits=hits)
    assert hits >= REQUESTS  # the hot path really rode the cache
    # Throughput must not regress; the absolute gain depends on the
    # host's disk/loopback speed, so the bound is deliberately lenient.
    assert gain > 0.8
