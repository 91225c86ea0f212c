"""Background-scrub overhead on the cached serve path.

Integrity is only acceptable if it is cheap where it matters: the scrub
daemon re-hashes a budgeted batch of documents per round *inside the
engine tick*, so an over-eager schedule would steal lock time from the
serve path.  This bench drives a real :class:`AsyncDCWSServer` on
loopback with a pooled keep-alive client over a fully warm response
cache — the fast path where every request is a cached zero-copy send —
and compares:

- ``scrub_off`` — ``scrub_interval=0`` (the integrity daemon disabled);
- ``scrub_on``  — an aggressive 50 ms scrub interval at the default
  per-round budget, i.e. strictly more scrubbing than the production
  default (30 s) would ever do during the same window.

Each mode runs three times; the medians are compared.  Acceptance:
scrubbing costs at most 5% of cached-serve throughput.  The bench also
asserts the zero-copy contract: every cached 200 carried an
``X-DCWS-Digest`` stamped from the document record — no body was read
or re-hashed to produce it.  Numbers land in
``benchmarks/results/integrity_overhead.txt`` and the machine-readable
``BENCH_integrity.json`` at the repo root.
"""

import json
import os
import socket
import statistics
import time

from repro.client.pool import ConnectionPool
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import DIGEST_HEADER, digest_matches
from repro.http.messages import Request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_integrity.json")

WARMUP = 30
RUNS = 3
DOC = b"<html>" + b"x" * 4096 + b"</html>"
SITE = {f"/doc{i}.html": DOC for i in range(48)}
TARGETS = [f"/doc{i}.html" for i in range(8)]


def operations(scale) -> int:
    return 600 if scale.name == "quick" else 2000


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


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run_mode(scrub_interval: float, ops: int):
    """(requests/s, engine) for one scrub schedule over the workload."""
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          validation_interval=60.0,
                          migration_hit_threshold=1e9,
                          scrub_interval=scrub_interval)
    loc = Location("127.0.0.1", free_port())
    engine = DCWSEngine(loc, config, MemoryStore(dict(SITE)))
    server = AsyncDCWSServer(engine, tick_period=0.05)
    server.start()
    digest_stamped = 0
    try:
        with ConnectionPool(timeout=10.0) as pool:
            requests = [Request(method="GET", target=t) for t in TARGETS]
            for index in range(WARMUP):
                pool.fetch(loc, requests[index % len(requests)])
            start = time.perf_counter()
            for index in range(ops):
                response = pool.fetch(loc, requests[index % len(requests)])
                assert response.status == 200
                claimed = response.headers.get(DIGEST_HEADER, "")
                if claimed:
                    digest_stamped += 1
                    if index % 100 == 0:  # spot-verify, off the hot loop
                        assert digest_matches(response.body, claimed)
            elapsed = time.perf_counter() - start
    finally:
        server.stop()
    # The zero-copy contract: the digest header came along on every
    # cached send (it is stamped from the record, never re-hashed).
    assert digest_stamped == ops, (digest_stamped, ops)
    return ops / elapsed, engine


def test_integrity_scrub_overhead(report, scale):
    ops = operations(scale)
    rates = {"scrub_off": [], "scrub_on": []}
    scrub_rounds = scrub_checked = 0
    for __ in range(RUNS):
        rate, __engine = run_mode(0.0, ops)
        rates["scrub_off"].append(rate)
        rate, engine = run_mode(0.05, ops)
        rates["scrub_on"].append(rate)
        scrub_rounds += engine.integrity.counters.scrub_rounds
        scrub_checked += engine.integrity.counters.scrub_checked
    # The scrubber must actually have run while we measured it.
    assert scrub_rounds > 0 and scrub_checked > 0

    median_off = statistics.median(rates["scrub_off"])
    median_on = statistics.median(rates["scrub_on"])
    relative = median_on / median_off
    lines = [
        f"Scrub overhead on the cached serve path, {ops} requests x "
        f"{RUNS} runs, {len(SITE)} x {len(DOC)}-byte documents",
        f"  {'mode':<10} {'median req/s':>14}",
        f"  {'scrub off':<10} {median_off:>14.1f}",
        f"  {'scrub on':<10} {median_on:>14.1f}   "
        f"({relative:.2%} of scrub-off; "
        f"{scrub_rounds} rounds, {scrub_checked} docs re-hashed)",
    ]
    report("integrity_overhead", "\n".join(lines))

    record_json(
        operations=ops,
        runs=RUNS,
        documents=len(SITE),
        document_bytes=len(DOC),
        rps={"scrub_off": round(median_off, 1),
             "scrub_on": round(median_on, 1)},
        relative_to_scrub_off=round(relative, 4),
        scrub_rounds=scrub_rounds,
        scrub_checked=scrub_checked,
        digest_header_on_cached_sends=True,
    )

    # The gate: scrubbing at the default budget costs at most 5% of
    # cached-serve throughput.
    assert relative >= 0.95, (
        f"scrub overhead too high: {relative:.2%} of scrub-off "
        f"throughput (rates {rates})")
