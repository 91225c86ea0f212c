"""Write-ahead journal overhead on the serve path.

Durability is only free if the hot path stays hot: the WAL's design
goal is that ``fsync="interval"`` (the default) costs nearly nothing
per request, with ``"always"`` available when a deployment wants
zero-loss acknowledgements and is willing to pay the fsync.

The measurement drives a real :class:`AsyncDCWSServer` on loopback
with a pooled keep-alive client.  The workload is deliberately
mutation-heavy — every ``UPDATE_EVERY``-th operation is a content
update (journaled) among plain GETs (never journaled) — because a pure
read workload would show zero WAL cost by construction.  Four modes run
over identical operation streams:

- ``none``      — no journal attached (the pre-durability baseline);
- ``off``       — journal appends, OS flush only;
- ``interval``  — journal appends, periodic group fsync (the default);
- ``always``    — every journaled mutation fsyncs before returning.

Acceptance: ``interval`` throughput within 10% of the no-WAL baseline.
Numbers land in ``benchmarks/results/wal_overhead.txt`` and the
machine-readable ``BENCH_wal.json`` at the repo root.
"""

import json
import os
import socket
import time

from repro.client.pool import ConnectionPool
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_wal.json")

UPDATE_EVERY = 5        # one journaled update per four served GETs
WARMUP = 30

DOC = b"<html>" + b"x" * 2048 + b"</html>"
SITE = {"/doc.html": DOC, "/other.html": DOC}


def operations(scale) -> int:
    return 400 if scale.name == "quick" else 1500


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


def run_mode(mode: str, tmp_path, ops: int) -> float:
    """Ops/second for one durability mode over the standard stream."""
    wal_fsync = mode if mode in ("off", "interval", "always") else "interval"
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          validation_interval=60.0,
                          migration_hit_threshold=1e9,
                          wal_fsync=wal_fsync)
    loc = Location("127.0.0.1", free_port())
    engine = DCWSEngine(loc, config, MemoryStore(dict(SITE)))
    journal_path = (None if mode == "none"
                    else str(tmp_path / f"{mode}.wal"))
    server = AsyncDCWSServer(engine, tick_period=0.05,
                             journal_path=journal_path)
    server.start()
    try:
        with ConnectionPool(timeout=10.0) as pool:
            request = Request(method="GET", target="/doc.html")

            def one_op(index: int) -> None:
                if index % UPDATE_EVERY == 0:
                    with server._lock:
                        engine.update_document(
                            "/other.html", DOC + b"<!--%d-->" % index)
                else:
                    assert pool.fetch(loc, request).status == 200

            for index in range(WARMUP):
                one_op(index)
            start = time.perf_counter()
            for index in range(ops):
                one_op(index)
            elapsed = time.perf_counter() - start
    finally:
        server.stop()
    return ops / elapsed


def test_wal_overhead(report, scale, tmp_path):
    ops = operations(scale)
    rates = {}
    for mode in ("none", "off", "interval", "always"):
        rates[mode] = run_mode(mode, tmp_path, ops)

    baseline = rates["none"]
    relative = {mode: rates[mode] / baseline for mode in rates}
    lines = [
        f"WAL overhead, {ops} ops (1 update per {UPDATE_EVERY} ops, "
        f"{len(DOC)}-byte document), event-loop front end",
        f"  {'mode':<10} {'ops/s':>10} {'vs no-WAL':>10}",
    ]
    for mode in ("none", "off", "interval", "always"):
        lines.append(f"  {mode:<10} {rates[mode]:>10.1f} "
                     f"{relative[mode]:>9.2%}")
    report("wal_overhead", "\n".join(lines))

    record_json(
        operations=ops,
        update_every=UPDATE_EVERY,
        ops_per_second={m: round(r, 1) for m, r in rates.items()},
        relative_to_baseline={m: round(r, 4) for m, r in relative.items()},
    )

    # The default policy must be near-free: within 10% of no-WAL.
    assert relative["interval"] >= 0.90, (
        f"interval fsync cost too high: {relative['interval']:.2%} "
        f"of baseline (rates {rates})")
    # And "off" certainly must not beat the laws of physics by much /
    # regress either.
    assert relative["off"] >= 0.85
