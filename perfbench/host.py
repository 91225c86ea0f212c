"""Server host for the benchmark: one DCWS server in this process.

Set up the way ``repro serve --front-end aio --state-file --journal``
sets a server up: a fsyncing ``DiskStore``, ``ServerConfig`` defaults
(optionally time-compressed), the event-loop front end, and snapshot
plus journal.  The parent talks to it over stdin/stdout, one JSON object
per line:

- ``{"op": "stats"}``: engine, cache, front-end and journal counters;
- ``{"op": "update", "name": ..., "marker": ...}``: an author update
  (the pristine page bytes plus the marker) applied under the engine
  lock; answered with the new version;
- ``{"op": "trace"}``: install the span wrappers (see :func:`install`);
- ``{"op": "trace_summary", "t0": ..., "t1": ...}``: per-span totals;
- ``{"op": "trace_dump", "path": ...}``: write every span out;
- ``{"op": "stop"}``: checkpoint and stop.

``python3 host.py dataset NAME OUT`` writes a generated corpus instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading
from typing import Dict

from tracing import Tracer

BENCH_ID_HEADER = "X-Bench-Id"


def write_dataset(name: str, out: str) -> None:
    from repro.datasets import DATASET_BUILDERS
    from repro.server.filestore import DiskStore

    site = DATASET_BUILDERS[name](seed=0)
    store = DiskStore(out, fsync=False)
    for doc, data in site.documents.items():
        store.put(doc, data)


def _rid(request) -> int:
    value = request.headers.get(BENCH_ID_HEADER)
    return int(value) if value and value.isdigit() else 0


def install(tracer: Tracer, counters: Dict[str, int]) -> None:
    """Wrap each layer's public entry points in spans.

    Patched on the classes (and on the engine module's ``parse_html``
    binding), so calls already bound at start-up are traced too.  Two
    private seams are used where no public call brackets the work: the
    journal's ``_sync_to`` (the only place it fsyncs) and the engine's
    ``_scrub_round`` (the scrubber's re-hash loop).
    """
    from repro.client.pool import ConnectionPool
    from repro.html.template import LinkTemplate
    from repro.http.messages import Response
    from repro.http.wire import RequestParser
    from repro.server import engine as engine_module
    from repro.server.engine import (DCWSEngine, PullFromHome,
                                     RegenerateAndServe)
    from repro.server.filestore import DiskStore
    from repro.server.wal import WriteAheadJournal

    directive_due: Dict[int, float] = {}

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    lock = threading.Lock()     # loop and executor threads both count

    def bump(key: str) -> None:
        with lock:
            counters[key] = counters.get(key, 0) + 1

    def after_handle(result, engine, request, now):
        if isinstance(result, PullFromHome):
            bump("directives_pull")
        elif isinstance(result, RegenerateAndServe):
            bump("directives_regenerate")
        else:
            return
        directive_due[id(result)] = tracer.clock()

    def directive_started(inner):
        def wrapper(engine, directive, *args, **kwargs):
            started = directive_due.pop(id(directive), None)
            if started is not None:
                now = tracer.clock()
                tracer.event("aio.directive_wait", now, now - started)
            return inner(engine, directive, *args, **kwargs)
        return wrapper

    def after_fast_commit(result, *args):
        if result is not None:
            bump("fast_replies")

    def after_commit(result, *args):
        bump("regen_committed" if result else "regen_discarded")

    def after_head(result, response):
        if response.body_file is not None:
            bump("sendfile_bodies")
        bump("heads")

    def rid_of_request(engine, request, *args):
        return _rid(request)

    patch(RequestParser, "feed", "http.parse")
    patch(RequestParser, "next_request", "http.parse")
    patch(Response, "serialize_head", "http.serialize_head",
          after=after_head)
    patch(DCWSEngine, "fast_lookup", "engine.fast_lookup",
          rid_of=rid_of_request)
    patch(DCWSEngine, "fast_commit", "engine.fast_commit",
          rid_of=lambda engine, hit, request, now: _rid(request),
          after=after_fast_commit)
    patch(DCWSEngine, "handle_request", "engine.handle_request",
          rid_of=rid_of_request, after=after_handle)
    patch(DCWSEngine, "tick", "engine.tick")
    patch(DCWSEngine, "update_document", "engine.update_document")
    patch(DCWSEngine, "regeneration_plan", "engine.regeneration_plan")
    patch(DCWSEngine, "commit_regeneration", "engine.commit_regeneration",
          after=after_commit)
    patch(DCWSEngine, "complete_action", "engine.complete_action")
    DCWSEngine.complete_pull = directive_started(tracer.wrap(
        "engine.complete_pull", DCWSEngine.complete_pull))
    DCWSEngine.serve_after_regeneration = directive_started(
        DCWSEngine.serve_after_regeneration)
    patch(DCWSEngine, "_scrub_round", "integrity.scrub_batch")
    patch(engine_module, "parse_html", "html.parse")
    patch(LinkTemplate, "splice", "html.splice")
    patch(LinkTemplate, "splice_all", "html.splice")
    patch(DiskStore, "get", "filestore.get")
    patch(DiskStore, "put", "filestore.put")
    patch(WriteAheadJournal, "append", "wal.append")
    patch(WriteAheadJournal, "_sync_to", "wal.sync")

    fetch = ConnectionPool.fetch

    def pool_fetch(pool, *args, **kwargs):
        try:
            return fetch(pool, *args, **kwargs)
        except Exception:
            bump("pool_failed")
            raise

    ConnectionPool.fetch = tracer.wrap("pool.fetch", pool_fetch)


def stats_of(server, counters: Dict[str, int]) -> Dict[str, object]:
    engine = server.engine
    with server._lock:
        stats = {field.name: getattr(engine.stats, field.name)
                 for field in dataclasses.fields(engine.stats)
                 if field.name != "decisions"}
        caches = engine.cache_counters()
        return {
            "engine": stats,
            "caches": caches,
            "accepted": server.connections_accepted,
            "counters": dict(counters),
        }


def serve(args: argparse.Namespace) -> int:
    from repro.core.config import ServerConfig
    from repro.core.document import Location
    from repro.server.aio import AsyncDCWSServer
    from repro.server.engine import DCWSEngine
    from repro.server.filestore import DiskStore

    store = DiskStore(args.root)
    names = store.names()
    entries = ["/index.html"] if "/index.html" in names else []
    config = ServerConfig()
    if args.time_factor != 1.0:
        config = config.scaled(args.time_factor)
    engine = DCWSEngine(Location("127.0.0.1", args.port), config, store,
                        entry_points=entries,
                        peers=[Location.parse(p) for p in args.peer])
    os.makedirs(args.state, exist_ok=True)
    server = AsyncDCWSServer(
        engine, snapshot_path=os.path.join(args.state, "snapshot.json"),
        journal_path=os.path.join(args.state, "journal.wal"))
    tracer = Tracer()
    counters: Dict[str, int] = {}
    server.start()
    out = sys.stdout
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "stop":
                break
            if op == "stats":
                reply = stats_of(server, counters)
            elif op == "update":
                name = command["name"]
                with open(os.path.join(args.pristine, name.lstrip("/")),
                          "rb") as handle:
                    data = handle.read() + command["marker"].encode()
                with server._lock:
                    engine.update_document(name, data)
                    reply = {"version": engine.graph.find(name).version}
            elif op == "trace":
                install(tracer, counters)
                reply = {"ok": True}
            elif op == "trace_summary":
                reply = tracer.summary(command["t0"], command["t1"])
            elif op == "trace_dump":
                reply = {"spans": tracer.dump(command["path"])}
            else:
                reply = {"error": f"unknown op {op!r}"}
            reply["id"] = command.get("id")
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        server.stop()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dataset = sub.add_parser("dataset")
    dataset.add_argument("name")
    dataset.add_argument("out")
    server = sub.add_parser("serve")
    server.add_argument("--root", required=True)
    server.add_argument("--pristine", required=True)
    server.add_argument("--state", required=True)
    server.add_argument("--port", type=int, required=True)
    server.add_argument("--peer", action="append", default=[])
    server.add_argument("--time-factor", type=float, default=1.0)
    args = parser.parse_args()
    if args.command == "dataset":
        write_dataset(args.name, args.out)
        return 0
    return serve(args)


if __name__ == "__main__":
    sys.exit(main())
