"""Property: a fast-path cached hit is indistinguishable from the slow path.

The lock-free fast path (``fast_lookup`` + ``fast_commit``) sends a head
prebuilt once per cached variant instead of rendering ``Headers`` per
request.  Two twin engines serve the same request, one through each
path: the wire bytes must match exactly, and so must every counter the
response feeds (``EngineStats``, the CPS/BPS metric inputs, the response
cache and the document's hit count).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.engine import DCWSEngine, EngineReply
from repro.server.filestore import MemoryStore

HOME = Location("127.0.0.1", 8001)

SITE = {
    # Compressible and over gzip_min_bytes: cached with a gzip variant.
    "/page.html": b"<html>" + b"<p>lorem ipsum dolor</p>" * 40 + b"</html>",
    # Too small to compress: identity only.
    "/tiny.html": b"<html>tiny</html>",
}


def make_engine():
    engine = DCWSEngine(HOME, ServerConfig(stats_interval=1000.0),
                        MemoryStore(SITE), entry_points=[], peers=())
    engine.initialize(0.0)
    return engine


def make_request(method, target, version, connection, gzip):
    request = Request(method=method, target=target, version=version)
    if connection is not None:
        request.headers.set("Connection", connection)
    if gzip:
        request.headers.set("Accept-Encoding", "gzip")
    return request


def counters(engine, target):
    metrics = engine.metrics
    return {
        "stats": dataclasses.asdict(engine.stats),
        "connections": metrics.connections.lifetime_count,
        "bytes": metrics.bytes.lifetime_total,
        "bps": metrics.bps(3.0),
        "cps": metrics.cps(3.0),
        "response_cache": engine.response_cache.stats.as_dict(),
        "hits": engine.graph.find(target).hits,
    }


def wire(response):
    return response.serialize_head() + response.body


@settings(max_examples=120, deadline=None)
@given(method=st.sampled_from(["GET", "HEAD"]),
       target=st.sampled_from(sorted(SITE)),
       version=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
       connection=st.sampled_from([None, "keep-alive", "close"]),
       gzip=st.booleans(),
       capped=st.booleans())
def test_fast_hit_matches_slow_path(method, target, version, connection,
                                    gzip, capped):
    fast, slow = make_engine(), make_engine()
    for engine in (fast, slow):
        # Identical warm-up fills the response cache on both twins.
        warm = make_request(method, target, version, connection, gzip)
        assert isinstance(engine.handle_request(warm, 1.0), EngineReply)

    request = make_request(method, target, version, connection, gzip)
    hit = fast.fast_lookup(request, 2.0)
    assert hit is not None
    fast_reply = fast.fast_commit(hit, request, 2.0)
    assert fast_reply is not None
    slow_reply = slow.handle_request(request, 2.0)
    assert isinstance(slow_reply, EngineReply)

    assert fast_reply.doc_name == slow_reply.doc_name
    if capped:
        # The front end's keep-alive cap turns either response into the
        # connection's last one; the two must still match byte for byte.
        fast_reply.response.close_connection()
        slow_reply.response.close_connection()
        assert b"Keep-Alive" not in fast_reply.response.serialize_head()
    assert wire(fast_reply.response) == wire(slow_reply.response)
    assert counters(fast, target) == counters(slow, target)
