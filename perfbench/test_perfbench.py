"""Self-tests of the benchmark's own machinery, against canned byte
streams: no DCWS server runs.

    python3 -m pytest perfbench -q        (or: python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import hashlib
import os
import socket
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from loadgen import FramingError, Loop, Req, ResponseReader  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def response(body: bytes, *, status: str = "200 OK", close: bool = False,
             extra: str = "") -> bytes:
    head = (f"HTTP/1.0 {status}\r\nContent-Length: {len(body)}\r\n"
            f"X-DCWS-Digest: sha256:{hashlib.sha256(body).hexdigest()}\r\n"
            f"{extra}")
    head += "Connection: close\r\n" if close else \
        "Connection: keep-alive\r\nKeep-Alive: timeout=5, max=2\r\n"
    return head.encode() + b"\r\n" + body


def feed_in_pieces(reader: ResponseReader, stream: bytes, size: int):
    replies = []
    for start in range(0, len(stream), size):
        piece = bytearray(stream[start:start + size])
        replies += reader.feed(piece, len(piece))
    return replies


class FramingTest(unittest.TestCase):
    def test_pipelined_content_length_at_every_split(self):
        bodies = [b"<html>first</html>", b"", b"x" * 5000]
        stream = b"".join(response(b) for b in bodies[:2]) + \
            response(bodies[2], close=True)
        for size in (1, 2, 3, 7, 64, 4096, len(stream)):
            reader = ResponseReader(
                lambda reply: reply.sink(digest=True, keep=False))
            replies = feed_in_pieces(reader, stream, size)
            self.assertEqual([r.length for r in replies],
                             [len(b) for b in bodies], size)
            self.assertEqual([r.digest() for r in replies],
                             [hashlib.sha256(b).hexdigest() for b in bodies])
            self.assertEqual([r.close for r in replies],
                             [False, False, True])
            self.assertTrue(reader.idle)

    def test_gzip_body_is_digested_after_decoding(self):
        import gzip
        body = b"<p>" + b"compress me " * 100 + b"</p>"
        packed = gzip.compress(body)
        stream = (f"HTTP/1.1 200 OK\r\nContent-Length: {len(packed)}\r\n"
                  f"Content-Encoding: gzip\r\n\r\n").encode() + packed
        reader = ResponseReader(lambda r: r.sink(digest=True, keep=True))
        (reply,) = feed_in_pieces(reader, stream, 100)
        self.assertEqual(reply.digest(), hashlib.sha256(body).hexdigest())
        self.assertEqual(bytes(reply.body), body)

    def test_missing_content_length_is_a_framing_error(self):
        reader = ResponseReader(lambda r: None)
        stream = bytearray(b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\nbody")
        with self.assertRaises(FramingError):
            reader.feed(stream, len(stream))


class CannedPeers:
    """Stands in for servers: every connection the loop opens is one end
    of a socketpair whose other end the test reads and writes."""

    def __init__(self):
        self.peers = []        # (address, peer socket), in connect order

    def connect(self, address):
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        self.peers.append((address, theirs))
        return ours

    def requests(self, index):
        peer = self.peers[index][1]
        peer.settimeout(2)
        data = b""
        while not data.endswith(b"\r\n\r\n"):
            data += peer.recv(65536)
        return [line.split(b" ")[1].decode()
                for line in data.split(b"\r\n") if line.startswith(b"GET")]


class Collect:
    def __init__(self):
        self.replies, self.failures = [], []

    def on_reply(self, req, reply):
        self.replies.append((req.path, reply.status))

    def on_fail(self, req, reason):
        self.failures.append((req.path, reason))


def spin(loop, seconds=0.05):
    loop.run_until(time.monotonic() + seconds)


class KeepAliveMaxTest(unittest.TestCase):
    def test_unanswered_requests_move_to_a_new_connection(self):
        canned = CannedPeers()
        loop = Loop([("127.0.0.1", 1)], conns_per_server=[1],
                    connect=canned.connect)
        sink = Collect()
        for path in ("/a", "/b", "/c"):
            loop.submit(Req(0, path, sink))
        spin(loop)
        self.assertEqual(canned.requests(0), ["/a", "/b", "/c"])
        # The server's second response ends the connection (max=2); the
        # third request was never answered and must be resent, not failed.
        peer = canned.peers[0][1]
        peer.sendall(response(b"A") + response(b"B", close=True))
        peer.close()
        spin(loop)
        self.assertEqual(len(canned.peers), 2)
        self.assertEqual(canned.requests(1), ["/c"])
        canned.peers[1][1].sendall(response(b"C"))
        spin(loop)
        self.assertEqual(sink.replies, [("/a", 200), ("/b", 200),
                                        ("/c", 200)])
        self.assertEqual(sink.failures, [])
        self.assertEqual(loop.connections_opened, 2)
        loop.close()

    def test_learned_max_holds_requests_until_reconnect(self):
        canned = CannedPeers()
        loop = Loop([("127.0.0.1", 1)], conns_per_server=[1],
                    connect=canned.connect)
        sink = Collect()
        loop.submit(Req(0, "/a", sink))
        spin(loop)
        canned.peers[0][1].sendall(response(b"A"))   # announces max=2
        spin(loop)
        for path in ("/b", "/c"):
            loop.submit(Req(0, path, sink))
        spin(loop)
        self.assertEqual(canned.requests(0), ["/a", "/b"])
        canned.peers[0][1].sendall(response(b"B", close=True))
        spin(loop)
        self.assertEqual(canned.requests(1), ["/c"])
        loop.close()

    def test_reset_mid_response_fails_the_request(self):
        canned = CannedPeers()
        loop = Loop([("127.0.0.1", 1)], conns_per_server=[1],
                    connect=canned.connect)
        sink = Collect()
        loop.submit(Req(0, "/a", sink))
        spin(loop)
        canned.peers[0][1].sendall(response(b"whole body")[:-3])
        canned.peers[0][1].close()
        spin(loop)
        self.assertEqual(sink.replies, [])
        self.assertEqual([path for path, _ in sink.failures], ["/a"])
        loop.close()


class RedirectTest(unittest.TestCase):
    def test_301_to_absolute_migrate_url_is_followed(self):
        page = b"<html><a href='/b.html'>b</a></html>"
        spec = dict(dataset="canned", servers=2, rate=1.0, zipf=None,
                    gzip_share=0.0, pages="html", images=True,
                    bookmark_share=0.0, walk=(1, 1))
        bench = run.Bench("coop_walk", spec, 1,
                          {"/index.html": page, "/a.html": page},
                          [8001, 8002])
        canned = CannedPeers()
        bench.loop.connect = canned.connect
        phase = run.Phase("test", time.monotonic(), time.monotonic() + 1,
                          spec["servers"])
        run.PageView(bench, time.monotonic(), phase, 0, "/a.html")
        spin(bench.loop)
        self.assertEqual(canned.requests(0), ["/a.html"])
        location = "http://127.0.0.1:8002/~migrate/127.0.0.1/8001/a.html"
        canned.peers[0][1].sendall(response(
            b"", status="301 Moved Permanently",
            extra=f"Location: {location}\r\n"))
        spin(bench.loop)
        self.assertEqual(canned.peers[-1][0], ("127.0.0.1", 8002))
        self.assertEqual(canned.requests(len(canned.peers) - 1),
                         ["/~migrate/127.0.0.1/8001/a.html"])
        canned.peers[-1][1].sendall(response(page))
        spin(bench.loop)
        self.assertEqual(bench.failed, 0, bench.reasons)
        self.assertEqual(phase.redirects, 1)
        self.assertEqual(len(phase.latencies), 1)
        self.assertEqual(phase.responses, [1, 1])
        bench.loop.close()

    def test_digest_mismatch_counts_as_a_failure(self):
        spec = dict(dataset="canned", servers=1, rate=1.0, zipf=None,
                    gzip_share=0.0, pages="all", images=False)
        bench = run.Bench("cached_hot", spec, 1, {"/x.gif": b"GIF89a"},
                          [8001])
        canned = CannedPeers()
        bench.loop.connect = canned.connect
        phase = run.Phase("test", time.monotonic(), time.monotonic() + 1,
                          spec["servers"])
        run.PageView(bench, time.monotonic(), phase, 0, "/x.gif")
        spin(bench.loop)
        wrong = response(b"GIF89b")
        canned.peers[0][1].sendall(wrong)
        spin(bench.loop)
        self.assertEqual(bench.failed, 1)
        self.assertEqual(phase.failures, 1)
        bench.loop.close()


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            (1, "engine.handle_request", 0.0, 10.0, 0, 7),
            (2, "filestore.get", 1.0, 3.0, 1, 7),
            (3, "html.parse", 2.0, 5.0, 1, 7),     # overlaps span 2
            (4, "wal.append", 9.0, 12.0, 1, 7),    # runs past its parent
            (5, "html.splice", 2.5, 3.5, 3, 7),    # grandchild
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[4], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_wrapped_calls_record_parent_and_request_id(self):
        clock = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(clock)))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda rid: inner(),
                            rid_of=lambda rid: rid)
        outer(42)
        (child, parent) = tracer.spans
        self.assertEqual((child[1], child[4], child[5]), ("inner", parent[0],
                                                           42))
        summary = tracer.summary(0.0, 100.0)
        self.assertEqual(summary["outer"]["self"], 2.0)   # 0..3 minus 1..2
        self.assertEqual(summary["inner"]["calls"], 1)


if __name__ == "__main__":
    unittest.main()
