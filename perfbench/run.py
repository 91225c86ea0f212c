"""DCWS benchmark: out-of-process servers, one open-loop load generator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cached_hot --seed 1 --seconds 15 --trace 0

Each server runs in its own process (``perfbench/host.py``); this process
is the load generator and imports nothing from ``repro``.  The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; the per-layer
split from a traced run with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import hashlib
import json
import os
import platform
import random
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from typing import Callable, Deque, Dict, List, Optional, Tuple
from urllib.parse import urljoin, urlsplit

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from loadgen import Loop, Reply, Req  # noqa: E402
from tracing import percentile  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
LATENCY_LIMIT = 0.100      # page-view p99 limit for capacity, seconds
# Generator lateness p99 beyond which a run is invalid.  It catches a
# generator falling behind its schedule; an idle select loop on the
# 2-vCPU VM this was tuned on already stalls by up to ~30 ms now and then.
LATE_BOUND = 0.050
SETUPS = 3                 # set-ups per run; setup_s is their median
CAP_STEPS = 6              # offered-rate steps in the capacity search
CAP_START = 1.5            # first capacity step, as a multiple of nominal
CAP_UP = 1.4               # growth per step until the first failing step
CPU_PARTS = 9              # nominal-window slices; CPU per request is their median

# Nominal rates were set at about a third of the capacity first measured
# on a 2-vCPU VM (capacity there varies widely from run to run).
# ``rate`` is page views per second, or sessions per second for walks.
WORKLOADS = {
    "cached_hot": dict(dataset="lod", servers=1, rate=2000.0, zipf=1.0,
                       gzip_share=0.5, pages="all", images=False,
                       warmup=2.0),
    "coop_walk": dict(dataset="mapug", servers=2, rate=20.0, zipf=None,
                      gzip_share=0.0, pages="html", images=True,
                      time_factor=0.02, warmup=30.0, bookmark_share=0.1,
                      walk=(1, 25)),
    "authoring": dict(dataset="sblog", servers=1, rate=150.0, zipf=1.0,
                      gzip_share=0.0, pages="html", images=True,
                      update_share=0.05, warmup=2.0),
    "bulk_images": dict(dataset="sequoia", servers=1, rate=600.0, zipf=1.0,
                        gzip_share=0.0, pages="images", images=False,
                        digest_sample=0.125, warmup=2.0),
}

_HREF = re.compile(rb"""<a\s[^>]*?href\s*=\s*["']?([^"'\s>]+)""", re.I)
_TAG = re.compile(rb"<[^>]*>")
_SRC = re.compile(rb"""<img\s[^>]*?src\s*=\s*["']?([^"'\s>]+)""", re.I)


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------------
# Inputs: generated once per checkout, pinned by digest
# ----------------------------------------------------------------------

def dataset_files(root: str) -> Dict[str, bytes]:
    files: Dict[str, bytes] = {}
    for directory, _, names in os.walk(root):
        for name in names:
            full = os.path.join(directory, name)
            rel = "/" + os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "rb") as handle:
                files[rel] = handle.read()
    return files


def dataset_digest(files: Dict[str, bytes]) -> str:
    outer = hashlib.sha256()
    for name in sorted(files):
        outer.update(name.encode() + b"\0")
        outer.update(hashlib.sha256(files[name]).digest())
    return outer.hexdigest()


def host_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env.pop("PYTHONHASHSEED", None)
    return env


def prepare_dataset(name: str) -> Tuple[str, Dict[str, bytes]]:
    """Generate the corpus once per checkout and refuse to run when its
    bytes differ from the digest pinned in ``pins.json``."""
    target = os.path.join(WORK, "datasets", name)
    if not os.path.isdir(target):
        partial = target + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "host.py"),
                        "dataset", name, partial], env=host_env(),
                       check=True, timeout=300)
        os.replace(partial, target)
    files = dataset_files(target)
    with open(os.path.join(HERE, "pins.json")) as handle:
        pinned = json.load(handle)["datasets"][name]
    actual = dataset_digest(files)
    if actual != pinned:
        die(f"dataset {name} digest {actual} differs from the pinned "
            f"{pinned}; the generated inputs changed", 3)
    return target, files


def free_ports(count: int) -> List[int]:
    socks = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    ports = [sock.getsockname()[1] for sock in socks]
    for sock in socks:
        sock.close()
    return ports


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

class Host:
    """One server process and its JSON-lines control pipe."""

    def __init__(self, index: int, port: int, root: str, pristine: str,
                 state: str, peers: List[int], time_factor: float,
                 log) -> None:
        self.index = index
        self.port = port
        argv = [sys.executable, os.path.join(HERE, "host.py"), "serve",
                "--root", root, "--pristine", pristine, "--state", state,
                "--port", str(port), "--time-factor", str(time_factor)]
        for peer in peers:
            argv += ["--peer", f"127.0.0.1:{peer}"]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log,
                                     env=host_env(), cwd=WORK)
        os.set_blocking(self.proc.stdout.fileno(), False)
        self._buffer = b""
        self._ids = iter(range(1, 1 << 62))
        self._callbacks: Dict[int, object] = {}
        self._replies: Dict[int, dict] = {}

    def cpu_seconds(self) -> float:
        """CPU time (user plus system) of every thread of the server, in
        nanoseconds from ``schedstat``: ``/proc/<pid>/stat`` counts in
        10 ms ticks, too coarse for one-second slices."""
        total = 0
        tasks = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass        # the thread ended between listing and reading
        return total / 1e9

    def send(self, command: dict, callback=None) -> int:
        ident = next(self._ids)
        command["id"] = ident
        if callback is not None:
            self._callbacks[ident] = callback
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()
        return ident

    def on_readable(self) -> None:
        try:
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
        except BlockingIOError:
            return
        if not chunk:
            die(f"server {self.index} exited (see .perfbench/run/host.log)")
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        for line in lines:
            reply = json.loads(line)
            callback = self._callbacks.pop(reply["id"], None)
            if callback is not None:
                callback(reply)
            else:
                self._replies[reply["id"]] = reply

    def call(self, command: dict, timeout: float = 60.0) -> dict:
        ident = self.send(command)
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while ident not in self._replies:
                if time.monotonic() > deadline:
                    die(f"server {self.index} did not answer {command['op']}")
                selector.select(0.5)
                self.on_readable()
        return self._replies.pop(ident)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send({"op": "stop"})
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def first_200(port: int, path: str, deadline: float) -> None:
    request = (f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
               f"Connection: close\r\n\r\n").encode()
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as sock:
                sock.sendall(request)
                head = sock.recv(64)
            if head.split(b" ", 2)[1:2] == [b"200"]:
                return
        except OSError:
            pass
        time.sleep(0.005)
    die(f"server on port {port} gave no 200 within the set-up deadline")


class Cluster:
    """The run's servers: fresh data and state, timed set-ups."""

    def __init__(self, spec: dict, dataset_dir: str, run_dir: str) -> None:
        self.spec = spec
        self.dataset_dir = dataset_dir
        self.run_dir = run_dir
        self.count = spec["servers"]
        self.ports = free_ports(self.count)
        self.roots = [os.path.join(run_dir, f"data{i}")
                      for i in range(self.count)]
        shutil.copytree(dataset_dir, self.roots[0])
        for root in self.roots[1:]:
            os.makedirs(root)
        self.hosts: List[Host] = []
        self.log = open(os.path.join(run_dir, "host.log"), "ab")

    def start(self) -> float:
        """Spawn the servers with empty state, the home first; seconds
        from the first spawn until every server has answered its first
        200.  A co-op is spawned once its home answers: one that pings a
        home still scanning its corpus is refused, declares the home
        dead, and then sheds its first pulls with 503 while its circuit
        breaker stays open."""
        started = time.monotonic()
        deadline = started + 120
        for i, port in enumerate(self.ports):
            state = os.path.join(self.run_dir, f"state{i}")
            shutil.rmtree(state, ignore_errors=True)
            self.hosts.append(Host(
                i, port, self.roots[i], self.dataset_dir, state,
                [p for p in self.ports if p != port],
                self.spec.get("time_factor", 1.0), self.log))
            # The home answers its entry page; a co-op holds no documents
            # yet, so its health endpoint stands in.
            first_200(port, "/index.html" if i == 0 else "/~dcws/health",
                      deadline)
        return time.monotonic() - started

    def stop(self) -> None:
        for host in self.hosts:
            host.stop()
        self.hosts = []

    def cpu_seconds(self) -> float:
        return sum(host.cpu_seconds() for host in self.hosts)

    def stats(self) -> List[dict]:
        return [host.call({"op": "stats"}) for host in self.hosts]

    def close(self) -> None:
        self.stop()
        self.log.close()


# ----------------------------------------------------------------------
# Page views, sessions and the checks on every response
# ----------------------------------------------------------------------

class Phase:
    """One measurement window: everything offered from ``t0`` to ``t1``."""

    def __init__(self, name: str, t0: float, t1: float,
                 servers: int) -> None:
        self.name = name
        self.t0, self.t1 = t0, t1
        self.latencies: List[float] = []
        self.views = 0
        self.open_views = set()
        self.responses = [0] * servers
        self.body_bytes = 0
        self.redirects = 0
        self.failures = 0
        self.slow = 0
        self.writes: List[float] = []
        self.cpu_parts: List[float] = []
        self.aborted = False


class PageView:
    """A document, its embedded images fetched in parallel, and any
    redirect hops; timed from when it was due."""

    __slots__ = ("bench", "due", "phase", "session", "pending", "failed",
                 "links", "hops")

    def __init__(self, bench: "Bench", due: float, phase: Phase,
                 server: int, path: str, session=None) -> None:
        self.bench = bench
        self.due = due
        self.phase = phase
        self.session = session
        self.pending = 0
        self.failed = False
        self.links: List[Tuple[int, str]] = []
        self.hops = 0
        phase.views += 1
        phase.open_views.add(self)
        self._fetch(server, path, doc=True)

    def _fetch(self, server: int, path: str, *, doc: bool) -> None:
        bench = self.bench
        self.pending += 1
        gzip = bench.rng.random() < bench.spec["gzip_share"]
        digest = bench.digest_sample >= 1.0 or \
            bench.rng.random() < bench.digest_sample
        bench.attempted += 1
        bench.loop.submit(Req(server, path, self, gzip=gzip, digest=digest,
                              keep=doc and bench.spec["images"],
                              tag=doc))

    def on_reply(self, req: Req, reply: Reply) -> None:
        bench = self.bench
        phase = self.phase
        phase.responses[req.server] += 1
        if reply.status == 200:
            phase.body_bytes += reply.length
            problem = bench.check(req, reply)
            if problem:
                self._fail(problem)
            elif req.tag and reply.body is not None:
                self._follow_page(req, bytes(reply.body))
        elif reply.status in (301, 302) and self.hops < 5:
            target = bench.locate(req.server, reply.headers.get("location",
                                                                ""))
            if target is None:
                self._fail(f"redirect off the cluster: "
                           f"{reply.headers.get('location')}")
            else:
                self.hops += 1
                phase.redirects += 1
                self._fetch(*target, doc=req.tag)
        else:
            text = b" ".join(_TAG.sub(b" ", bytes(reply.body or b""))
                             .split()).decode("latin-1")
            self._fail(f"status {reply.status} ({text[:80]}) "
                       f"for {req.path}")
        self._done_one()

    def on_fail(self, req: Req, reason: str) -> None:
        self._fail(reason)
        self._done_one()

    def _fail(self, reason: str) -> None:
        self.bench.fail(reason, self.phase)
        self.failed = True

    def _follow_page(self, req: Req, body: bytes) -> None:
        bench = self.bench
        base = bench.base_url(req.server, req.path)
        if bench.spec["images"]:
            for raw in set(_SRC.findall(body)):
                target = bench.locate(req.server, raw.decode("latin-1"),
                                      base)
                if target is None:
                    continue
                if self.session is not None:
                    if target in self.session.cache:
                        continue
                    self.session.cache.add(target)
                self._fetch(*target, doc=False)
        if self.session is not None:
            original = req.path if req.server == 0 else \
                "/" + req.path.split("/", 4)[-1]
            if original != "/index.html":
                bench.visited.append(original)
            for raw in _HREF.findall(body):
                target = bench.locate(req.server, raw.decode("latin-1"),
                                      base)
                if target is not None and target[1].endswith(".html"):
                    self.links.append(target)

    def _done_one(self) -> None:
        self.pending -= 1
        if self.pending:
            return
        now = time.monotonic()
        phase = self.phase
        phase.open_views.discard(self)
        latency = now - self.due
        if self.failed:
            phase.slow += 1
        else:
            phase.latencies.append(latency)
            if latency > LATENCY_LIMIT:
                phase.slow += 1
        if self.session is not None:
            self.session.page_done(self, now)


class Session:
    """Algorithm 2 client: a random walk of 1-25 pages following links
    as served, with a per-session image cache; page k+1 is due when
    page k completes."""

    def __init__(self, bench: "Bench", due: float, phase: Phase) -> None:
        self.bench = bench
        self.phase = phase
        rng = bench.rng
        low, high = bench.spec["walk"]
        self.left = rng.randint(low, high)
        self.cache = set()
        if rng.random() < bench.spec["bookmark_share"] and bench.visited:
            # Section 4.4: a bookmark names a page some walk has seen, by
            # its original home URL, so a migrated one is answered by 301.
            path = rng.choice(bench.visited)
        else:
            path = "/index.html"
        PageView(bench, due, phase, 0, path, session=self)

    def page_done(self, view: PageView, now: float) -> None:
        self.left -= 1
        if view.failed or self.left <= 0 or not view.links:
            return
        server, path = self.bench.rng.choice(view.links)
        PageView(self.bench, now, self.phase, server, path, session=self)


class Bench:
    """Drives one workload against a running cluster."""

    def __init__(self, name: str, spec: dict, seed: int,
                 files: Dict[str, bytes], ports: List[int]) -> None:
        self.name = name
        self.spec = spec
        self.rng = random.Random(seed)
        self.ports = ports
        self.by_hostport = {f"127.0.0.1:{p}": i for i, p in enumerate(ports)}
        self.digest_sample = spec.get("digest_sample", 1.0)
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        # Single-server workloads compare bodies to the bytes written at
        # set-up (and, for authoring, to every update sent since).
        self.expected: Optional[Dict[str, set]] = None
        if spec["servers"] == 1:
            self.expected = {path: {hashlib.sha256(data).hexdigest()}
                             for path, data in files.items()}
        self.pristine = files
        self.regenerated: Dict[str, set] = {}
        self.acked: Dict[str, Tuple[int, float]] = {}
        html = sorted(p for p in files if p.endswith(".html"))
        images = sorted(p for p in files if not p.endswith(".html"))
        pool = {"all": sorted(files), "html": html, "images": images}
        self.pages = pool[spec["pages"]]
        self.visited: Deque[str] = collections.deque(maxlen=1000)
        # The hot set belongs to the workload, not to the seed: runs with
        # different seeds offer the same mix, in a different order.
        random.Random(0).shuffle(self.pages)
        if spec["zipf"]:
            weights = [1.0 / (rank + 1) ** spec["zipf"]
                       for rank in range(len(self.pages))]
            total = 0.0
            self.cumulative = []
            for weight in weights:
                total += weight
                self.cumulative.append(total)
        self.conns = [0] * spec["servers"]
        for i in range(os.cpu_count() or 1):
            self.conns[i % spec["servers"]] += 1
        self.conns = [max(1, c) for c in self.conns]
        self.loop = Loop([("127.0.0.1", p) for p in ports],
                         conns_per_server=self.conns)
        self.hosts: List[Host] = []
        self.update_seq = 0
        # Like the hot set, which pages authors update, in which order, is
        # part of the workload: an update costs a parse and, once its page
        # is read, a regeneration, so the seed would otherwise move CPU
        # per request by which pages it happened to pick.
        self.update_targets = random.Random(1)
        self.steps: List[str] = []

    # -- addressing --------------------------------------------------------

    def base_url(self, server: int, path: str) -> str:
        return f"http://127.0.0.1:{self.ports[server]}{path}"

    def locate(self, server: int, url: str,
               base: Optional[str] = None) -> Optional[Tuple[int, str]]:
        if not url:
            return None
        absolute = urljoin(base or self.base_url(server, "/"), url)
        parts = urlsplit(absolute)
        index = self.by_hostport.get(parts.netloc)
        if index is None:
            return None
        return index, parts.path or "/"

    # -- checks --------------------------------------------------------------

    def check(self, req: Req, reply: Reply) -> str:
        if reply.hasher is None:
            return ""
        actual = reply.digest()
        claimed = reply.headers.get("x-dcws-digest", "")
        if claimed != "sha256:" + actual:
            return f"digest mismatch on {req.path}"
        if self.expected is not None and \
                actual not in self.expected.get(req.path, ()) and \
                (reply.body is None or self.text_digest(bytes(reply.body))
                 not in self.regenerated.get(req.path, ())):
            return f"body differs from the bytes written for {req.path}"
        acked = self.acked.get(req.path)
        if acked is not None and req.sent > acked[1]:
            version = reply.headers.get("x-dcws-version", "")
            if not version.isdigit() or int(version) < acked[0]:
                return (f"stale read of {req.path}: version {version} "
                        f"after {acked[0]} was acknowledged")
        return ""

    @staticmethod
    def text_digest(body: bytes) -> str:
        """Digest of a page's text: tags removed, whitespace collapsed.
        Serving an updated page regenerates it, which re-serializes the
        markup (absolute links, closed list items) but keeps the text."""
        return hashlib.sha256(b" ".join(_TAG.sub(b"", body).split())
                              ).hexdigest()

    def fail(self, reason: str, phase: Optional[Phase]) -> None:
        self.failed += 1
        key = reason.split(" for ")[0].split(" on ")[0]
        if phase is not None:
            key += f" in {phase.name}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        if phase is not None:
            phase.failures += 1

    # -- offered load ----------------------------------------------------------

    def pick(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self.cumulative,
                                   rng.random() * self.cumulative[-1])
        return self.pages[min(index, len(self.pages) - 1)]

    def offer(self, phase: Phase, rate: float) -> None:
        """Open-loop arrivals at *rate* over the phase, plus author updates
        making up ``update_share`` of all operations.  Both come at fixed
        intervals, so every window of a given length offers the same
        number of sessions or page views and updates."""
        self._every(phase, 1.0 / rate, self._arrive)
        share = self.spec.get("update_share", 0.0)
        if share:
            self._every(phase, (1 - share) / (share * rate), self.update)

    def _every(self, phase: Phase, interval: float, action) -> None:
        def fire(due: float) -> None:
            if due >= phase.t1 or phase.aborted:
                return
            action(due, phase)
            self.loop.at(due + interval, fire)

        self.loop.at(phase.t0 + self.rng.random() * interval, fire)

    def _arrive(self, due: float, phase: Phase) -> None:
        if self.name == "coop_walk":
            Session(self, due, phase)
        else:
            PageView(self, due, phase, 0, self.pick(self.rng))

    def update(self, due: float, phase: Phase) -> None:
        """An author update: pristine bytes plus a seeded marker."""
        path = self.pick(self.update_targets)
        self.update_seq += 1
        marker = f"\n<p>perfbench update {self.rng.getrandbits(48):x} " \
                 f"{self.update_seq}</p>\n"
        data = self.pristine[path] + marker.encode()
        self.expected[path].add(hashlib.sha256(data).hexdigest())
        self.regenerated.setdefault(path, set()).add(
            self.text_digest(data))
        self.attempted += 1

        def acked(reply: dict) -> None:
            now = time.monotonic()
            if "version" not in reply:
                self.fail(f"update refused: {reply.get('error')}", phase)
                return
            previous = self.acked.get(path)
            if previous is None or reply["version"] > previous[0]:
                self.acked[path] = (reply["version"], now)
            phase.writes.append(now - due)

        self.hosts[0].send({"op": "update", "name": path, "marker": marker},
                           acked)

    # -- running windows -------------------------------------------------------

    def run_phase(self, name: str, duration: float, rate: float,
                  drain: float = 3.0, abort_early: bool = False,
                  probe: Optional[Callable[[], float]] = None,
                  parts: int = 1) -> Phase:
        """Offer load for *duration*, then wait up to *drain* for the
        phase's page views to finish.  With *probe* (server CPU seconds),
        ``phase.cpu_parts`` gets the server CPU per response of each of
        *parts* equal slices of the window, measured under unbroken
        load."""
        start = time.monotonic() + 0.01
        phase = Phase(name, start, start + duration, self.spec["servers"])
        self.loop.lateness = []
        self.offer(phase, rate)
        if probe is not None:
            marks: List[Tuple[float, int]] = []

            def mark(_due: float, _phase: Phase = phase) -> None:
                marks.append((probe(), self.loop.responses))
                if len(marks) > 1:
                    (cpu0, n0), (cpu1, n1) = marks[-2:]
                    phase.cpu_parts.append((cpu1 - cpu0) / max(1, n1 - n0))

            for index in range(parts + 1):
                self.loop.at(start + duration * index / parts, mark)
        expected = rate * duration

        def hopeless() -> bool:
            if abort_early and phase.slow + phase.failures > \
                    0.01 * expected + 10:
                phase.aborted = True
            return phase.aborted

        self.loop.run_until(phase.t1, hopeless)
        # The backlog: page views still open though due more than the
        # latency limit ago.  It grows when the offered rate is too high.
        now = time.monotonic()
        phase.backlog = sum(1 for view in phase.open_views
                            if now - view.due > LATENCY_LIMIT)
        phase.lateness = self.loop.lateness
        self.loop.run_until(time.monotonic() + drain,
                            lambda: not phase.open_views)
        return phase


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def page_stats(phase: Phase) -> Tuple[float, float, int, int]:
    """p50, p99 (failed and unfinished views count as beyond any limit),
    the number of samples beyond the p99, and the sample count."""
    values = sorted(phase.latencies)
    missing = phase.views - len(values)
    values += [float("inf")] * missing
    count = len(values)
    if not count:
        return 0.0, 0.0, 0, 0
    p50 = values[int(0.50 * (count - 1))]
    k99 = int(0.99 * (count - 1))
    p99 = values[k99]
    return p50, p99, count - k99 - 1, count


def step_passes(phase: Phase) -> bool:
    _, p99, _, count = page_stats(phase)
    return (not phase.aborted and count > 0 and p99 <= LATENCY_LIMIT
            and phase.failures == 0 and phase.backlog <= 0.01 * count)


def capacity_search(bench: Bench, nominal: float, budget: float
                    ) -> Tuple[float, float, int]:
    """Stepped open-loop search for the highest offered rate meeting the
    page-view p99 limit with no failure and no growing backlog: grow by
    CAP_UP from CAP_START x nominal, then bisect.  Returns responses/s,
    MB/s and the page-view count of the best passing step."""
    step = budget / CAP_STEPS
    rate = nominal * CAP_START
    best: Optional[Tuple[float, Phase]] = None
    ceiling: Optional[float] = None
    for index in range(CAP_STEPS):
        phase = bench.run_phase(f"capacity{index}", step, rate,
                                abort_early=True)
        passed = step_passes(phase)
        p99 = page_stats(phase)[1]
        bench.steps.append(f"{rate:.0f}/s {'pass' if passed else 'fail'} "
                           f"(p99 {p99 * 1e3:.0f} ms, "
                           f"{sum(phase.responses) / step:.0f} resp/s)")
        if passed:
            if best is None or rate > best[0]:
                best = (rate, phase)
            rate = rate * CAP_UP if ceiling is None \
                else (rate + ceiling) / 2
        else:
            ceiling = rate
            rate = (best[0] + ceiling) / 2 if best else rate / CAP_UP
        time.sleep(0.1)
    if best is None:
        return 0.0, 0.0, 0
    phase = best[1]
    seconds = phase.t1 - phase.t0
    return (sum(phase.responses) / seconds,
            phase.body_bytes / seconds / 1e6, phase.views)


def diff(after: dict, before: dict, *keys: str) -> float:
    """``after[k1][k2]... - before[k1][k2]...``; a missing key reads 0."""
    for key in keys:
        after, before = after.get(key, {}), before.get(key, {})
    return float((after or 0) - (before or 0))


def layer_metrics(before: List[dict], after: List[dict],
                  summaries: List[dict], cpu: float, responses: int,
                  phase: Phase) -> Dict[str, Tuple[float, str, int]]:
    """The traced window's per-layer split, summed over servers."""
    spans: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            if name == "id":
                continue
            merged = spans.setdefault(name, {"calls": 0, "self": 0.0,
                                             "p50": 0.0, "max": 0.0})
            merged["calls"] += entry["calls"]
            merged["self"] += entry["self"]
            merged["p50"] = max(merged["p50"], entry["p50"])
            merged["max"] = max(merged["max"], entry["max"])

    def per_call(name: str) -> Tuple[float, str, int]:
        entry = spans.get(name)
        if not entry:
            return 0.0, "us", 0
        return entry["self"] / entry["calls"] * 1e6, "us", entry["calls"]

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    def count(value: float) -> Tuple[float, str, int]:
        return value, "count", int(value)

    def total(*path: str) -> float:
        return sum(diff(a, b, *path) for a, b in zip(after, before))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    waiting = ("pool.fetch", "wal.sync", "aio.directive_wait")
    busy = sum(entry["self"] for name, entry in spans.items()
               if name not in waiting)
    handled = total("counters", "fast_replies") + calls("engine.handle_request")
    parse = spans.get("http.parse", {}).get("self", 0.0)
    resp_hits = total("caches", "response_cache", "hits")
    resp_lookups = resp_hits + total("caches", "response_cache", "misses")
    byte_hits = total("caches", "byte_cache", "hits")
    byte_lookups = byte_hits + total("caches", "byte_cache", "misses")
    plans = total("counters", "regen_committed") + \
        total("counters", "regen_discarded")
    tick = spans.get("engine.tick", {})
    fast = total("counters", "fast_replies")
    return {
        "aio.loop_us_per_req": (ratio(cpu - busy, responses) * 1e6, "us",
                                responses),
        "aio.directive_wait_us": per_call("aio.directive_wait"),
        "aio.connections_accepted": count(total("accepted")),
        "http.parse_us": (ratio(parse, handled) * 1e6, "us", int(handled)),
        "http.serialize_head_us": per_call("http.serialize_head"),
        "engine.fast_lookup_us": per_call("engine.fast_lookup"),
        "engine.fast_commit_us": per_call("engine.fast_commit"),
        "engine.fast_path_share": (ratio(fast, handled), "ratio",
                                   int(handled)),
        "engine.handle_request_us": per_call("engine.handle_request"),
        "engine.handle_request_calls": count(calls("engine.handle_request")),
        "engine.directives_pull": count(total("counters", "directives_pull")),
        "engine.directives_regenerate": count(
            total("counters", "directives_regenerate")),
        "engine.tick_us_p50": (tick.get("p50", 0.0) * 1e6, "us",
                               tick.get("calls", 0)),
        "engine.tick_us_max": (tick.get("max", 0.0) * 1e6, "us",
                               tick.get("calls", 0)),
        "engine.update_document_us": per_call("engine.update_document"),
        "engine.regeneration_plan_us": per_call("engine.regeneration_plan"),
        "engine.commit_regeneration_us": per_call(
            "engine.commit_regeneration"),
        "engine.regeneration_discard_ratio": (
            ratio(total("counters", "regen_discarded"), plans), "ratio",
            int(plans)),
        "engine.complete_pull_us": per_call("engine.complete_pull"),
        "engine.complete_action_us": per_call("engine.complete_action"),
        "engine.reconstructions": count(total("engine", "reconstructions")),
        "cache.response_hit_ratio": (ratio(resp_hits, resp_lookups),
                                     "ratio", int(resp_lookups)),
        "cache.response_evictions": count(
            total("caches", "response_cache", "evictions")),
        "cache.byte_hit_ratio": (ratio(byte_hits, byte_lookups), "ratio",
                                 int(byte_lookups)),
        "cache.byte_evictions": count(
            total("caches", "byte_cache", "evictions")),
        "filestore.get_us": per_call("filestore.get"),
        "filestore.get_calls": count(calls("filestore.get")),
        "filestore.put_us": per_call("filestore.put"),
        "filestore.put_calls": count(calls("filestore.put")),
        "filestore.sendfile_share": (
            ratio(total("counters", "sendfile_bodies"),
                  total("counters", "heads")), "ratio",
            int(total("counters", "heads"))),
        "wal.append_us": per_call("wal.append"),
        "wal.append_calls": count(calls("wal.append")),
        "wal.sync_us": per_call("wal.sync"),
        "wal.sync_calls": count(calls("wal.sync")),
        "html.parse_us": per_call("html.parse"),
        "html.parse_calls": count(calls("html.parse")),
        "html.splice_us": per_call("html.splice"),
        "integrity.scrub_batch_us": per_call("integrity.scrub_batch"),
        "integrity.scrub_calls": count(calls("integrity.scrub_batch")),
        "pool.fetch_us": per_call("pool.fetch"),
        "pool.fetch_calls": count(calls("pool.fetch")),
        "pool.fetch_failed": count(total("counters", "pool_failed")),
        "migration.decisions": count(total("engine", "migrations")
                                     + total("engine", "revocations")),
        "gen.late_us_p99": (percentile(phase.lateness, 0.99) * 1e6, "us",
                            len(phase.lateness)),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def warm_up(bench: Bench, spec: dict) -> float:
    """Load at the nominal rate for the workload's warm-up time, so the
    caches are warm and, with a co-op, the early migrations (the widely
    linked documents, whose moves dirty most pages) and the regeneration
    they cause are over.  Placement never settles completely: the home
    keeps moving one cold document per T_coop, which the traced run
    reports as ``migration.decisions``."""
    started = time.monotonic()
    bench.run_phase("warmup", spec["warmup"], spec["rate"])
    return time.monotonic() - started


def fs_type(path: str) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        or mount == "/") and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def source_digest() -> str:
    outer = hashlib.sha256()
    for directory, dirs, names in sorted(os.walk(os.path.join(SRC,
                                                              "repro"))):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    outer.update(name.encode() + handle.read())
    return outer.hexdigest()[:16]


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args: argparse.Namespace) -> int:
    spec = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        die(f"no DCWS sources under {SRC}; run from a full checkout")
    os.makedirs(WORK, exist_ok=True)
    dataset_dir, files = prepare_dataset(spec["dataset"])
    run_dir = os.path.join(WORK, "run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cluster = Cluster(spec, dataset_dir, run_dir)
    try:
        setups = []
        for attempt in range(SETUPS):
            setups.append(cluster.start())
            if attempt < SETUPS - 1:
                cluster.stop()
        bench = Bench(args.workload, spec, args.seed, files, cluster.ports)
        bench.hosts = cluster.hosts
        for host in cluster.hosts:
            bench.loop.watch(host.proc.stdout, host.on_readable)
        gc.collect()
        gc.freeze()
        gc.disable()
        warmup_s = warm_up(bench, spec)
        if args.trace:
            result = traced_run(bench, cluster, spec, args.seconds)
        else:
            result = measured_run(bench, cluster, spec, args.seconds)
        result["warmup_s"] = warmup_s
    finally:
        gc.enable()
        cluster.close()
    return report(args, spec, bench, result, setups, dataset_dir)


def window_cpu(cluster: Cluster, bench: Bench, name: str, seconds: float,
               rate: float, parts: int = 1) -> Tuple[Phase, float, float]:
    """A nominal-rate window, with server and generator CPU over it."""
    cpu0 = cluster.cpu_seconds()
    gen0 = time.process_time()
    wall0 = time.monotonic()
    phase = bench.run_phase(name, seconds, rate, probe=cluster.cpu_seconds,
                            parts=parts)
    cpu = cluster.cpu_seconds() - cpu0
    gen_share = (time.process_time() - gen0) / (time.monotonic() - wall0)
    return phase, cpu, gen_share


def measured_run(bench: Bench, cluster: Cluster, spec: dict,
                 seconds: float) -> dict:
    nominal_s = 0.6 * seconds
    phase, _, gen_share = window_cpu(cluster, bench, "nominal", nominal_s,
                                     spec["rate"], parts=CPU_PARTS)
    capacity_rps, capacity_mbps, cap_views = capacity_search(
        bench, spec["rate"], seconds - nominal_s)
    return {"phase": phase, "gen_share": gen_share,
            "capacity_rps": capacity_rps, "capacity_MBps": capacity_mbps,
            "capacity_views": cap_views}


def traced_run(bench: Bench, cluster: Cluster, spec: dict,
               seconds: float) -> dict:
    half = seconds / 2
    plain, plain_cpu, _ = window_cpu(cluster, bench, "untraced", half,
                                     spec["rate"])
    for host in cluster.hosts:
        host.call({"op": "trace"})
    bench.loop.extra_header = "X-Bench-Id"
    before = cluster.stats()
    phase, cpu, gen_share = window_cpu(cluster, bench, "traced", half,
                                       spec["rate"])
    after = cluster.stats()
    summaries = [host.call({"op": "trace_summary", "t0": phase.t0,
                            "t1": time.monotonic()})
                 for host in cluster.hosts]
    for host in cluster.hosts:
        host.call({"op": "trace_dump", "path": os.path.join(
            cluster.run_dir, f"spans{host.index}.jsonl")})
    responses = sum(phase.responses)
    layers = layer_metrics(before, after, summaries, cpu, responses, phase)
    untraced = plain_cpu / max(1, sum(plain.responses)) * 1e6
    traced = cpu / max(1, responses) * 1e6
    layers["gen.cpu_share"] = (gen_share, "ratio", 1)
    layers["gen.connections_opened"] = (
        float(bench.loop.connections_opened), "count",
        bench.loop.connections_opened)
    layers["trace.cpu_us_per_req_untraced"] = (untraced, "us",
                                               sum(plain.responses))
    layers["trace.cpu_us_per_req_traced"] = (traced, "us", responses)
    layers["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0,
                                      "ratio", responses)
    return {"phase": phase, "layers": layers, "gen_share": gen_share}


def report(args, spec, bench: Bench, result: dict, setups: List[float],
           dataset_dir: str) -> int:
    phase: Phase = result["phase"]
    late_p99 = percentile(phase.lateness, 0.99)
    valid = late_p99 <= LATE_BOUND
    p50, p99, beyond, samples = page_stats(phase)
    responses = max(1, sum(phase.responses))
    shares = [r / responses for r in phase.responses[:spec["servers"]]]
    metrics: Dict[str, Tuple[float, str, int]] = {}
    if args.trace:
        metrics = result["layers"]
    else:
        # Median over slices of the window: a regeneration burst after a
        # migration lands in one slice and does not move the figure.
        cpu_us = statistics.median(phase.cpu_parts) * 1e6
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "capacity_rps": (result["capacity_rps"], "1/s",
                             result["capacity_views"]),
            "capacity_MBps": (result["capacity_MBps"], "MB/s",
                              result["capacity_views"]),
            "page_p50_ms": (p50 * 1e3, "ms", samples),
            "page_p99_ms": (p99 * 1e3, "ms", samples),
            "server_cpu_us_per_req": (cpu_us, "us", responses),
        }
    writes = sorted(phase.writes)
    extra = {
        "error_rate": (bench.failed / max(1, bench.attempted), "fraction",
                       bench.attempted),
        "redirects_per_page": (phase.redirects / max(1, phase.views), "hops",
                               phase.views),
        "imbalance": (max(shares) * len(shares), "ratio", responses),
    }
    if spec.get("update_share"):
        extra["write_p50_ms"] = (percentile(writes, 0.5) * 1e3, "ms",
                                 len(writes))
        extra["write_p99_ms"] = (percentile(writes, 0.99) * 1e3, "ms",
                                 len(writes))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, n) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<34} {value:>14.4f} {unit:<8} n={n}")
    print(f"  page-view samples beyond p99: {beyond}")
    if bench.steps:
        print("  capacity steps: " + "; ".join(bench.steps))
    if bench.reasons:
        print(f"  failures: {bench.reasons}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "filesystem": fs_type(dataset_dir), "network": "loopback",
        "nominal_rate": spec["rate"], "latency_limit_ms":
            LATENCY_LIMIT * 1e3,
        "setups_s": setups, "warmup_s": result["warmup_s"],
        "metrics": {name: [value, unit, n] for name, (value, unit, n) in
                    list(metrics.items()) + list(extra.items())},
        "gen_late_us_p99": late_p99 * 1e6, "gen_late_bound_us":
            LATE_BOUND * 1e6,
        "gen_cpu_share": result["gen_share"],
        "gen_connections_opened": bench.loop.connections_opened,
        "server_cpu_us_per_req_slices": [round(x * 1e6, 1)
                                         for x in phase.cpu_parts],
        "valid": valid,
    }
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    with open(os.path.join(WORK, "records", f"{args.workload}-{args.seed}-"
                           f"{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print("record " + json.dumps(record))
    if not valid:
        print(f"  INVALID RUN: generator lateness p99 {late_p99 * 1e6:.0f} us "
              f"exceeds {LATE_BOUND * 1e6:.0f} us")
    # The result carries exactly the metrics BENCHMARK.json names for the
    # mode; everything else above is printed only.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    everything = dict(metrics, **extra)
    out = {"correct": bench.failed == 0 and valid,
           "attempted": bench.attempted, "failed": bench.failed,
           "metrics": {m["name"]: {"value": everything[m["name"]][0],
                                   "unit": m["unit"]} for m in declared}}
    print(json.dumps(out))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
