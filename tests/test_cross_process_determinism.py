"""Engine decisions must not depend on the per-process hash salt.

Python salts ``hash()`` of strings per process (``PYTHONHASHSEED``), so a
decision derived from it differs between ``--workers`` processes and
between runs.  This runs one tiny engine scenario in two interpreters
with different hash seeds and requires identical answers for the
decisions that used to consult ``hash()``: the jittered first validation
deadline of a co-op copy (after a lazy pull and after a warm install)
and the replication groups' two-choices replica pick.
"""

import json
import os
import subprocess
import sys

import repro

SCENARIO = """\
import json

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.engine import PURPOSE_HEADER, DCWSEngine
from repro.server.filestore import MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
PAGES = {f"/p{i}.html": f"<html>page {i}</html>".encode() for i in range(8)}


def get(engine, path, now, headers=None):
    request = Request(method="GET", target=path)
    for name, value in (headers or {}).items():
        request.headers.set(name, value)
    return engine.handle_request(request, now)


config = ServerConfig(stats_interval=1000.0, replication_k=3)
home = DCWSEngine(HOME, config, MemoryStore(PAGES), peers=(COOP,))
coop = DCWSEngine(COOP, config, MemoryStore(), peers=(HOME,))
home.initialize(0.0)
coop.initialize(0.0)

# Lazy pulls: the co-op registers each copy's first validation deadline.
for i in range(4):
    pull = get(coop, f"/~migrate/home/8001/p{i}.html", 1.0)
    upstream = get(home, pull.request.target, 1.0,
                   {PURPOSE_HEADER: "migration-pull"})
    coop.complete_pull(pull, upstream.response, now=1.0)
# Warm installs take the other registration path.
for i in range(4, 8):
    coop.seed_hosted(HOME, f"/p{i}.html", PAGES[f"/p{i}.html"], 1, 1.0)
deadlines = {str(key): coop.validation.last_serviced(key)
             for key in coop.validation.keys()}

# Replication groups: two-choices pick among a document's holders.
record = home.graph.get("/p0.html")
record.location = Location("r0", 80)
record.replicas = {Location(f"r{i}", 80) for i in range(1, 3)}
picks = [str(home.replication.pick(record, salt=f"/referrer{i}.html"))
         for i in range(16)]

print(json.dumps({"deadlines": deadlines, "picks": picks}))
"""


def run_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", SCENARIO], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return json.loads(out)


def test_decisions_identical_across_hash_seeds():
    first = run_with_hash_seed("1")
    second = run_with_hash_seed("2")
    assert len(first["deadlines"]) == 8
    assert first["deadlines"] == second["deadlines"]
    # The jitter actually spreads the deadlines (it is not a constant).
    assert len(set(first["deadlines"].values())) > 1
    assert first["picks"] == second["picks"]
    assert len(set(first["picks"])) > 1
