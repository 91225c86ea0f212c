"""Server layer: document stores, the DCWS request engine, real sockets.

:class:`~repro.server.engine.DCWSEngine` is transport-independent — it is
hosted unchanged by both the real socket server
(:class:`~repro.server.aio.AsyncDCWSServer`, the event-loop host of the
paper's section 5.1 prototype) and the discrete-event simulator
(:mod:`repro.sim`), so every policy decision measured in the benchmarks is
made by the same code that serves real sockets.
"""

from repro.server.aio import AsyncDCWSServer
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    OutboundAction,
    PullFromHome,
)
from repro.server.filestore import (
    DiskStore,
    DocumentStore,
    MemoryStore,
    guess_content_type,
)

__all__ = [
    "AsyncDCWSServer",
    "DCWSEngine",
    "DiskStore",
    "DocumentStore",
    "EngineReply",
    "MemoryStore",
    "OutboundAction",
    "PullFromHome",
    "guess_content_type",
]
