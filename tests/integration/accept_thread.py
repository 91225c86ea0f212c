"""The event loop fed by a dedicated accept thread.

:class:`AcceptThreadServer` starts :class:`AsyncDCWSServer` in fd-handoff
mode (``accept_connections=False``) and runs one blocking accept thread
that hands every client socket to the loop through
:meth:`~repro.server.aio.AsyncDCWSServer.adopt_connection` — the §5.1
prototype's accept-thread layout, and the entry point the multi-process
supervisor's fd handoff uses.  The real-socket suites parametrize over it
(test id ``threaded``) next to the loop's own accept path (id ``aio``):
both must give the same answers.
"""

import socket
import threading
from typing import Optional

from repro.server.aio import AsyncDCWSServer


class AcceptThreadServer(AsyncDCWSServer):
    """An :class:`AsyncDCWSServer` whose connections arrive from an
    accept thread instead of the loop's own listener."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._acceptor: Optional[threading.Thread] = None
        self._accept_listener: Optional[socket.socket] = None
        self._accept_stop = threading.Event()

    def start(self, listener: Optional[socket.socket] = None, *,
              accept_connections: bool = True) -> None:
        super().start(accept_connections=False)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.bind_host, self.port))
            sock.listen(self.engine.config.listen_backlog)
        except OSError:
            sock.close()
            super().stop()
            raise
        sock.settimeout(0.1)  # lets the thread notice stop()
        self._accept_listener = sock
        self._accept_stop.clear()
        self._acceptor = threading.Thread(
            target=self._accept_forever, args=(sock,),
            name=f"dcws-accept-{self.port}", daemon=True)
        self._acceptor.start()

    def _accept_forever(self, listener: socket.socket) -> None:
        while not self._accept_stop.is_set():
            try:
                client, __ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.adopt_connection(client)

    def stop(self) -> None:
        if self._acceptor is not None:
            self._accept_stop.set()
            self._acceptor.join(timeout=5.0)
            self._acceptor = None
        if self._accept_listener is not None:
            self._accept_listener.close()
            self._accept_listener = None
        super().stop()
