"""The one TCP accept loop every service in the reproduction shares.

The paper's connection manager accepts sockets and hands each one to a
container of its own (paper sections 4.1 and 6.1).  The audio server,
the trunk gateway, the mesh registry and the chaos proxy all need that
manager, so they all use this :class:`Listener`: bind, listen, accept on
one thread, and run the owner's ``handler(sock)`` on a short-lived
thread per connection, so one silent peer stalls only itself.

A handler owns its socket: it bounds its own handshake I/O where a
silent peer must not pin a thread, and it re-checks its owner's running
flag, under the owner's lock, before it registers what it built --
:meth:`Listener.stop` may already have run and the owner may already
have swept its connections.
"""

from __future__ import annotations

import socket
import threading

#: Listen backlog for every service.  The kernel caps it at somaxconn;
#: the C10k soak ramps hundreds of connects in bursts, and a shallow
#: queue would silently reset the overflow.
BACKLOG = 1024

#: Upper bound on stop()'s wait for the accept thread.  shutdown() wakes
#: a blocked accept() at once, so this only matters if that fails.
JOIN_TIMEOUT = 2.0


class Listener:
    """Accept TCP connections on ``(host, port)`` for ``handler``.

    ``port`` 0 binds an ephemeral port; :attr:`port` holds the bound one
    after :meth:`start`.  ``name`` names the accept thread; each
    connection's handler thread is ``name + "-conn"``.
    """

    def __init__(self, host: str, port: int, handler, name: str) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.name = name
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "Listener":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(BACKLOG)
        except OSError:
            sock.close()
            raise
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._thread = threading.Thread(target=self._accept_loop,
                                        args=(sock,), name=self.name,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() wakes the thread blocked in accept(); close()
            # alone does not on Linux.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=JOIN_TIMEOUT)

    def _accept_loop(self, sock: socket.socket) -> None:
        while True:
            try:
                conn, _addr = sock.accept()
            except OSError:
                return
            threading.Thread(target=self.handler, args=(conn,),
                             name=self.name + "-conn", daemon=True).start()
