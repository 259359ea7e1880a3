"""One live trunk connection: a socket and its two pump threads.

A :class:`TrunkLink` owns an already-handshaken socket and two threads:

* the **reader** parses frames off the wire through a buffered
  incremental :class:`~repro.trunk.wire.FrameStream` (a frame costs
  amortized ~0 syscalls).  Bearer is handled as it arrives: each
  ``AUDIO_BATCH`` goes straight to :attr:`TrunkLink.on_bearer`, which
  the gateway points at its bearer path (push into a leg's jitter
  buffer, or cut a transit call through to its onward link).
  Signaling and route adverts wait in an inbound deque for the
  gateway's tick, so exchange state still changes only under the
  exchange's clock;
* the **writer** drains the outbound queue in *sweeps* -- one blocking
  ``get`` plus a ``get_nowait`` run -- encodes the whole sweep into one
  reused buffer (consecutive bearer batches collapse into a single
  ``AUDIO_BATCH``), and emits one ``sendall`` per sweep.  It only
  writes what was queued: the gateway's tick queues a PING on a link
  that has queued nothing for a keepalive interval, and the reader
  answers a peer's PING with a PONG.

The gateway's tick thread runs inside the audio block cycle, under the
server's topology lock -- so the link never does socket I/O on behalf of
a caller: ``send`` is an enqueue, and a peer that stops reading costs at
most the bounded outbound queue (bearer audio is shed; signaling is
never dropped).  Liveness is the reader's last-received timestamp and
idleness the last-queued one; the gateway reads both on its tick.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

from ..protocol.wire import ConnectionClosed, set_nodelay
from .wire import (
    FrameStream,
    FrameType,
    Handshake,
    TrunkFrame,
    TrunkProtocolError,
    encode_audio_batch_into,
)

log = logging.getLogger(__name__)

#: Outbound frames queued before AUDIO shedding starts.  ~256 blocks is
#: five seconds of bearer at 20 ms blocks -- far beyond any healthy
#: link's in-flight window.
DEFAULT_OUTBOUND_BOUND = 256

#: Upper bound on frames drained per writer sweep; keeps one sweep's
#: encode buffer (and the latency of whatever queued behind it) bounded.
MAX_WRITE_SWEEP = 512


class TrunkLink:
    """A handshaken trunk connection being pumped in both directions."""

    def __init__(self, sock: socket.socket, peer: Handshake, *,
                 initiated: bool,
                 outbound_bound: int = DEFAULT_OUTBOUND_BOUND,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.sock = sock
        self.name = peer.name
        self.outbound_bound = outbound_bound
        self.alive = True
        #: The gateway's clock; it stamps ``last_rx`` and ``last_queued``.
        self.now = clock
        self.last_rx = clock()
        #: When ``send`` or ``send_batch`` last accepted a frame.
        self.last_queued = self.last_rx
        # The endpoint that opened the TCP connection allocates odd call
        # ids, the acceptor even, so calls originated simultaneously at
        # both ends can never collide (see trunk/wire.py).
        self._next_call_id = 1 if initiated else 2
        #: Parsed signaling frames awaiting the gateway's tick, oldest
        #: first.
        self.inbound: deque[TrunkFrame] = deque()
        #: Called on the reader thread as ``on_bearer(link, entries)``
        #: for every AUDIO_BATCH; the gateway sets it before
        #: :meth:`start`.
        self.on_bearer = lambda link, entries: None
        # Tallies the gateway folds into trunk.* metrics.
        self.shed_audio_frames = 0
        self.sendalls = 0           # syscalls spent writing
        self.recvs = 0              # syscalls spent reading
        self.batch_frames_out = 0   # AUDIO_BATCH frames emitted
        self.batch_entries_out = 0  # bearer payloads packed into them
        self._outbound: queue.Queue = queue.Queue()
        self._audio_queued = 0      # bearer payloads currently enqueued
        self._counts_lock = threading.Lock()
        self._close_lock = threading.Lock()
        set_nodelay(sock)
        self._reader = threading.Thread(
            target=self._read_loop, name="trunk-read-%s" % self.name,
            daemon=True)
        self._writer = threading.Thread(
            target=self._write_loop, name="trunk-write-%s" % self.name,
            daemon=True)

    def start(self) -> "TrunkLink":
        self._reader.start()
        self._writer.start()
        return self

    def allocate_call_id(self) -> int:
        """The next call id this endpoint may originate with."""
        with self._counts_lock:
            call_id = self._next_call_id
            self._next_call_id += 2
        return call_id

    # -- sending (called under the exchange lock: enqueue only) ---------------

    def send(self, frame: TrunkFrame) -> bool:
        """Queue a signaling or keepalive frame; False on a dead link.

        Never shed: a lost RELEASE would leak a call on the peer.
        Bearer audio goes through :meth:`send_batch` instead.
        """
        if not self.alive:
            return False
        self._outbound.put(frame)
        self.last_queued = self.now()
        return True

    def send_batch(self, entries) -> int:
        """Queue one flush window's bearer payloads; entries accepted.

        ``entries`` are ``(call_id, seq, mulaw_payload)`` tuples.  The
        batch is all-or-nothing against the outbound bound: a saturated
        queue sheds the whole window (the far side conceals one block of
        every call) rather than an arbitrary prefix of it.  The shed
        check, the tally bump and the enqueue happen under one lock so
        the decision cannot interleave with the writer's drain-time
        decrement (``Queue.put`` on an unbounded queue never blocks).
        """
        if not self.alive or not entries:
            return 0
        count = len(entries)
        with self._counts_lock:
            if self._audio_queued + count > self.outbound_bound:
                self.shed_audio_frames += count
                return 0
            self._audio_queued += count
            self._outbound.put(TrunkFrame(FrameType.AUDIO_BATCH,
                                          entries=tuple(entries)))
        self.last_queued = self.now()
        return count

    # -- pump threads ---------------------------------------------------------

    def _read_loop(self) -> None:
        stream = FrameStream(self.sock)
        now = self.now
        try:
            while self.alive:
                frames = stream.read_frames()
                self.recvs = stream.recvs
                self.last_rx = now()
                for frame in frames:
                    frame_type = frame.type
                    if frame_type is FrameType.AUDIO_BATCH:
                        self.on_bearer(self, frame.entries)
                    elif frame_type is FrameType.PING:
                        self.send(TrunkFrame(FrameType.PONG,
                                             token=frame.token))
                    elif frame_type is FrameType.PONG:
                        pass
                    else:
                        self.inbound.append(frame)
        except (ConnectionClosed, OSError):
            pass
        except TrunkProtocolError as exc:
            log.warning("trunk link %s: protocol violation: %s",
                        self.name, exc)
        finally:
            self.close()

    def _write_loop(self) -> None:
        out = bytearray()
        try:
            while self.alive:
                frame = self._outbound.get()
                if frame is None:
                    break
                # Sweep: drain whatever queued behind the first frame so
                # the whole backlog goes out in one write.
                sweep = [frame]
                stop = False
                while len(sweep) < MAX_WRITE_SWEEP:
                    try:
                        extra = self._outbound.get_nowait()
                    except queue.Empty:
                        break
                    if extra is None:
                        stop = True
                        break
                    sweep.append(extra)
                del out[:]
                audio_blocks = self._encode_sweep(sweep, out)
                if audio_blocks:
                    with self._counts_lock:
                        self._audio_queued -= audio_blocks
                self.sock.sendall(out)
                self.sendalls += 1
                if stop:
                    break
        except OSError:
            pass
        finally:
            self.close()

    def _encode_sweep(self, sweep: list[TrunkFrame],
                      out: bytearray) -> int:
        """Encode a sweep, collapsing bearer runs into one AUDIO_BATCH.

        Frame order is preserved: signaling flushes the current bearer
        run before being written, so RELEASE never overtakes the audio
        queued ahead of it.  Returns the number of bearer blocks encoded.
        """
        run: list = []
        blocks = 0
        for frame in sweep:
            if frame.type is FrameType.AUDIO_BATCH:
                run.extend(frame.entries)
            else:
                blocks += self._flush_run(run, out)
                out += frame.encode()
        return blocks + self._flush_run(run, out)

    def _flush_run(self, run: list, out: bytearray) -> int:
        """Write the pending bearer run as one AUDIO_BATCH; its size."""
        count = len(run)
        if count:
            encode_audio_batch_into(out, run)
            self.batch_frames_out += 1
            self.batch_entries_out += count
            run.clear()
        return count

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        with self._close_lock:
            if not self.alive:
                return
            self.alive = False
        self._outbound.put(None)    # wake the writer
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
