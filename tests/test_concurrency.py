"""Lock decomposition, batched dispatch, and setup-failure hygiene.

The acceptance contract for the multicore block cycle: pure queries
complete while the tick (or anything else) holds the topology lock, a
reader's drained request batch preserves per-client order exactly, the
new lock/tick instruments surface through GET_SERVER_STATS, and a peer
that drops mid-handshake neither crashes the setup thread nor leaks its
granted id range.
"""

import socket
import struct
import threading

import pytest

from repro.chaos.fixtures import raw_setup
from repro.protocol import requests as rq
from repro.protocol.setup import SetupRequest
from repro.protocol.wire import (
    Message,
    MessageKind,
    MessageStream,
    Reader,
)
from repro.server.locks import InstrumentedRLock, LockDisciplineError
from repro.server.resources import FIRST_CLIENT_ID, ResourceTable

from conftest import wait_for


def _request_bytes(request, sequence):
    return Message(MessageKind.REQUEST, int(request.OPCODE), sequence,
                   request.encode()).encode()


class TestLockFreeQueries:
    def test_pure_queries_complete_while_tick_holds_the_lock(
            self, server, client):
        loud = client.create_loud()
        loud.map()
        assert loud.query().mapped      # warms the query snapshot
        acquired = threading.Event()
        release = threading.Event()

        def hold_topology_lock():
            with server.lock:
                acquired.set()
                release.wait(timeout=30.0)

        holder = threading.Thread(target=hold_topology_lock, daemon=True)
        holder.start()
        assert acquired.wait(timeout=5.0)
        try:
            # Pure requests: no lock at all.  Each would time out (the
            # Alib default) if it queued behind the held topology lock.
            assert client.server_info().block_frames == 160
            assert client.time().sample_time >= 0
            client.no_op()
            stats = client.server_stats()
            assert stats.counter("dispatch.unlocked_requests") > 0
            # Snapshot-served topology reads: also lock-free.
            assert loud.query().mapped
        finally:
            release.set()
            holder.join(timeout=5.0)

    def test_snapshot_queries_read_their_own_writes(self, server, client):
        loud = client.create_loud()
        assert not loud.query().mapped
        loud.map()
        assert loud.query().mapped      # mutation visible to next query
        loud.unmap()
        assert not loud.query().mapped
        assert server.stats_snapshot()["counters"][
            "querysnapshot.rebuilds"] >= 3

    def test_lock_and_tick_histograms_in_server_stats(self, client):
        stats = client.server_stats()
        for name in ("lock.wait_us", "lock.hold_us", "tick.duration_us",
                     "dispatch.batch_size"):
            assert name in stats.histograms, name
        assert stats.histograms["tick.duration_us"].count > 0
        assert stats.histograms["lock.wait_us"].count > 0


class TestDispatchBatching:
    def test_pipelined_requests_keep_order_and_sequence(self, server):
        # Pipeline a locked/pure interleave in one write; the reader
        # drains it as one batch.  Replies must come back in request
        # order with consecutive sequence numbers.
        sock = raw_setup(server.port, client_name="pipeline")
        try:
            pattern = [rq.GetTime(), rq.ListProperties(resource=1),
                       rq.QueryServer(), rq.QueryLoud(loud=1)] * 10
            blob = b"".join(_request_bytes(request, index + 1)
                            for index, request in enumerate(pattern))
            sock.sendall(blob)
            stream = MessageStream(sock)
            sock.settimeout(10.0)
            for index, request in enumerate(pattern):
                reply = stream.read_message()
                assert reply.kind is MessageKind.REPLY
                assert reply.sequence == index + 1
                decoded = request.REPLY.read_payload(Reader(reply.payload))
                assert isinstance(decoded, request.REPLY)
            counters = server.stats_snapshot()["counters"]
            assert counters["requests.GET_TIME"] == 10
            assert counters["requests.QUERY_LOUD"] == 10
            batches = server.stats_snapshot()["histograms"][
                "dispatch.batch_size"]
            assert batches["count"] >= 1
        finally:
            sock.close()

    def test_pipeline_past_one_dispatch_batch_all_replied(self, server):
        # 200 requests in one write land in one shard read, more than
        # one dispatch batch holds.  The client sends nothing more, so
        # no later readiness event can pick up requests left in the
        # shard's receive buffer: every reply must come anyway.
        sock = raw_setup(server.port, client_name="pipeline-200")
        try:
            sock.sendall(b"".join(_request_bytes(rq.GetTime(), index + 1)
                                  for index in range(200)))
            stream = MessageStream(sock)
            sock.settimeout(10.0)
            for index in range(200):
                reply = stream.read_message()
                assert reply.kind is MessageKind.REPLY
                assert reply.sequence == index + 1
        finally:
            sock.close()

    def test_read_batch_drains_buffered_messages(self):
        # Deterministic wire-level check: everything already buffered
        # comes back in one read_batch call, capped at the limit, and
        # the first read still blocks for at least one message.
        # read_batch is only the tracer's name for read_burst.
        assert MessageStream.read_batch is MessageStream.read_burst
        left, right = socket.socketpair()
        try:
            blob = b"".join(_request_bytes(rq.GetTime(), index + 1)
                            for index in range(10))
            left.sendall(blob)
            stream = MessageStream(right)
            right.settimeout(5.0)
            batch = stream.read_batch(limit=64)
            assert [message.sequence for message in batch] == list(
                range(1, 11))
            left.sendall(b"".join(_request_bytes(rq.GetTime(), index + 1)
                                  for index in range(8)))
            capped = stream.read_batch(limit=3)
            assert len(capped) == 3
            rest = stream.read_batch(limit=64)
            assert len(rest) == 5
        finally:
            left.close()
            right.close()


class TestLockDiscipline:
    def test_rank_order_enforced_in_debug_mode(self):
        low = InstrumentedRLock("low", rank=10, debug=True)
        high = InstrumentedRLock("high", rank=20, debug=True)
        with low:
            with high:
                pass            # increasing rank: fine
        with high:
            with pytest.raises(LockDisciplineError):
                low.acquire()
        # The failed acquire must not leave state behind.
        with low:
            with high:
                pass

    def test_reentrant_acquire_is_not_an_order_violation(self):
        lock = InstrumentedRLock("re", rank=10, debug=True)
        with lock:
            with lock:
                pass

    def test_wait_and_hold_observed(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        lock = InstrumentedRLock("measured", rank=10, metrics=registry)
        with lock:
            pass
        snapshot = registry.snapshot()["histograms"]
        assert snapshot["lock.wait_us"]["count"] == 1
        assert snapshot["lock.hold_us"]["count"] == 1


class TestSetupFailureHygiene:
    def test_peer_vanishing_after_setup_releases_the_range(self, server):
        refused_before = server.stats_snapshot()["counters"].get(
            "clients.setup_refused", 0)
        sock = socket.create_connection(("127.0.0.1", server.port))
        # Shrink the send path so the reply hits a dead peer, then
        # vanish without reading the setup reply.
        sock.sendall(SetupRequest(client_name="ghost").encode())
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("<ii", 1, 0))
        sock.close()    # RST: the server's sendall may fail mid-setup
        # Whether the reply send failed (range released) or won the race
        # (client added, then reaped on reader EOF), the server must end
        # up with no ghost client and a reusable table.
        assert wait_for(lambda: len(server.clients_snapshot()) == 0)
        table = server.resources
        # Connect a real client afterwards: the server still works and
        # hands out a valid range.
        with socket.create_connection(("127.0.0.1", server.port)) as ok:
            ok.sendall(SetupRequest(client_name="real").encode())
            ok.settimeout(5.0)
            reply = ok.recv(4096)
            assert reply[0] == 1    # accepted
        assert wait_for(lambda: len(server.clients_snapshot()) <= 1)
        refused_after = server.stats_snapshot()["counters"].get(
            "clients.setup_refused", 0)
        assert refused_after >= refused_before
        assert table is server.resources

    def test_release_range_recycles_and_blocks_resume(self):
        table = ResourceTable()
        base, mask = table.grant_range()
        assert base == FIRST_CLIENT_ID
        assert table.was_granted(base)
        table.release_range(base)
        assert not table.was_granted(base)      # no longer resumable
        again, _ = table.grant_range()
        assert again == base                    # recycled, not leaked
        # A range with live resources is never releasable.
        table.add(again, again + 1, object())
        table.release_range(again)
        assert table.was_granted(again)

    def test_version_refusal_handles_dead_peer(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(SetupRequest(client_name="old", major=99).encode())
        sock.settimeout(5.0)
        reply = sock.recv(4096)
        assert reply[0] == 0    # refused, but answered gracefully
        sock.close()
        assert wait_for(
            lambda: server.stats_snapshot()["counters"].get(
                "clients.setup_refused", 0) >= 1)


class TestLockDisciplineLint:
    def _lint(self):
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).parent.parent
                  / "scripts" / "check_lock_discipline.py")
        spec = importlib.util.spec_from_file_location("lock_lint", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_flags_blocking_calls_under_a_lock(self, tmp_path):
        lint = self._lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "def f(self, sock):\n"
            "    with self.lock:\n"
            "        sock.sendall(b'x')\n"
            "        time.sleep(1)\n"
            "    sock.sendall(b'y')\n"     # outside: fine
            "def g(self):\n"
            "    with self.lock:\n"
            "        def later(sock):\n"
            "            sock.recv(4)\n"   # runs on another thread: fine
            "        return later\n")
        violations = lint.check_file(bad)
        assert [(line, reason.split()[0]) for _, line, reason
                in violations] == [(4, "socket"), (5, "time.sleep")]

    def test_server_tree_is_currently_clean(self):
        lint = self._lint()
        violations = []
        for path in lint.scanned_files():
            violations.extend(lint.check_file(path))
        assert violations == []


class TestStatsSnapshotConsistency:
    def test_clients_connected_matches_client_list(self, server, client,
                                                   second_client):
        client.sync()
        second_client.sync()
        snapshot = server.stats_snapshot()
        assert snapshot["server"]["clients_connected"] == len(
            snapshot["clients"])
        assert snapshot["server"]["clients_connected"] == 2
