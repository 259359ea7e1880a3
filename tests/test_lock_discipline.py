"""The lock-discipline lint: socket, sleep and IPC-wait rules."""

import importlib.util
import textwrap
from pathlib import Path

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "check_lock_discipline.py")
_spec = importlib.util.spec_from_file_location("check_lock_discipline",
                                               _SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source))
    return [(line, reason) for _path, line, reason
            in lint.check_file(path)]


def test_socket_and_sleep_rules_still_fire(tmp_path):
    violations = _check(tmp_path, """\
        import time

        def tick(self):
            with self.lock:
                self.sock.sendall(b"x")
                time.sleep(1)
    """)
    assert [reason for _line, reason in violations] == [
        "socket .sendall() under a lock", "time.sleep under a lock"]


def test_ipc_wait_under_lock_is_flagged(tmp_path):
    violations = _check(tmp_path, """\
        def tick(self):
            with self.lock:
                self.conn.poll(1.0)
                self.job_queue.get()
                self.worker.join(2.0)
                self.reply_conn.recv_bytes()
    """)
    assert [reason for _line, reason in violations] == [
        "IPC wait .poll() under a lock",
        "IPC wait .get() under a lock",
        "IPC wait .join() under a lock",
        "IPC wait .recv_bytes() under a lock",
    ]


def test_plain_dict_get_and_str_join_are_not_flagged(tmp_path):
    violations = _check(tmp_path, """\
        def tick(self):
            with self.lock:
                value = self.table.get("key")
                text = ", ".join(self.names)
                self.results.wait_list = []
    """)
    assert violations == []


def test_selector_select_under_lock_is_flagged(tmp_path):
    """The I/O-shard hazard: blocking in select while holding a lock
    parks every client on the shard behind that lock's waiters."""
    violations = _check(tmp_path, """\
        def run(self):
            with self._ops_lock:
                events = self.selector.select(0.1)
    """)
    assert violations == [(3, "IPC wait .select() under a lock")]


def test_select_on_non_selector_receiver_is_not_flagged(tmp_path):
    violations = _check(tmp_path, """\
        def run(self):
            with self.lock:
                chosen = self.policy.select(candidates)
    """)
    assert violations == []


def test_selector_select_outside_lock_is_fine(tmp_path):
    violations = _check(tmp_path, """\
        def run(self):
            while self.running:
                events = self.selector.select(0.5)
                with self._ops_lock:
                    ops = list(self._ops)
    """)
    assert violations == []


def test_lock_ok_pragma_exempts_a_bounded_wait(tmp_path):
    violations = _check(tmp_path, """\
        def tick(self):
            with self.lock:
                # lock-ok: bounded render barrier
                self.conn.poll(0.5)
                self.conn.poll(0.5)
    """)
    # Only the un-pragma'd second wait is flagged.
    assert violations == [(5, "IPC wait .poll() under a lock")]


def test_outside_lock_is_fine(tmp_path):
    violations = _check(tmp_path, """\
        def tick(self):
            self.conn.poll(1.0)
            self.sock.sendall(b"x")
    """)
    assert violations == []


def _check_implicit(tmp_path, source, exempt=frozenset()):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source))
    return [(line, reason) for _path, line, reason
            in lint.check_file(path, implicit_exempt=exempt)]


def test_implicit_lock_rule_flags_bare_sendall(tmp_path):
    # No lexical ``with lock:`` anywhere -- the implicit rule treats the
    # whole function body as locked (the gateway tick path).
    violations = _check_implicit(tmp_path, """\
        def tick(self, frames):
            self.sock.sendall(b"x")
    """)
    assert [reason for _line, reason in violations] == [
        "socket .sendall() under a lock"]


def test_implicit_lock_rule_exempts_named_threads(tmp_path):
    violations = _check_implicit(tmp_path, """\
        def _connect_route(self, route):
            self.sock.sendall(b"handshake")

        def tick(self, frames):
            self.inbound.popleft()
    """, exempt=frozenset({"_connect_route"}))
    assert violations == []


def test_implicit_lock_rule_skips_nested_thread_targets(tmp_path):
    # A def nested inside a method runs on its own thread later; the
    # implicit rule must not leak into it.
    violations = _check_implicit(tmp_path, """\
        def tick(self, frames):
            def worker():
                self.sock.sendall(b"x")
            return worker
    """)
    assert violations == []


def test_implicit_lock_rule_honours_pragma(tmp_path):
    violations = _check_implicit(tmp_path, """\
        def send_on(self, link, frame):
            # lock-ok: queue handoff, not socket I/O
            link.send(frame)
    """)
    assert violations == []


def test_gateway_is_registered_for_the_implicit_rule():
    assert "trunk/gateway.py" in lint.IMPLICIT_LOCK_FILES
    exempt = lint.IMPLICIT_LOCK_FILES["trunk/gateway.py"]
    assert {"_connect_route", "_handshake"} <= set(exempt)
    assert not {"_accept_loop", "_accept_handshake"} & set(exempt)


def test_shared_listener_is_scanned():
    # The accept loop lives outside server/ and trunk/; it must not
    # leave the lint's reach.
    assert lint._SRC / "listener.py" in lint.SCAN_PATHS


def test_routing_table_is_registered_with_no_exemptions():
    # Pure data mutated on the tick: every function is implicitly under
    # the topology lock and none may block.
    assert lint.IMPLICIT_LOCK_FILES["trunk/routing.py"] == frozenset()


def test_discovery_is_registered_with_its_thread_loops_exempt():
    exempt = lint.IMPLICIT_LOCK_FILES["trunk/discovery.py"]
    assert {"_serve", "_handle", "poll_once"} <= set(exempt)
    assert "_serve_loop" not in exempt


def test_implicit_rule_would_catch_socket_io_in_a_route_table(tmp_path):
    # Guards the routing.py entry: a RouteTable method that grew a
    # socket write would fail the lint, not just code review.
    violations = _check_implicit(tmp_path, """\
        def learn(self, link, prefix, origin, hops, seq):
            link.sock.sendall(b"advert")
    """, exempt=lint.IMPLICIT_LOCK_FILES["trunk/routing.py"])
    assert [reason for _line, reason in violations] == [
        "socket .sendall() under a lock"]


def test_discovery_poll_io_is_exempt_but_snapshot_reads_are_not(tmp_path):
    violations = _check_implicit(tmp_path, """\
        def poll_once(self):
            self.sock.sendall(b"register")

        def peers(self):
            self.sock.recv(4)
    """, exempt=lint.IMPLICIT_LOCK_FILES["trunk/discovery.py"])
    assert [reason for _line, reason in violations] == [
        "socket .recv() under a lock"]
