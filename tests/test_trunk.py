"""Unit and integration tests for the inter-server trunk subsystem.

The integration tests federate two in-process exchanges over a real TCP
trunk and drive both by hand, so signaling and bearer behaviour is
deterministic: each ``pump`` ticks both exchanges one block and yields
briefly so the link pump threads can move frames.
"""

import contextlib
import random
import re
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.dtmf import DtmfDetector
from repro.dsp.encodings import mulaw_decode, mulaw_encode
from repro.obs import MetricsRegistry
from repro.protocol.wire import Writer, recv_exact
from repro.telephony import CallState, TelephoneExchange
from repro.trunk import (
    TRUNK_MAJOR,
    FrameStream,
    FrameType,
    Handshake,
    InboundLeg,
    JitterBuffer,
    RemoteLine,
    TrunkFrame,
    TrunkGateway,
    TrunkProtocolError,
    decode_frame,
    parse_route,
    read_frame,
)
from repro.trunk.gateway import HANDSHAKE_TIMEOUT

from conftest import dead_port, wait_for
from manual_clock import ManualClock

RATE = 8000
BLOCK = 160


class TestWireFormat:
    def roundtrip(self, frame):
        encoded = frame.encode()
        # Strip the length prefix the way read_frame would.
        assert int.from_bytes(encoded[:4], "little") == len(encoded) - 4
        return decode_frame(encoded[4:])

    def test_setup_roundtrip(self):
        frame = TrunkFrame(FrameType.SETUP2, 7, number="200",
                           caller_id="100", forwarded_from="150",
                           hops=1, via=("A",))
        assert self.roundtrip(frame) == frame

    def test_release_roundtrip(self):
        frame = TrunkFrame(FrameType.RELEASE, 9, reason="busy")
        assert self.roundtrip(frame) == frame

    def test_dtmf_roundtrip(self):
        frame = TrunkFrame(FrameType.DTMF, 3, digits="*42#")
        assert self.roundtrip(frame) == frame

    def test_audio_roundtrip(self):
        payload = mulaw_encode(np.arange(BLOCK, dtype=np.int16))
        frame = TrunkFrame(FrameType.AUDIO_BATCH, entries=((5, 17, payload),))
        assert self.roundtrip(frame) == frame

    def test_ping_pong_roundtrip(self):
        for frame_type in (FrameType.PING, FrameType.PONG):
            frame = TrunkFrame(frame_type, token=123456)
            assert self.roundtrip(frame) == frame

    def test_audio_batch_roundtrip(self):
        entries = tuple(
            (call_id, seq,
             mulaw_encode(np.full(BLOCK, call_id * 311, dtype=np.int16)))
            for call_id, seq in ((1, 5), (2, 9), (7, 0)))
        frame = TrunkFrame(FrameType.AUDIO_BATCH, entries=entries)
        assert self.roundtrip(frame) == frame

    def test_audio_batch_empty_payloads_roundtrip(self):
        frame = TrunkFrame(FrameType.AUDIO_BATCH,
                           entries=((3, 1, b""), (4, 2, b"")))
        assert self.roundtrip(frame) == frame

    def test_audio_batch_rejects_absurd_count(self):
        body = (bytes([int(FrameType.AUDIO_BATCH)])
                + (1 << 31).to_bytes(4, "little"))
        with pytest.raises(TrunkProtocolError):
            decode_frame(body)

    def test_frame_stream_reassembles_across_reads(self):
        left, right = socket.socketpair()
        try:
            frames = [
                TrunkFrame(FrameType.ALERTING, 11),
                TrunkFrame(FrameType.AUDIO_BATCH, entries=((5, 1, b"abc"),)),
                TrunkFrame(FrameType.AUDIO_BATCH,
                           entries=((1, 2, b"xy"), (3, 4, b"z"))),
                TrunkFrame(FrameType.RELEASE, 5, reason="done"),
            ]
            blob = b"".join(frame.encode() for frame in frames)
            # Dribble the stream in awkward slices; the framer must
            # reassemble exactly the original frames regardless.
            for start in range(0, len(blob), 7):
                left.sendall(blob[start:start + 7])
            stream = FrameStream(right)
            got = []
            while len(got) < len(frames):
                got.extend(stream.read_frames())
            assert got == frames
        finally:
            left.close()
            right.close()

    def test_unknown_type_rejected(self):
        with pytest.raises(TrunkProtocolError):
            decode_frame(bytes([99]) + b"\x00" * 4)

    def test_retired_per_frame_audio_type_rejected(self):
        # Type 6 carried per-frame AUDIO in major version 1; it is
        # unassigned now, so a well-formed old AUDIO body is refused.
        body = (bytes([6]) + (5).to_bytes(4, "little")
                + (17).to_bytes(4, "little") + (3).to_bytes(4, "little")
                + b"abc")
        with pytest.raises(TrunkProtocolError, match="unknown frame type 6"):
            decode_frame(body)

    def test_retired_plain_setup_type_rejected(self):
        # Type 1 carried plain SETUP (SETUP2 without hops/via) in major
        # version 2; it is unassigned now, so a well-formed old SETUP
        # body is refused.
        writer = Writer()
        writer.u8(1)
        writer.u32(7)
        for text in ("200", "100", ""):
            writer.string(text)
        with pytest.raises(TrunkProtocolError, match="unknown frame type 1"):
            decode_frame(writer.getvalue())

    def test_trailing_garbage_rejected(self):
        body = TrunkFrame(FrameType.ANSWER, 1).encode()[4:] + b"x"
        with pytest.raises(TrunkProtocolError):
            decode_frame(body)

    def test_read_frame_over_socket(self):
        left, right = socket.socketpair()
        try:
            frame = TrunkFrame(FrameType.ALERTING, 11)
            left.sendall(frame.encode())
            assert read_frame(right) == frame
        finally:
            left.close()
            right.close()

    def test_read_frame_rejects_oversize(self):
        left, right = socket.socketpair()
        try:
            left.sendall((1 << 24).to_bytes(4, "little"))
            with pytest.raises(TrunkProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()


class TestHandshake:
    def test_roundtrip_over_socket(self):
        left, right = socket.socketpair()
        try:
            sent = Handshake("server-a", sample_rate=8000)
            left.sendall(sent.encode())
            assert Handshake.read_from(right) == sent
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"XXXX" + b"\x00" * 16)
            with pytest.raises(TrunkProtocolError):
                Handshake.read_from(right)
        finally:
            left.close()
            right.close()

    def test_major_version_mismatch_refused(self):
        ours = Handshake("a", major=1)
        theirs = Handshake("b", major=2)
        assert ours.compatible_with(theirs) is not None
        assert ours.compatible_with(Handshake("b", major=1)) is None

    def test_sample_rate_mismatch_refused(self):
        ours = Handshake("a", sample_rate=8000)
        theirs = Handshake("b", sample_rate=16000)
        assert "sample rate" in ours.compatible_with(theirs)

    def test_own_name_refused(self):
        assert "own name" in Handshake("a").compatible_with(Handshake("a"))


class TestParseRoute:
    def test_parse(self):
        assert parse_route("2=10.0.0.1:9999") == ("2", "10.0.0.1", 9999)

    def test_rejects_malformed(self):
        for bad in ("2=nohost", "=host:1", "2=host:", "2", "2=h:x"):
            with pytest.raises(ValueError):
                parse_route(bad)


class TestJitterBuffer:
    """The buffer stores raw mu-law bytes; pushes are encoded payloads
    and pops compare against the exact mu-law roundtrip."""

    def _payload(self, value, frames=BLOCK):
        return mulaw_encode(np.full(frames, value * 1000, dtype=np.int16))

    def _decoded(self, value, frames=BLOCK):
        return mulaw_decode(self._payload(value, frames))

    def _pump(self, jb):
        """One gateway pump: pop only if the buffer has audio to play."""
        return jb.pop(BLOCK) if jb.poppable() else None

    def test_in_order_passthrough_on_next_pump(self):
        jb = JitterBuffer()
        jb.push(0, self._payload(1))
        assert jb.poppable()
        out = jb.pop(BLOCK)
        assert np.array_equal(out, self._decoded(1))
        assert jb.underruns == 0

    def test_pop_raw_returns_exact_bytes(self):
        jb = JitterBuffer()
        payload = self._payload(7)
        jb.push(0, payload)
        assert bytes(jb.pop_raw(BLOCK)) == payload

    def test_pop_before_any_arrival_is_silent_without_underrun(self):
        jb = JitterBuffer()
        assert not jb.poppable()
        assert np.all(jb.pop(BLOCK) == 0)
        assert jb.underruns == 0
        jb.push(0, self._payload(1))
        assert np.array_equal(jb.pop(BLOCK), self._decoded(1))

    def test_underrun_counts_and_held_audio_still_plays(self):
        jb = JitterBuffer()
        jb.push(0, self._payload(1))
        self._pump(jb)
        self._pump(jb)                       # ran dry mid-talkspurt
        assert jb.underruns == 1
        assert not jb.poppable()
        # Half a block after the underrun, then the talker stops: it
        # plays on the next pump, never waiting for more audio.
        jb.push(1, self._payload(2, BLOCK // 2))
        out = self._pump(jb)
        assert np.array_equal(out[:BLOCK // 2], self._decoded(2, BLOCK // 2))
        assert np.all(out[BLOCK // 2:] == 0)
        assert jb.underruns == 2
        assert jb.depth_samples == 0

    def test_concealing_an_empty_buffer_keeps_the_sequence(self):
        jb = JitterBuffer()
        jb.push(0, self._payload(1))
        for _ in range(4):
            self._pump(jb)
        jb.push(1, self._payload(2))
        assert jb.late_frames == 0
        assert np.array_equal(self._pump(jb), self._decoded(2))

    def test_late_frames_dropped(self):
        jb = JitterBuffer()
        jb.push(5, self._payload(1))
        jb.pop(BLOCK)
        jb.push(3, self._payload(9))         # from before the stream head
        assert jb.late_frames == 1
        assert jb.depth_samples == 0

    def test_duplicate_behind_a_gap_is_late_and_counted_once(self):
        jb = JitterBuffer()
        frames = 8
        jb.push(0, self._payload(1, frames))
        jb.push(2, self._payload(3, frames))     # waits for seq 1
        jb.push(2, self._payload(5, frames))     # a second copy of seq 2
        assert jb.late_frames == 1
        assert jb.depth_samples == 2 * frames
        jb.push(1, self._payload(2, frames))
        assert jb.depth_samples == 3 * frames
        out = jb.pop(3 * frames)
        assert np.array_equal(out, np.concatenate([
            self._decoded(value, frames) for value in (1, 2, 3)]))
        assert jb.depth_samples == 0
        assert jb.lost_frames == jb.underruns == 0

    def test_gap_concealed_and_counted_lost(self):
        jb = JitterBuffer(reorder_window=2)
        jb.push(0, self._payload(1))
        jb.push(2, self._payload(3))         # seq 1 missing
        jb.push(3, self._payload(4))         # window full: declare 1 lost
        assert jb.lost_frames == 1
        assert np.array_equal(jb.pop(BLOCK), self._decoded(1))
        assert np.array_equal(jb.pop(BLOCK), self._decoded(3))
        assert np.array_equal(jb.pop(BLOCK), self._decoded(4))

    def test_depth_bounded_sheds_oldest(self):
        jb = JitterBuffer(max_depth_samples=4 * BLOCK)
        for seq in range(10):
            jb.push(seq, self._payload(seq + 1))
        assert jb.depth_samples <= 4 * BLOCK
        assert jb.shed_samples == 6 * BLOCK
        # The oldest surviving audio is block 7 (seq 6).
        assert np.array_equal(jb.pop(BLOCK), self._decoded(7))

    def test_depth_is_constant_time_bookkeeping(self):
        jb = JitterBuffer(reorder_window=8)
        jb.push(0, self._payload(1))
        jb.push(3, self._payload(4))         # pending behind the gap
        assert jb.depth_samples == 2 * BLOCK
        jb.pop(BLOCK)
        assert jb.depth_samples == BLOCK


#: Frame length in the property below: small, so schedules stay cheap.
_FRAME = 8

_arrival_schedules = st.lists(
    # Per pump: the frames that arrive before it, each as the number
    # of sequence numbers skipped ahead of it (a gap: never sent).
    st.lists(st.integers(0, 3).map(lambda skip: max(0, skip - 2)),
             max_size=3),
    min_size=1, max_size=60)


class TestJitterBufferPlayout:
    """Playout over random in-order arrival schedules."""

    @given(_arrival_schedules, st.sampled_from([_FRAME // 2, _FRAME,
                                                2 * _FRAME]),
           st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_pops_replay_pushes_with_silence_only_between_frames(
            self, schedule, pop_size, depth_frames, reorder_window):
        jb = JitterBuffer(max_depth_samples=depth_frames * _FRAME,
                          reorder_window=reorder_window)
        pushed = []
        popped = bytearray()
        seq = 0
        # Then quiet pumps: anything buffered must play out in them.
        quiet = [[]] * (4 * depth_frames)
        for arrivals in schedule + quiet:
            for skip in arrivals:
                seq += skip
                # Frame n's bytes are all n % 255: never 0xFF silence,
                # and neighbouring frames always differ.
                frame = bytes([len(pushed) % 255]) * _FRAME
                jb.push(seq, frame)
                pushed.append(frame)
                seq += 1
            if jb.poppable():
                popped += jb.pop_raw(pop_size)
        assert not jb.poppable()        # nothing buffered is left unplayed
        held = jb.drain_raw()           # only frames behind an open gap
        assert jb.late_frames == 0
        assert jb.lost_frames <= seq - len(pushed)
        voiced = bytes(byte for byte in popped if byte != 0xFF)
        assert (len(voiced) + len(held)
                == len(pushed) * _FRAME - jb.shed_samples)
        # In order: the heard frames are an increasing run of the pushed.
        frame_ids = [voiced[0]] if voiced else []
        for byte in voiced[1:]:
            if byte != frame_ids[-1]:
                frame_ids.append(byte)
        assert frame_ids == sorted(set(frame_ids))
        # Silence never splits a frame: the bytes either side differ.
        for match in re.finditer(rb"\xff+", bytes(popped)):
            before, after = match.start() - 1, match.end()
            if before >= 0 and after < len(popped):
                assert popped[before] != popped[after]

    def test_reader_thread_pushes_while_pumps_pop(self):
        frames = [bytes([index % 255]) * _FRAME for index in range(400)]
        jb = JitterBuffer(max_depth_samples=len(frames) * _FRAME)

        def read():
            for seq, frame in enumerate(frames):
                jb.push(seq, frame)
                if seq % 3 == 0:
                    time.sleep(0)

        reader = threading.Thread(target=read)
        popped = bytearray()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            deadline = time.monotonic() + 10.0
            while ((reader.is_alive() or jb.depth_samples)
                   and time.monotonic() < deadline):
                if jb.poppable():
                    popped += jb.pop_raw(_FRAME)
            reader.join(10.0)
            assert not reader.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert jb.depth_samples == 0
        assert bytes(byte for byte in popped if byte != 0xFF) == b"".join(
            frames)
        for match in re.finditer(rb"\xff+", bytes(popped)):
            before, after = match.start() - 1, match.end()
            if before >= 0 and after < len(popped):
                assert popped[before] != popped[after]


class TwoExchanges:
    """Two exchanges federated A->B over a real TCP trunk."""

    def __init__(self):
        self.ex_a = TelephoneExchange(RATE)
        self.ex_b = TelephoneExchange(RATE)
        self.gw_b = TrunkGateway(self.ex_b, name="B",
                                 metrics=MetricsRegistry(),
                                 keepalive_interval=0.1)
        self.gw_b.listen("127.0.0.1", 0)
        self.gw_b.start()
        self.gw_a = TrunkGateway(self.ex_a, name="A",
                                 metrics=MetricsRegistry(),
                                 keepalive_interval=0.1)
        self.gw_a.add_route("2", "127.0.0.1", self.gw_b.port)
        self.gw_a.start()

    def stop(self):
        self.gw_a.stop()
        self.gw_b.stop()

    def pump(self, blocks=1):
        for _ in range(blocks):
            self.ex_a.tick(BLOCK)
            self.ex_b.tick(BLOCK)
            time.sleep(0.002)

    def pump_until(self, predicate, blocks=500):
        for _ in range(blocks):
            if predicate():
                return True
            self.pump()
        return predicate()


@pytest.fixture
def pair():
    pair = TwoExchanges()
    assert pair.gw_a.wait_connected(5.0), "trunk route never connected"
    yield pair
    pair.stop()


def _listener(line):
    events = {"failed": [], "hangup": [], "answered": [], "rings": []}

    class Listener:
        def on_call_failed(self, reason):
            events["failed"].append(reason)

        def on_far_hangup(self):
            events["hangup"].append(True)

        def on_answered(self):
            events["answered"].append(True)

        def on_ring_start(self, caller_info):
            events["rings"].append(caller_info)

    line.add_listener(Listener())
    return events


class TestTrunkCalls:
    def test_cross_trunk_call_full_lifecycle(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        bob_events = _listener(bob)
        alice_events = _listener(alice)

        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing), "no ring across trunk"
        assert bob.caller_info.number == "100"
        assert bob.caller_info.forwarded_from is None
        assert bob_events["rings"][0].number == "100"

        bob.off_hook()
        assert pair.pump_until(lambda: alice_events["answered"])
        assert pair.ex_a.call_for(alice).state is CallState.CONNECTED
        assert pair.ex_b.call_for(bob).state is CallState.CONNECTED

        # Two-way audio: what bob hears is the exact mu-law roundtrip
        # of what alice sent (and vice versa).
        sent_a = (np.arange(1, BLOCK + 1, dtype=np.int16) * 37)
        sent_b = (np.arange(1, BLOCK + 1, dtype=np.int16) * -53)
        for _ in range(12):
            alice.send_audio(sent_a)
            bob.send_audio(sent_b)
            pair.pump()
        heard_b, heard_a = [], []
        for _ in range(60):
            pair.pump()
            for line, sink in ((bob, heard_b), (alice, heard_a)):
                block = line.receive_audio(BLOCK)
                if np.any(block):
                    sink.append(block)
            if len(heard_b) >= 3 and len(heard_a) >= 3:
                break
        expect_b = mulaw_decode(mulaw_encode(sent_a))
        expect_a = mulaw_decode(mulaw_encode(sent_b))
        assert any(np.array_equal(h, expect_b) for h in heard_b)
        assert any(np.array_equal(h, expect_a) for h in heard_a)

        # Hangup supervision: alice hangs up, bob's line goes idle.
        alice.on_hook()
        assert pair.pump_until(lambda: bob_events["hangup"])
        assert pair.ex_b.call_for(bob) is None
        assert pair.ex_a.call_for(alice) is None

    def test_remote_busy_reported_to_caller(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        bob.off_hook()              # busy before the call arrives
        events = _listener(alice)
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: events["failed"])
        assert events["failed"] == ["busy"]
        assert pair.ex_a.call_for(alice) is None

    def test_remote_unknown_number_reported(self, pair):
        alice = pair.ex_a.add_line("100")
        events = _listener(alice)
        alice.off_hook()
        alice.dial("299")            # routed, but not homed on B
        assert pair.pump_until(lambda: events["failed"])
        assert events["failed"] == ["no such number"]

    def test_caller_abandon_stops_remote_ringing(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing)
        alice.on_hook()
        assert pair.pump_until(lambda: not bob.ringing)
        assert pair.ex_b.call_for(bob) is None

    def test_callee_hangup_supervises_caller(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        events = _listener(alice)
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing)
        bob.off_hook()
        assert pair.pump_until(lambda: events["answered"])
        bob.on_hook()
        assert pair.pump_until(lambda: events["hangup"])
        assert pair.ex_a.call_for(alice) is None

    def test_dtmf_signaling_survives_trunk(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing)
        bob.off_hook()
        assert pair.pump_until(
            lambda: pair.ex_a.call_for(alice) is not None
            and pair.ex_a.call_for(alice).state is CallState.CONNECTED)
        # Digits signaled on B regenerate as in-band tones on A, where
        # the stock DSP detector must decode them exactly.
        bob.send_dtmf("42")
        detector = DtmfDetector(RATE)
        digits = []

        def decoded():
            pair.pump()
            digits.extend(detector.feed(alice.receive_audio(BLOCK)))
            return len(digits) >= 2

        assert pair.pump_until(decoded)
        assert digits == ["4", "2"]

    def test_unrouted_number_fails_locally(self, pair):
        alice = pair.ex_a.add_line("100")
        events = _listener(alice)
        alice.off_hook()
        alice.dial("900")            # no local line, no route
        assert events["failed"] == ["no such number"]

    def test_unreachable_route_fails_fast(self):
        exchange = TelephoneExchange(RATE)
        gateway = TrunkGateway(exchange, name="A")
        gateway.add_route("2", "127.0.0.1", dead_port())
        gateway.start()
        try:
            alice = exchange.add_line("100")
            events = _listener(alice)
            alice.off_hook()
            alice.dial("200")
            # The route has no live link: the dial fails synchronously.
            assert events["failed"] == ["trunk down"]
            assert exchange.call_for(alice) is None
        finally:
            gateway.stop()


class TestTrunkForwarding:
    def test_local_line_forwards_across_trunk(self, pair):
        alice = pair.ex_a.add_line("100")
        desk = pair.ex_a.add_line("150")
        desk.forward_to = "200"
        bob = pair.ex_b.add_line("200")
        bob_events = _listener(bob)
        alice.off_hook()
        alice.dial("150")
        assert desk.ringing
        forward_blocks = int(
            pair.ex_a.FORWARD_AFTER_SECONDS * RATE / BLOCK) + 2
        pair.pump(forward_blocks)
        assert pair.pump_until(lambda: bob.ringing)
        assert not desk.ringing
        info = bob_events["rings"][0]
        assert info.number == "100"
        assert info.forwarded_from == "150"
        # The forwarded call connects end to end.
        bob.off_hook()
        assert pair.pump_until(
            lambda: pair.ex_a.call_for(alice) is not None
            and pair.ex_a.call_for(alice).state is CallState.CONNECTED)

    def test_forward_to_busy_remote_target_fails(self, pair):
        alice = pair.ex_a.add_line("100")
        desk = pair.ex_a.add_line("150")
        desk.forward_to = "200"
        bob = pair.ex_b.add_line("200")
        bob.off_hook()               # remote target is busy
        events = _listener(alice)
        alice.off_hook()
        alice.dial("150")
        forward_blocks = int(
            pair.ex_a.FORWARD_AFTER_SECONDS * RATE / BLOCK) + 2
        pair.pump(forward_blocks)
        assert pair.pump_until(lambda: events["failed"])
        # The forward rang a remote leg which reported busy.
        assert events["failed"] == ["busy"]
        assert pair.ex_a.call_for(alice) is None


class TestTrunkSupervision:
    def test_trunk_loss_releases_both_sides_and_reconnects(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        a_events = _listener(alice)
        b_events = _listener(bob)
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing)
        bob.off_hook()
        assert pair.pump_until(lambda: a_events["answered"])

        route = pair.gw_a.routes[0]
        first_link = route.link
        first_link.close()           # the trunk dies mid-call

        assert pair.pump_until(
            lambda: a_events["hangup"] and b_events["hangup"],
            blocks=3000)
        assert pair.ex_a.call_for(alice) is None
        assert pair.ex_b.call_for(bob) is None

        # The gateway reconnects by itself and counts it.
        assert pair.pump_until(
            lambda: pair.gw_a.connected()
            and route.link is not first_link, blocks=3000)
        assert pair.gw_a._m_reconnects.value == 1

        # ... and the trunk is usable again once both parties hang up.
        alice.on_hook()
        bob.on_hook()
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing, blocks=1000)

    def test_simultaneous_calls_both_directions(self, pair):
        # Call ids are odd on the initiator and even on the acceptor,
        # so glare cannot collide.  Open the reverse direction: A also
        # listens, and B routes A's prefix to it.
        pair.gw_a.listen("127.0.0.1", 0)
        pair.gw_b.add_route("1", "127.0.0.1", pair.gw_a.port)
        assert pair.gw_b.wait_connected(5.0)

        a1 = pair.ex_a.add_line("100")
        a2 = pair.ex_a.add_line("101")
        b1 = pair.ex_b.add_line("200")
        b2 = pair.ex_b.add_line("201")
        a1.off_hook()
        a1.dial("200")
        b2.off_hook()
        b2.dial("101")
        assert pair.pump_until(lambda: b1.ringing and a2.ringing)
        b1.off_hook()
        a2.off_hook()
        assert pair.pump_until(
            lambda: pair.ex_a.call_for(a1) is not None
            and pair.ex_a.call_for(a1).state is CallState.CONNECTED
            and pair.ex_b.call_for(b2) is not None
            and pair.ex_b.call_for(b2).state is CallState.CONNECTED)

    def test_concurrent_calls_ride_audio_batch(self, pair):
        initiator = pair.gw_a.routes[0].link
        # Two concurrent calls guarantee multi-entry flush windows, so
        # bearer actually rides AUDIO_BATCH frames.
        a1, a2 = pair.ex_a.add_line("100"), pair.ex_a.add_line("101")
        b1, b2 = pair.ex_b.add_line("200"), pair.ex_b.add_line("201")
        a1.off_hook()
        a1.dial("200")
        a2.off_hook()
        a2.dial("201")
        assert pair.pump_until(lambda: b1.ringing and b2.ringing)
        b1.off_hook()
        b2.off_hook()
        assert pair.pump_until(
            lambda: pair.ex_a.call_for(a1) is not None
            and pair.ex_a.call_for(a1).state is CallState.CONNECTED
            and pair.ex_a.call_for(a2) is not None
            and pair.ex_a.call_for(a2).state is CallState.CONNECTED)
        tone = np.full(BLOCK, 4000, dtype=np.int16)
        for _ in range(20):
            a1.send_audio(tone)
            a2.send_audio(tone)
            pair.pump()
        assert initiator.batch_frames_out > 0
        assert initiator.batch_entries_out >= 2 * initiator.batch_frames_out

    def test_lone_block_rides_a_one_entry_batch(self, pair):
        alice = pair.ex_a.add_line("100")
        bob = pair.ex_b.add_line("200")
        alice.off_hook()
        alice.dial("200")
        assert pair.pump_until(lambda: bob.ringing)
        bob.off_hook()
        assert pair.pump_until(
            lambda: pair.ex_a.call_for(alice) is not None
            and pair.ex_a.call_for(alice).state is CallState.CONNECTED)
        # One staged block, long enough to prime the far jitter buffer.
        sent = (np.arange(2 * BLOCK, dtype=np.int16) - BLOCK) * 97
        alice.send_audio(sent)
        assert pair.pump_until(lambda: bob._buffered >= len(sent))
        pair.pump(5)
        assert np.array_equal(bob.receive_audio(len(sent)),
                              mulaw_decode(mulaw_encode(sent)))
        initiator = pair.gw_a.routes[0].link
        assert initiator.batch_frames_out == 1
        assert initiator.batch_entries_out == 1
        assert pair.gw_b._m_batch_entries_in.value == 1

    def test_version_mismatch_refused_at_accept(self, pair):
        # A major-1 peer dials B's trunk listener; the connection must
        # be refused (closed) and counted.
        refused_before = pair.gw_b._m_setup_refused.value
        sock = socket.create_connection(("127.0.0.1", pair.gw_b.port),
                                        timeout=2.0)
        try:
            sock.sendall(Handshake("old", major=TRUNK_MAJOR - 1).encode())
            sock.settimeout(2.0)
            # The acceptor replies with its handshake, then closes.
            Handshake.read_from(sock)
            assert sock.recv(1) == b""
        finally:
            sock.close()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if pair.gw_b._m_setup_refused.value > refused_before:
                break
            time.sleep(0.01)
        assert pair.gw_b._m_setup_refused.value == refused_before + 1

    def test_version_mismatch_refused_when_dialing_an_old_peer(self):
        # A routes to a listener that answers as a major-1 peer: the
        # dial is refused at handshake, counted, and never goes live.
        listener = socket.create_server(("127.0.0.1", 0))
        gateway = TrunkGateway(TelephoneExchange(RATE), name="A",
                               metrics=MetricsRegistry())
        gateway.add_route("2", "127.0.0.1", listener.getsockname()[1])
        gateway.start()
        listener.settimeout(5.0)
        sock, _addr = listener.accept()
        try:
            sock.sendall(Handshake("old", major=TRUNK_MAJOR - 1).encode())
            deadline = time.monotonic() + 5.0
            while (gateway._m_setup_refused.value == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert gateway._m_setup_refused.value == 1
            assert not gateway.connected()
        finally:
            sock.close()
            gateway.stop()
            listener.close()


    def test_same_named_static_peers_refused_at_handshake(self):
        # Every SETUP2 names the gateways it crossed and a gateway
        # refuses a call that names it, so two static peers sharing a
        # name must fail at link setup, not on every call.
        callee = TrunkGateway(TelephoneExchange(RATE), name="twin",
                              metrics=MetricsRegistry())
        callee.listen("127.0.0.1", 0)
        callee.start()
        caller = TrunkGateway(TelephoneExchange(RATE), name="twin",
                              metrics=MetricsRegistry())
        caller.add_route("2", "127.0.0.1", callee.port)
        caller.start()
        try:
            deadline = time.monotonic() + 5.0
            while ((callee._m_setup_refused.value == 0
                    or caller._m_setup_refused.value == 0)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert callee._m_setup_refused.value >= 1
            assert caller._m_setup_refused.value >= 1
            assert not caller.connected()
            assert callee.live_link_count() == 0
        finally:
            caller.stop()
            callee.stop()

    def test_unnamed_gateways_get_distinct_names(self):
        exchange = TelephoneExchange(RATE)
        first = TrunkGateway(exchange)
        second = TrunkGateway(exchange)
        assert first.name != second.name


def _tick_threads_join():
    """Wait for every dial and registry poll in flight to finish (the
    tick starts each on a short-lived thread)."""
    for thread in threading.enumerate():
        if (thread.name.startswith("trunk-connect-")
                or thread.name == "mesh-poll"):
            thread.join(5.0)
            assert not thread.is_alive(), thread.name


@contextlib.contextmanager
def _silent_peer(clock):
    """Gateway "A" on ``clock``, linked to a peer that answers the
    handshake and then neither reads nor writes.

    Yields ``(gateway, link, peer, listener)``.  The peer's receive
    buffer is small, so a few kilobytes fill the path to it.
    """
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(5.0)
    gateway = TrunkGateway(TelephoneExchange(RATE), name="A",
                           metrics=MetricsRegistry(), clock=clock)
    gateway.add_route("2", "127.0.0.1", listener.getsockname()[1])
    peer = None
    try:
        gateway.start()
        peer, _addr = listener.accept()
        peer.settimeout(5.0)
        Handshake.read_from(peer)
        peer.sendall(Handshake("B").encode())
        assert gateway.wait_connected(5.0)
        yield gateway, gateway.routes[0].link, peer, listener
    finally:
        gateway.stop()
        _tick_threads_join()
        listener.close()
        if peer is not None:
            peer.close()


def _queued_pings(link):
    with link._outbound.mutex:
        return sum(frame is not None and frame.type is FrameType.PING
                   for frame in link._outbound.queue)


def _redial_delays(name, count):
    """The first ``count`` redial delays of a gateway called ``name``:
    50 ms doubling, each stretched by up to a quarter by the next draw
    of a jitter stream seeded with the name."""
    draws = random.Random(name)
    return [0.05 * 2 ** attempt * (1 + 0.25 * draws.random())
            for attempt in range(count)]


class TestDeadlinesOnManualClock:
    """Keepalive and redial deadlines, on a clock the test moves."""

    def test_silent_link_closes_past_three_keepalives(self):
        clock = ManualClock()
        with _silent_peer(clock) as (gateway, link, _peer, listener):
            alice = gateway.exchange.add_line("100")
            events = _listener(alice)
            alice.off_hook()
            alice.dial("200")
            assert gateway._leg_count() == 1
            # A failed redial must not leave a handshake waiting.
            listener.close()

            clock.time = link.last_rx + 3 * gateway.keepalive_interval
            gateway.tick(BLOCK)
            assert link.alive
            assert events["failed"] == []

            clock.advance(0.001)
            gateway.tick(BLOCK)
            assert not link.alive
            assert events["failed"] == ["trunk down"]
            assert gateway._leg_count() == 0

    def test_idle_link_pinged_on_the_tick_past_the_interval(self):
        clock = ManualClock()
        with _silent_peer(clock) as (gateway, link, peer, _listener):
            queued = []
            send = link.send
            link.send = lambda frame: queued.append(frame.type) or send(
                frame)

            clock.time = link.last_queued + gateway.keepalive_interval
            gateway.tick(BLOCK)
            assert queued == []

            clock.advance(0.001)
            gateway.tick(BLOCK)
            assert queued == [FrameType.PING]
            ping = TrunkFrame(FrameType.PING).encode()
            assert recv_exact(peer, len(ping)) == ping

    def test_undrained_link_holds_one_ping_per_interval(self):
        clock = ManualClock()
        with _silent_peer(clock) as (gateway, link, _peer, _listener):
            link.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            # Bearer until the outbound bound sheds, and still sheds once
            # the writer has had time to drain: it is stuck in sendall.
            entries = [(1, seq, bytes(BLOCK)) for seq in range(64)]
            deadline = time.monotonic() + 10.0
            while True:
                while link.send_batch(entries):
                    pass
                time.sleep(0.05)
                if not link.send_batch(entries):
                    break
                assert time.monotonic() < deadline, "writer kept draining"
            started = clock.time
            interval = gateway.keepalive_interval
            for _ in range(50):
                clock.advance(7 / 128)      # 2.73 intervals in 50 ticks
                gateway.tick(BLOCK)
                assert link.alive
                assert _queued_pings(link) <= (clock.time
                                               - started) // interval
            assert _queued_pings(link) == 2

    def test_discovery_polls_on_the_tick_one_at_a_time(self):
        clock = ManualClock()
        gateway = TrunkGateway(TelephoneExchange(RATE), name="A",
                               metrics=MetricsRegistry(), clock=clock)
        gateway.enable_mesh(registry=("127.0.0.1", dead_port()),
                            poll_interval=0.5)
        polls = []
        finish = threading.Semaphore(0)

        def poll_once():
            polls.append(clock.time)
            return finish.acquire(timeout=5.0)

        gateway._discovery.poll_once = poll_once

        def poll_threads():
            return [thread for thread in threading.enumerate()
                    if thread.name in ("mesh-poll", "mesh-discovery")]

        try:
            gateway.start()
            assert polls == [] and poll_threads() == []
            clock.advance(0.25)
            gateway.tick(BLOCK)
            assert wait_for(lambda: len(polls) == 1)
            first = polls[0]
            assert first == clock.time
            finish.release()
            _tick_threads_join()

            clock.time = first + 0.5 - 0.001
            gateway.tick(BLOCK)
            assert poll_threads() == []
            clock.time = first + 0.5
            gateway.tick(BLOCK)
            assert wait_for(lambda: len(polls) == 2)
            assert polls[1] == first + 0.5

            # Overdue ticks start nothing while that poll is in flight.
            for _ in range(3):
                clock.advance(0.5)
                gateway.tick(BLOCK)
            assert len(poll_threads()) == 1 and len(polls) == 2
            finish.release()
            _tick_threads_join()
            gateway.tick(BLOCK)
            assert wait_for(lambda: len(polls) == 3)
            assert polls[2] == clock.time
        finally:
            for _ in range(3):
                finish.release()
            gateway.stop()
            _tick_threads_join()

    def test_redial_waits_out_the_backoff(self):
        clock = ManualClock()
        gateway = TrunkGateway(TelephoneExchange(RATE), name="A",
                               metrics=MetricsRegistry(), clock=clock)
        route = gateway.add_route("2", "127.0.0.1", dead_port())
        try:
            gateway.start()
            _tick_threads_join()
            assert route.attempt == 1 and not route.connecting
            # The first redial waits the base delay plus the first draw
            # of the gateway's own jitter.
            due = clock.time + _redial_delays("A", 1)[0]

            clock.time = due - 0.001
            gateway.tick(BLOCK)
            assert not route.connecting
            _tick_threads_join()
            assert route.attempt == 1

            clock.time = due
            gateway.tick(BLOCK)
            _tick_threads_join()
            assert route.attempt == 2
        finally:
            gateway.stop()
            _tick_threads_join()

    def test_other_gateways_dials_leave_the_redial_schedule_alone(self):
        clock = ManualClock()
        port = dead_port()
        first, other = (TrunkGateway(TelephoneExchange(RATE), name=name,
                                     metrics=MetricsRegistry(), clock=clock)
                        for name in ("A", "B"))
        route = first.add_route("2", "127.0.0.1", port)
        noise = other.add_route("2", "127.0.0.1", port)
        try:
            other.start()
            first.start()
            _tick_threads_join()
            for delay in _redial_delays("A", 3):
                assert route.next_attempt_at == clock.time + delay
                # B fails twice more before A dials again.
                for _ in range(2):
                    clock.time = max(clock.time, noise.next_attempt_at)
                    other.tick(BLOCK)
                    _tick_threads_join()
                clock.time = max(clock.time, route.next_attempt_at)
                first.tick(BLOCK)
                _tick_threads_join()
            assert (route.attempt, noise.attempt) == (4, 7)
        finally:
            first.stop()
            other.stop()
            _tick_threads_join()


class TestGatewayLifecycle:
    def test_stop_is_prompt_and_joins_the_accept_thread(self, pair):
        assert pair.pump_until(lambda: pair.gw_b._accepted)
        accept_thread = pair.gw_b._listener._thread
        assert accept_thread.name == "trunk-accept"
        started = time.monotonic()
        pair.gw_b.stop()
        assert time.monotonic() - started < 0.5
        assert not accept_thread.is_alive()

    def test_silent_peer_does_not_delay_the_next_link(self):
        exchange_b = TelephoneExchange(RATE)
        gw_b = TrunkGateway(exchange_b, name="B", metrics=MetricsRegistry())
        gw_b.listen("127.0.0.1", 0)
        gw_b.start()
        # Connects and never sends its handshake preamble.
        silent = socket.create_connection(("127.0.0.1", gw_b.port))
        gw_a = TrunkGateway(TelephoneExchange(RATE), name="A",
                            metrics=MetricsRegistry())
        gw_a.add_route("2", "127.0.0.1", gw_b.port)
        try:
            started = time.monotonic()
            gw_a.start()
            assert gw_a.wait_connected(HANDSHAKE_TIMEOUT)
            assert time.monotonic() - started < HANDSHAKE_TIMEOUT / 2
        finally:
            silent.close()
            gw_a.stop()
            gw_b.stop()

    def test_dial_finishing_after_stop_attaches_no_link(self):
        """A dial whose handshake completes after stop() returns must
        not start a link: no pump threads outlive the gateway, and the
        dialed socket is closed."""
        listener = socket.create_server(("127.0.0.1", 0))
        gateway = TrunkGateway(TelephoneExchange(RATE), name="A",
                               metrics=MetricsRegistry())
        gateway.add_route("2", "127.0.0.1", listener.getsockname()[1])
        route = gateway.routes[0]
        listener.settimeout(5.0)
        sock = None
        try:
            gateway.start()
            sock, _addr = listener.accept()
            sock.settimeout(5.0)
            Handshake.read_from(sock)   # the dialer now awaits our reply
            gateway.stop()
            sock.sendall(Handshake("late-peer").encode())
            deadline = time.monotonic() + 5.0
            while route.connecting and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not route.connecting
            assert route.link is None
            pumps = {"trunk-read-late-peer", "trunk-write-late-peer"}
            assert not [thread.name for thread in threading.enumerate()
                        if thread.name in pumps]
            assert sock.recv(1) == b""  # the dialer closed its end
        finally:
            if sock is not None:
                sock.close()
            gateway.stop()
            listener.close()


class ThreeExchanges:
    """A -> B -> C over real TCP trunks, B tandem-switching every call.

    Static routes send ``3xx`` from A to B and from B to C.  ``tick``
    runs A, B and C in lockstep, in that order; before each of B and C
    ticks, it waits until every bearer block its upstream neighbour
    accepted for sending has reached its leg's jitter buffer or its
    onward link (a gateway counts an AUDIO_BATCH's entries in
    ``frames_in`` only once its link reader has put them there), so
    what a tick sees never depends on sleep timing.  Audio in these
    tests flows A -> C only, so each gateway's ``frames_out`` is exactly
    what its downstream neighbour should receive.
    """

    def __init__(self):
        self.exchanges = [TelephoneExchange(RATE) for _ in range(3)]
        self.gateways = [
            TrunkGateway(exchange, name=name, metrics=MetricsRegistry(),
                         keepalive_interval=0.1)
            for exchange, name in zip(self.exchanges, "ABC")]
        self.gw_a, self.gw_b, self.gw_c = self.gateways
        self.gw_c.listen("127.0.0.1", 0)
        self.gw_c.start()
        self.gw_b.listen("127.0.0.1", 0)
        self.gw_b.add_route("3", "127.0.0.1", self.gw_c.port)
        self.gw_b.start()
        self.gw_a.add_route("3", "127.0.0.1", self.gw_b.port)
        self.gw_a.start()

    def stop(self):
        for gateway in self.gateways:
            gateway.stop()

    @staticmethod
    def wait_bearer(upstream, gateway):
        """Wait until ``gateway`` has placed all ``upstream`` sent."""
        sent = upstream._m_frames_out.value
        assert wait_for(lambda: gateway._m_frames_in.value >= sent, 5.0), \
            "bearer never reached %s" % gateway.name

    def tick(self):
        upstream = None
        for exchange, gateway in zip(self.exchanges, self.gateways):
            if upstream is not None:
                self.wait_bearer(upstream, gateway)
            exchange.tick(BLOCK)
            upstream = gateway

    def pump_until(self, predicate, blocks=500):
        for _ in range(blocks):
            if predicate():
                return True
            self.tick()
            time.sleep(0.002)
        return predicate()

    def connect(self, held=(), before_answer=None):
        """Place 100 (on A) -> 300 (on C) and wait until it is up.

        ``held`` raw mu-law blocks are pushed into B's transit leg from
        A while C is still ringing: audio B holds from before the call
        was connected.  ``before_answer(transit_leg)`` runs just before
        C answers.
        """
        alice = self.exchanges[0].add_line("100")
        carol = self.exchanges[2].add_line("300")
        alice.off_hook()
        alice.dial("300")
        assert self.pump_until(lambda: carol.ringing)
        transit = self.transit_leg()
        for seq, block in enumerate(held):
            transit.jitter.push(seq, block)
        if before_answer is not None:
            before_answer(transit)
        carol.off_hook()
        ex_a = self.exchanges[0]
        assert self.pump_until(
            lambda: ex_a.call_for(alice) is not None
            and ex_a.call_for(alice).state is CallState.CONNECTED)
        return alice, carol

    def transit_leg(self):
        """B's leg for the call's upstream side (the trunk from A)."""
        (leg,) = [leg for by_call in self.gw_b._legs.values()
                  for leg in by_call.values() if leg.link.name == "A"]
        return leg

    def talk(self, alice, carol, blocks, ticks, on_tick=None):
        """Alice speaks ``blocks`` one per tick; run ``ticks`` ticks.

        Returns ``(heard, first, buffered)``: the voiced blocks carol
        heard in order, the tick the first of them reached her line,
        and B's buffered audio after each tick.
        """
        heard, first, buffered = [], None, []
        for tick in range(ticks):
            if tick < len(blocks):
                alice.send_audio(blocks[tick])
            if on_tick is not None:
                on_tick(tick)
            self.tick()
            buffered.append(self.gw_b.buffered_audio_samples())
            block = carol.receive_audio(BLOCK)
            if block.any():
                heard.append(block)
                if first is None:
                    first = tick
        return heard, first, buffered


@pytest.fixture
def line_abc():
    rig = ThreeExchanges()
    assert rig.gw_a.wait_connected(5.0) and rig.gw_b.wait_connected(5.0)
    yield rig
    rig.stop()


def _voiced_blocks(count, seed=19):
    """Blocks that survive the mu-law round trip unchanged."""
    rng = np.random.default_rng(seed)
    return [mulaw_decode(mulaw_encode(
        rng.integers(-20000, 20000, BLOCK).astype(np.int16)))
        for _ in range(count)]


def _same_blocks(heard, expected):
    return (len(heard) == len(expected)
            and all(np.array_equal(h, e) for h, e in zip(heard, expected)))


class TestCutThroughTandem:
    """The tandem hop forwards transit bearer raw, on the tick it lands:
    no jitter buffer, no decode and no re-encode at B."""

    def test_far_end_hears_every_block_one_tick_sooner(self, line_abc):
        rig = line_abc
        alice, carol = rig.connect()
        spoken = _voiced_blocks(12)
        heard, first, buffered = rig.talk(alice, carol, spoken,
                                          len(spoken) + 6)
        assert _same_blocks(heard, spoken)
        assert buffered == [0] * len(buffered)
        # Nothing buffers on the path: each block reaches C before C's
        # tick and plays out on it, so block 0 is heard on tick 0.
        assert first == 0
        assert rig.gw_b._m_tandem_frames.value == len(spoken)
        assert rig.gw_b._m_batch_entries_in.value == len(spoken)
        assert rig.gw_c._m_frames_in.value == len(spoken)

    def test_shed_window_reaches_far_end_as_one_gap(self, line_abc):
        rig = line_abc
        alice, carol = rig.connect()
        spoken = _voiced_blocks(16)
        shed_tick = 6
        link_ab = rig.gw_a.routes[0].link
        bound = link_ab.outbound_bound

        def shed_one_window(tick):
            link_ab.outbound_bound = 0 if tick == shed_tick else bound

        heard, _first, buffered = rig.talk(alice, carol, spoken,
                                           len(spoken) + 10,
                                           on_tick=shed_one_window)
        assert link_ab.shed_audio_frames == 1
        assert buffered == [0] * len(buffered)
        assert _same_blocks(
            heard, spoken[:shed_tick] + spoken[shed_tick + 1:])
        alice.on_hook()
        assert rig.pump_until(lambda: not rig.gw_c._legs)
        # The gap crossed B intact and C concealed it exactly once.
        assert rig.gw_c._m_lost.value == 1
        assert rig.gw_c._m_late.value == 0
        assert rig.gw_b._m_lost.value == 0
        assert rig.gw_b._m_late.value == 0

    def test_audio_held_before_answer_goes_out_first(self, line_abc):
        rig = line_abc
        held = _voiced_blocks(2, seed=23)
        alice, carol = rig.connect(
            held=[bytes(mulaw_encode(block)) for block in held])
        spoken = _voiced_blocks(8)
        heard, _first, buffered = rig.talk(alice, carol, spoken,
                                           len(spoken) + 8)
        assert _same_blocks(heard, held + spoken)
        assert buffered == [0] * len(buffered)

    def test_replayed_frame_is_dropped_as_late(self, line_abc):
        rig = line_abc
        alice, carol = rig.connect()
        spoken = _voiced_blocks(6)
        heard, _first, _buffered = rig.talk(alice, carol, spoken,
                                            len(spoken) + 4)
        assert _same_blocks(heard, spoken)
        transit = rig.transit_leg()
        transit.link.on_bearer(transit.link, (
            (transit.call_id, 2, bytes(mulaw_encode(spoken[2]))),))
        forwarded = rig.gw_b._m_tandem_frames.value
        heard, _first, _buffered = rig.talk(alice, carol, [], 4)
        assert heard == []
        assert rig.gw_b._m_late.value == 1
        assert rig.gw_b._m_tandem_frames.value == forwarded

    def test_speech_after_an_underrun_is_never_stranded(self, line_abc):
        """C runs dry mid-talkspurt, then the talker says one more block
        and falls silent: C still hears every sample, on the next tick."""
        rig = line_abc
        alice, carol = rig.connect()
        (far_leg,) = [leg for by_call in rig.gw_c._legs.values()
                      for leg in by_call.values()]
        jitter = far_leg.jitter
        spoken = _voiced_blocks(5)
        heard = []

        def tick():
            rig.tick()
            block = carol.receive_audio(BLOCK)
            if block.any():
                heard.append(block)

        for block in spoken[:-1]:
            alice.send_audio(block)
            tick()
        # The last block is withheld until C has run dry.
        for _ in range(4):
            if jitter.underruns:
                break
            tick()
        assert jitter.underruns == 1
        alice.send_audio(spoken[-1])
        tick()
        assert _same_blocks(heard, spoken)
        assert rig.gw_c.buffered_audio_samples() == 0

    def test_bearer_crosses_a_tandem_that_never_ticks(self, line_abc):
        """Only A ticks: B's link reader forwards each block on arrival
        and C's link reader files it in C's leg, block for block."""
        rig = line_abc
        alice, _carol = rig.connect()
        ex_a = rig.exchanges[0]
        transit = rig.transit_leg()
        (far_leg,) = [leg for by_call in rig.gw_c._legs.values()
                      for leg in by_call.values()]
        spoken = _voiced_blocks(12)
        for block in spoken:
            alice.send_audio(block)
            ex_a.tick(BLOCK)
            rig.wait_bearer(rig.gw_a, rig.gw_c)
            assert transit.jitter.depth_samples == 0
            assert rig.gw_b.buffered_audio_samples() == 0
        held = np.frombuffer(far_leg.jitter.drain_raw(), dtype=np.uint8)
        assert np.array_equal(mulaw_decode(held), np.concatenate(spoken))
        assert rig.gw_b._m_tandem_frames.value == len(spoken)


class TestJitterCountersExact:
    """``trunk.jitter.*`` count each tally as it happens, so after every
    tick they equal the summed tallies of the far end's live and
    released legs: no per-leg fold lags them."""

    TALLIES = (("late_frames", "_m_late"), ("lost_frames", "_m_lost"),
               ("underruns", "_m_underruns"),
               ("shed_samples", "_m_jitter_shed"))

    def test_counters_match_leg_tallies_after_every_tick(self, line_abc):
        rig = line_abc
        gw_c = rig.gw_c
        alice, carol = rig.connect()
        (far_leg,) = [leg for by_call in gw_c._legs.values()
                      for leg in by_call.values()]
        link_ab = rig.gw_a.routes[0].link
        bound = link_ab.outbound_bound
        spoken = iter(_voiced_blocks(80))
        checked = []

        def check():
            for tally, counter in self.TALLIES:
                assert (getattr(gw_c, counter).value
                        == getattr(far_leg.jitter, tally)), tally
            checked.append(tuple(getattr(far_leg.jitter, tally)
                                 for tally, _counter in self.TALLIES))

        def tick(speak=True, far_end=True):
            if speak:
                alice.send_audio(next(spoken))
            if far_end:
                rig.tick()
                carol.receive_audio(BLOCK)
            else:
                # The far end stalls: A and B run, C only receives.
                rig.exchanges[0].tick(BLOCK)
                rig.wait_bearer(rig.gw_a, rig.gw_b)
                rig.exchanges[1].tick(BLOCK)
                rig.wait_bearer(rig.gw_b, gw_c)
            check()

        for _ in range(4):
            tick()
        # One window shed at A: C conceals the gap once, counted lost.
        link_ab.outbound_bound = 0
        tick()
        link_ab.outbound_bound = bound
        for _ in range(6):
            tick()
        assert far_leg.jitter.lost_frames == 1
        # A replayed frame from before the stream head: late.
        far_leg.link.on_bearer(far_leg.link, (
            (far_leg.call_id, 1, bytes(mulaw_encode(_voiced_blocks(1)[0]))),))
        check()
        assert far_leg.jitter.late_frames == 1
        # The talker pauses: C runs dry mid-talkspurt, an underrun.
        for _ in range(3):
            tick(speak=False)
        assert far_leg.jitter.underruns >= 1
        # C stalls while A talks on: its buffer sheds past the depth.
        depth_blocks = far_leg.jitter.max_depth_samples // BLOCK
        for _ in range(depth_blocks + 3):
            tick(far_end=False)
        assert far_leg.jitter.shed_samples > 0
        for _ in range(4):
            tick()
        # The call ends: the released leg's tallies stay counted.
        alice.on_hook()
        assert rig.pump_until(lambda: not gw_c._legs)
        check()
        assert len(set(checked)) > 4


class _ObservedLock:
    """Stands in for a gateway's bearer lock.

    ``contended`` is set whenever an acquire finds the lock held; a
    ``hook`` of ``(thread, callable)`` runs once, with the lock held,
    the next time that thread acquires it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()
        self.hook = None

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        hook = self.hook
        if hook is not None and hook[0] is threading.current_thread():
            self.hook = None
            hook[1]()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class _RecordingLink:
    """Stands in for a TrunkLink: records the bearer queued on it."""

    alive = True

    def __init__(self):
        self.entries = []

    def send_batch(self, entries):
        self.entries.extend(entries)
        return len(entries)


def _stress_payload(seq):
    return bytes([seq % 251]) * 8


class TestBearerRaces:
    """A link reader delivering bearer while the tick installs a call's
    cut-through, and while it releases the call.

    Each race runs the reader's delivery on its own thread from inside
    the tick's critical step and lets the tick go on only once that
    delivery has finished or is waiting for the bearer lock, so the
    interleaving is forced rather than hoped for.
    """

    @staticmethod
    def _race(lock, link, entries, errors, threads):
        settled = lock.contended = threading.Event()

        def deliver():
            try:
                link.on_bearer(link, entries)
            except Exception as exc:     # surfaced by the test body
                errors.append(exc)
            settled.set()

        thread = threading.Thread(target=deliver, name="race-reader")
        threads.append(thread)
        thread.start()
        assert settled.wait(5.0), "reader neither finished nor blocked"

    def test_reader_races_install_and_release(self, line_abc):
        rig = line_abc
        gw_b = rig.gw_b
        lock = gw_b._bearer_lock = _ObservedLock()
        errors, threads, published = [], [], []
        held = _voiced_blocks(3, seed=23)
        raced = _voiced_blocks(2, seed=29)

        def race_install(transit):
            drain = transit.jitter.drain_raw

            def drain_then_race():
                audio = drain()
                published.append(transit.cut_to)
                self._race(lock, transit.link, [
                    (transit.call_id, seq, bytes(mulaw_encode(block)))
                    for seq, block in enumerate(raced)], errors, threads)
                return audio

            transit.jitter.drain_raw = drain_then_race

        alice, carol = rig.connect(
            held=[bytes(mulaw_encode(block)) for block in held],
            before_answer=race_install)
        for thread in threads:
            thread.join()
        # The drain ran before the pair was published, and the reader
        # that raced it forwarded after the held audio, not into it.
        assert published == [None]
        heard, _first, buffered = rig.talk(alice, carol, [], 8)
        assert _same_blocks(heard, held + raced)
        assert buffered == [0] * len(buffered)
        assert gw_b._m_late.value == 0
        assert gw_b._m_tandem_frames.value == 1 + len(raced)

        transit = rig.transit_leg()
        ex_b = rig.exchanges[1]
        frames_at_c = rig.gw_c._m_frames_in.value
        lock.hook = (threading.current_thread(), lambda: self._race(
            lock, transit.link,
            [(transit.call_id, len(raced), bytes(mulaw_encode(held[0])))],
            errors, threads))
        alice.on_hook()
        assert rig.pump_until(lambda: ex_b.call_for(transit) is None)
        for thread in threads:
            thread.join()
        assert lock.hook is None, "the release never took the lock"
        # The entry that raced the release was dropped: not forwarded,
        # not buffered, not counted late, and nothing raised.
        assert errors == []
        assert gw_b._m_tandem_frames.value == 1 + len(raced)
        assert transit.jitter.depth_samples == 0
        assert gw_b.buffered_audio_samples() == 0
        assert gw_b._m_late.value == 0
        assert rig.gw_c._m_frames_in.value == frames_at_c

    def test_readers_stress_install_and_release(self):
        """Four reader threads on two cores, a 1 us switch interval:
        each call's onward stream is a gapless, in-order prefix of what
        its reader delivered, covering everything delivered before the
        release, and nothing is left buffered."""
        exchange = TelephoneExchange(RATE)
        gateway = TrunkGateway(exchange, name="B",
                               metrics=MetricsRegistry())
        onward_link = _RecordingLink()
        calls = []
        for index in range(4):
            link = _RecordingLink()
            transit = InboundLeg("1%02d" % index, exchange, gateway,
                                 link, 2 * index + 1)
            onward = RemoteLine("3%02d" % index, exchange, gateway,
                                onward_link, 2 * index + 2)
            gateway._legs[link] = {transit.call_id: transit}
            gateway._legs.setdefault(onward_link, {})[onward.call_id] = \
                onward
            calls.append((link, transit, onward,
                          threading.Barrier(2, timeout=5.0)))
        errors = []

        def read(link, transit, barrier):
            try:
                for seq in range(60):
                    if seq in (6, 40):
                        barrier.wait()
                    gateway._bearer_arrived(
                        link, [(transit.call_id, seq, _stress_payload(seq))])
            except Exception as exc:     # surfaced by the test body
                errors.append(exc)

        readers = [threading.Thread(target=read, args=call[0:2] + call[3:])
                   for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for _link, transit, onward, barrier in calls:
                barrier.wait()          # six blocks held before answer
                gateway.cut_through(transit, onward)
            for _link, transit, onward, barrier in calls:
                barrier.wait()          # forty blocks delivered
                gateway.deregister_leg(transit)
                gateway.deregister_leg(onward)
            for reader in readers:
                reader.join(10.0)
                assert not reader.is_alive()
        finally:
            sys.setswitchinterval(interval)
            gateway.stop()
        assert errors == []
        sent = {}
        for call_id, seq, payload in onward_link.entries:
            sent.setdefault(call_id, []).append((seq, bytes(payload)))
        for _link, transit, onward, _barrier in calls:
            entries = sent[onward.call_id]
            assert [seq for seq, _ in entries] == list(range(len(entries)))
            stream = b"".join(payload for _, payload in entries)
            blocks = len(stream) // 8
            assert blocks >= 40
            assert stream == b"".join(
                _stress_payload(seq) for seq in range(blocks))
            assert transit.jitter.depth_samples == 0
        assert gateway._m_late.value == 0
