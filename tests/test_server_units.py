"""Unit and property tests on server internals (no sockets).

Covers the queue program tree (CoBegin/CoEnd/Delay/DelayEnd eligibility
propagation), the resource table, server-side sounds (stored and
stream), the playback program, and the Soundviewer-independent pieces
that integration tests exercise only indirectly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.attributes import AttributeList
from repro.protocol.errors import ProtocolError
from repro.protocol.types import Command, MULAW_8K, PCM16_8K
from repro.server.qprogram import Leaf, LeafState, QueueProgram
from repro.server.resources import FIRST_CLIENT_ID, ResourceTable
from repro.server.sounds import Catalogue, Sound


def _args(**kwargs):
    return AttributeList.of(**kwargs)


def make_program():
    program = QueueProgram()
    program.sample_rate = 8000
    return program


def add_shape(program, depth, shape):
    """Append a command ("cmd") or toggle a CoBegin ("co") or Delay
    ("delay") bracket; ``depth`` tracks the open brackets."""
    if shape == "cmd":
        program.add_command(1, Command.PLAY, _args())
    elif shape == "co":
        if depth and depth[-1] == "co":
            program.add_command(0, Command.CO_END, _args())
            depth.pop()
        else:
            program.add_command(0, Command.CO_BEGIN, _args())
            depth.append("co")
    else:
        if depth and depth[-1] == "delay":
            program.add_command(0, Command.DELAY_END, _args())
            depth.pop()
        else:
            program.add_command(0, Command.DELAY, _args(ms=100))
            depth.append("delay")


def tree_leaves(node):
    """Every leaf under ``node``, depth first: program order."""
    if isinstance(node, Leaf):
        return [node]
    return [leaf for child in node.children for leaf in tree_leaves(child)]


class TestQueueProgramSequencing:
    def test_sequential_eligibility_threads_time(self):
        program = make_program()
        first = program.add_command(1, Command.PLAY, _args(sound=1))
        second = program.add_command(1, Command.PLAY, _args(sound=2))
        program.arm(1000)
        ready = program.ready_leaves()
        assert ready == [first]
        assert first.not_before == 1000
        first.mark_running()
        first.complete(4321)
        ready = program.ready_leaves()
        assert ready == [second]
        assert second.not_before == 4321    # exact completion time

    def test_cobegin_makes_children_parallel(self):
        program = make_program()
        program.add_command(0, Command.CO_BEGIN, _args())
        a = program.add_command(1, Command.PLAY, _args())
        b = program.add_command(2, Command.PLAY, _args())
        program.add_command(0, Command.CO_END, _args())
        after = program.add_command(1, Command.PLAY, _args())
        program.arm(0)
        ready = program.ready_leaves()
        assert set(ready) == {a, b}
        a.mark_running()
        b.mark_running()
        a.complete(100)
        assert program.ready_leaves() == []     # b still running
        b.complete(250)
        assert program.ready_leaves() == [after]
        assert after.not_before == 250          # max of branch ends

    def test_delay_block_shifts_eligibility(self):
        program = make_program()
        program.add_command(0, Command.DELAY, _args(ms=500))
        delayed = program.add_command(1, Command.PLAY, _args())
        program.add_command(0, Command.DELAY_END, _args())
        program.arm(10_000)
        ready = program.ready_leaves()
        assert ready == [delayed]
        assert delayed.not_before == 10_000 + 4000  # 500 ms at 8 kHz

    def test_nested_delay_inside_cobegin(self):
        # The paper's own example program shape.
        program = make_program()
        program.add_command(0, Command.CO_BEGIN, _args())
        play_a = program.add_command(1, Command.PLAY, _args())
        program.add_command(0, Command.DELAY, _args(ms=1000))
        play_b = program.add_command(2, Command.PLAY, _args())
        stop_a = program.add_command(1, Command.STOP, _args())
        program.add_command(0, Command.DELAY_END, _args())
        program.add_command(0, Command.CO_END, _args())
        program.arm(0)
        ready = program.ready_leaves()
        assert set(ready) == {play_a, play_b}
        assert play_a.not_before == 0
        assert play_b.not_before == 8000
        # Inside the delay block, stop_a runs after play_b.
        play_b.mark_running()
        play_b.complete(9234)
        assert stop_a in program.ready_leaves()
        assert stop_a.not_before == 9234

    def test_unbalanced_brackets_raise(self):
        program = make_program()
        with pytest.raises(ProtocolError):
            program.add_command(0, Command.CO_END, _args())
        with pytest.raises(ProtocolError):
            program.add_command(0, Command.DELAY_END, _args())

    def test_delay_requires_ms(self):
        program = make_program()
        with pytest.raises(ProtocolError):
            program.add_command(0, Command.DELAY, _args())

    def test_appending_to_drained_queue_rearms(self):
        program = make_program()
        first = program.add_command(1, Command.PLAY, _args())
        program.arm(0)
        first.mark_running()
        first.complete(500)
        assert program.is_empty
        late = program.add_command(1, Command.PLAY, _args())
        assert program.ready_leaves() == [late]
        assert late.not_before == 500

    def test_flush_pending_keeps_running(self):
        program = make_program()
        running = program.add_command(1, Command.PLAY, _args())
        pending = program.add_command(1, Command.PLAY, _args())
        program.arm(0)
        running.mark_running()
        flushed = program.flush_pending()
        assert pending in flushed
        assert running not in flushed
        assert program.running_leaves() == [running]
        assert program.pending_count() == 0

    def test_completing_a_completed_leaf_changes_nothing(self):
        program = make_program()
        first = program.add_command(1, Command.PLAY, _args())
        second = program.add_command(1, Command.PLAY, _args())
        third = program.add_command(1, Command.PLAY, _args())
        program.arm(0)
        first.mark_running()
        first.complete(100)
        second.mark_running()
        first.complete(200)
        assert second.not_before == 100
        assert third.state is LeafState.WAITING
        assert program.running_leaves() == [second]
        assert program.pending_count() == 1
        assert program.running_count() == 1

    def test_finished_work_leaves_the_tree(self):
        program = make_program()
        program.add_command(0, Command.CO_BEGIN, _args())
        a = program.add_command(1, Command.PLAY, _args())
        b = program.add_command(2, Command.PLAY, _args())
        program.add_command(0, Command.CO_END, _args())
        after = program.add_command(1, Command.PLAY, _args())
        program.arm(0)
        for leaf in (a, b):
            leaf.mark_running()
        a.complete(100)
        assert tree_leaves(program.root) == [b, after]
        b.complete(200)
        assert tree_leaves(program.root) == [after]
        after.mark_running()
        after.complete(300)
        assert tree_leaves(program.root) == []

    def test_running_leaves_in_program_order(self):
        program = make_program()
        program.add_command(0, Command.CO_BEGIN, _args())
        a = program.add_command(1, Command.PLAY, _args())
        b = program.add_command(2, Command.PLAY, _args())
        program.add_command(0, Command.CO_END, _args())
        program.arm(0)
        b.mark_running()
        a.mark_running()
        assert program.running_leaves() == [a, b]

    def test_counts(self):
        program = make_program()
        a = program.add_command(1, Command.PLAY, _args())
        program.add_command(1, Command.PLAY, _args())
        assert program.pending_count() == 2
        program.arm(0)
        a.mark_running()
        assert program.pending_count() == 1
        assert program.running_count() == 1
        assert not program.is_empty

    @given(st.lists(st.sampled_from(["cmd", "co", "delay"]),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_random_programs_never_stall(self, shapes):
        """Property: any well-formed program drains completely when every
        started leaf is completed, and eligibility times never decrease
        along a sequence."""
        program = make_program()
        depth = []
        for shape in shapes:
            add_shape(program, depth, shape)
        while depth:
            closer = (Command.CO_END if depth.pop() == "co"
                      else Command.DELAY_END)
            program.add_command(0, closer, _args())
        program.arm(0)
        clock = 0
        guard = 0
        while not program.is_empty:
            guard += 1
            assert guard < 1000, "program stalled"
            ready = program.ready_leaves()
            assert ready, "leaves pending but none ready"
            for leaf in ready:
                assert leaf.not_before >= 0
                leaf.mark_running()
            for leaf in list(program.running_leaves()):
                clock = max(clock, leaf.not_before) + 10
                leaf.complete(clock)
        assert program.pending_count() == 0


class TestQueueProgramCounters:
    """The program's O(1) counts against a brute-force scan of every
    tree it has held (a flush detaches the old tree; its running leaves
    still count until they complete)."""

    ACTIONS = ("start", "fail", "complete", "complete_again", "flush",
               "cmd", "co", "delay", "arm", "shift", "immediate")

    @given(st.lists(st.sampled_from(["cmd", "co", "delay"]),
                    min_size=1, max_size=20), st.data())
    @settings(max_examples=200, deadline=None)
    def test_counts_match_tree_scan(self, shapes, data):
        program = make_program()
        roots = [program.root]
        depth = []
        for shape in shapes:
            add_shape(program, depth, shape)
        program.arm(0)
        clock = 0

        def check():
            leaves = [leaf for root in roots for leaf in tree_leaves(root)]
            pending = [leaf for leaf in leaves if leaf.state
                       in (LeafState.WAITING, LeafState.READY)]
            running = [leaf for leaf in leaves
                       if leaf.state is LeafState.RUNNING]
            assert program.pending_count() == len(pending)
            assert program.running_count() == len(running)
            assert program.running_leaves() == running
            assert program.is_empty == (not pending and not running)

        check()
        for _step in range(data.draw(st.integers(1, 60))):
            action = data.draw(st.sampled_from(self.ACTIONS))
            ready = program.ready_leaves()
            running = program.running_leaves()
            if action == "start" and ready:
                data.draw(st.sampled_from(ready)).mark_running()
            elif action == "fail" and ready:
                # The conductor's failed start: running, then done at once.
                leaf = data.draw(st.sampled_from(ready))
                leaf.mark_running()
                leaf.complete(max(clock, leaf.not_before))
            elif action == "complete" and running:
                # A pre-issue or an actual device end: same transition.
                clock += data.draw(st.integers(0, 500))
                data.draw(st.sampled_from(running)).complete(clock)
            elif action == "complete_again":
                done = [leaf for root in roots for leaf in tree_leaves(root)
                        if leaf.advanced]
                if done:
                    data.draw(st.sampled_from(done)).complete(clock)
            elif action == "flush":
                flushed = program.flush_pending()
                assert all(leaf.state is LeafState.DONE for leaf in flushed)
                assert program.pending_count() == 0
                roots.append(program.root)
                depth.clear()
            elif action in ("cmd", "co", "delay"):
                add_shape(program, depth, action)
            elif action == "arm":
                program.arm(clock)
            elif action == "shift":
                # A pause/resume shift: moves times, never states.
                shift = data.draw(st.integers(0, 1000))
                for leaf in ready:
                    leaf.not_before += shift
            elif action == "immediate":
                leaf = Leaf(1, Command.STOP, _args())
                leaf.queued = False
                leaf.mark_running()
                leaf.complete(clock)
            check()


class TestResourceTable:
    def test_grant_ranges_disjoint(self):
        table = ResourceTable()
        base_a, mask = table.grant_range()
        base_b, _ = table.grant_range()
        assert base_a >= FIRST_CLIENT_ID
        assert base_b > base_a + mask

    def test_add_outside_range_rejected(self):
        table = ResourceTable()
        base, _mask = table.grant_range()
        with pytest.raises(ProtocolError):
            table.add(base, 5, object())

    def test_add_duplicate_rejected(self):
        table = ResourceTable()
        base, _mask = table.grant_range()
        table.add(base, base + 1, object())
        with pytest.raises(ProtocolError):
            table.add(base, base + 1, object())

    def test_typed_get(self):
        table = ResourceTable()
        base, _mask = table.grant_range()
        sound = Sound(base + 1, MULAW_8K)
        table.add(base, base + 1, sound)
        assert table.get(base + 1, Sound) is sound
        with pytest.raises(ProtocolError):
            table.get(base + 1, ResourceTable)

    def test_owned_by_and_remove(self):
        table = ResourceTable()
        base, _mask = table.grant_range()
        table.add(base, base + 1, object())
        table.add(base, base + 2, object())
        assert sorted(table.owned_by(base)) == [base + 1, base + 2]
        table.remove(base + 1)
        assert table.owned_by(base) == [base + 2]

    def test_server_resources_not_owned(self):
        table = ResourceTable()
        table.add_server_resource(1, object())
        base, _mask = table.grant_range()
        assert table.owned_by(base) == []
        with pytest.raises(ValueError):
            table.add_server_resource(FIRST_CLIENT_ID + 1, object())


class TestSoundObject:
    def test_frame_accounting_mulaw(self):
        sound = Sound(1, MULAW_8K)
        sound.write_bytes(-1, b"\x7f" * 100)
        assert sound.frame_length == 100
        assert sound.byte_length == 100

    def test_decode_cache_invalidated_on_write(self):
        sound = Sound(1, PCM16_8K)
        sound.write_bytes(-1, np.array([100], dtype="<i2").tobytes())
        assert sound.decoded()[0] == 100
        sound.write_bytes(0, np.array([-5], dtype="<i2").tobytes())
        assert sound.decoded()[0] == -5

    def test_write_with_gap_zero_fills(self):
        sound = Sound(1, MULAW_8K)
        sound.write_bytes(4, b"\xff")
        assert sound.byte_length == 5
        assert sound.read_bytes(0, 4) == b"\x00" * 4

    def test_negative_offset_rejected(self):
        sound = Sound(1, MULAW_8K)
        with pytest.raises(ProtocolError):
            sound.write_bytes(-2, b"x")

    def test_append_frames_encodes(self):
        sound = Sound(1, MULAW_8K)
        sound.append_frames(np.array([0, 1000, -1000], dtype=np.int16))
        assert sound.byte_length == 3

    def test_append_frames_adpcm_restates(self):
        from repro.protocol.types import ADPCM_8K

        sound = Sound(1, ADPCM_8K)
        sound.append_frames(np.zeros(100, dtype=np.int16))
        sound.append_frames(np.zeros(100, dtype=np.int16))
        assert sound.frame_length == 200

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_appends_concatenate(self, chunks):
        sound = Sound(1, MULAW_8K)
        for chunk in chunks:
            sound.write_bytes(-1, chunk)
        assert sound.read_bytes(0, sound.byte_length) == b"".join(chunks)


class TestStreamSound:
    def _stream(self, capacity=1000, low_water=200):
        sound = Sound(1, PCM16_8K)
        sound.make_stream(capacity, low_water)
        return sound

    def test_fifo_order(self):
        sound = self._stream()
        sound.append_frames(np.array([1, 2], dtype=np.int16))
        sound.append_frames(np.array([3], dtype=np.int16))
        assert np.array_equal(sound.read_frames(0, 2), [1, 2])
        assert np.array_equal(sound.read_frames(0, 2), [3])

    def test_capacity_drops_overflow(self):
        sound = self._stream(capacity=10)
        sound.write_bytes(
            -1, np.arange(20, dtype="<i2").tobytes())
        assert sound.frame_length == 10

    def test_hungry_flag(self):
        sound = self._stream(capacity=1000, low_water=200)
        assert sound.stream_hungry     # empty = at low water
        sound.append_frames(np.zeros(500, dtype=np.int16))
        assert not sound.stream_hungry
        sound.read_frames(0, 400)
        assert sound.stream_hungry

    def test_end_stream_stops_hunger(self):
        sound = self._stream()
        sound.end_stream()
        assert not sound.stream_hungry

    def test_stream_validation(self):
        sound = Sound(1, PCM16_8K)
        with pytest.raises(ProtocolError):
            sound.make_stream(0, 0)
        filled = Sound(2, PCM16_8K)
        filled.write_bytes(-1, b"\x01\x02")
        with pytest.raises(ProtocolError):
            filled.make_stream(100, 10)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=20),
           st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_stream_conserves_frames(self, writes, read_size):
        """Property: frames out == frames in (up to capacity drops)."""
        sound = self._stream(capacity=10_000)
        total_in = 0
        for length in writes:
            sound.append_frames(np.ones(length, dtype=np.int16))
            total_in += length
        total_out = 0
        while True:
            got = sound.read_frames(0, read_size)
            if len(got) == 0:
                break
            total_out += len(got)
        assert total_out == total_in


class TestCatalogue:
    def test_generated_entries(self):
        catalogue = Catalogue("test")
        catalogue.add_generated("beep", b"\x01\x02", MULAW_8K)
        assert catalogue.names() == ["beep"]
        sound = catalogue.load("beep", 99)
        assert sound.read_bytes(0, 2) == b"\x01\x02"
        assert sound.name == "beep"

    def test_directory_entries(self, tmp_path):
        from repro.dsp.aufile import write_au

        write_au(tmp_path / "hello.au", b"\x7f" * 80, MULAW_8K)
        catalogue = Catalogue("local", tmp_path)
        assert "hello" in catalogue.names()
        sound = catalogue.load("hello", 5)
        assert sound.frame_length == 80

    def test_missing_entry(self):
        catalogue = Catalogue("test")
        with pytest.raises(ProtocolError):
            catalogue.load("ghost", 1)

    def test_corrupt_file_reports_bad_name(self, tmp_path):
        (tmp_path / "bad.au").write_bytes(b"garbage")
        catalogue = Catalogue("local", tmp_path)
        with pytest.raises(ProtocolError):
            catalogue.load("bad", 1)


class TestSoundLimits:
    def test_append_beyond_cap_rejected(self):
        from repro.server.sounds import MAX_SOUND_BYTES

        sound = Sound(1, MULAW_8K)
        sound._data = bytearray(MAX_SOUND_BYTES - 4)    # simulate fullness
        with pytest.raises(ProtocolError) as info:
            sound.write_bytes(-1, b"\x00" * 8)
        assert "exceed" in str(info.value)

    def test_offset_write_beyond_cap_rejected(self):
        from repro.server.sounds import MAX_SOUND_BYTES

        sound = Sound(1, MULAW_8K)
        with pytest.raises(ProtocolError):
            sound.write_bytes(MAX_SOUND_BYTES, b"\x01")

    def test_writes_below_cap_fine(self):
        sound = Sound(1, MULAW_8K)
        sound.write_bytes(-1, b"\x01" * 1000)
        assert sound.byte_length == 1000
