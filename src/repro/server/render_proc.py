"""True multicore rendering: process-sharded render backend.

The serial renderer (``render_pool.py``) runs every render-plan row on
the hub thread.  A thread pool cannot beat it -- the GIL serializes the
Python half of every row -- so this backend shards rows across **OS
processes** instead, the way Distributed MARF shards its pipeline
stages (PAPERS.md).

Workers cannot share live server objects, so the backend splits every
row in two:

* the **row program** -- a serializable compilation of the row: which
  players feed which output slots, in the exact order the serial block
  cycle would traverse them.  Only rows made of plain players wired
  into plain outputs compile; anything stateful-in-the-hub (recorders,
  telephones, mixers, live streams, gain automation) renders on the hub
  thread, concurrently with the workers.
* the **tick job** -- the per-block mutable state (item cursors, gains)
  plus, on first reference, the sound's *encoded* bytes keyed by the
  decode cache's ``(token, version)``.  Each worker runs the PR 2
  table-driven decode/resample kernels into its own per-process cache;
  a version bump replaces the token's entry, so stale audio can never
  be served (the invalidation protocol of docs/PERFORMANCE.md).

Workers write exact int32 partial sums into a shared-memory accumulator
ring (the int32 hardware mix is commutative and exact, so byte-identity
with the serial oracle is preserved) and reply with per-row *advance
descriptors*: how far each playback item moved, when it finished, where
its sync marks fall.  The hub -- still the only owner of server state --
applies the advances to the real handles and replays the resulting
events in plan-row order through the event router's deferral buffers
(``EventRouter.start_deferred``).

Because workers never mutate hub state directly, a worker crash is
recoverable *within the same tick*: the hub discards the partial sums,
renders the affected rows serially from the untouched handles, respawns
the worker, and the output stays byte-identical.  Every row rendered on
the hub -- and every tick no worker can take -- goes through the serial
loop of ``render_pool.py``.
"""

from __future__ import annotations

import logging
import os
import threading
from multiprocessing import get_context, shared_memory
from time import perf_counter

import numpy as np

from ..dsp.mixing import apply_gain, mix
from ..obs import MICROSECOND_BUCKETS
from .render_pool import render_rows
from .vdevices.io import OutputDevice
from .vdevices.player import PlayerDevice

log = logging.getLogger(__name__)

#: Accumulator ring depth: a lagging worker writing a stale tick lands
#: in a slot the hub has long consumed, never the one being summed.
RING_SLOTS = 4

#: Upper bound on worker processes however many cores the host reports.
MAX_PROC_WORKERS = 8

#: Plans with fewer rows than this render serially by default; the IPC
#: round trip beats the parallelism win for tiny plans.
DEFAULT_MIN_ROWS = 4

#: How long the hub waits for a worker's tick reply before declaring it
#: dead (a killed worker is detected immediately via EOF; this bounds a
#: *hung* worker).
DEFAULT_REPLY_TIMEOUT = 2.0


def default_proc_worker_count() -> int:
    """REPRO_RENDERPROC_WORKERS if set, else the core count, capped."""
    raw = os.environ.get("REPRO_RENDERPROC_WORKERS", "")
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return min(os.cpu_count() or 1, MAX_PROC_WORKERS)


# ---------------------------------------------------------------------------
# Row programs: compiling a plan row into a serializable description.
# ---------------------------------------------------------------------------

class CompiledRow:
    """One plan row the workers can render: players into output slots.

    ``players`` is in *emission order* -- the order the serial consume
    loop would first render each player (outputs pull their wired
    sources in wire order; an unpulled player renders itself when its
    own consume runs).  Advance descriptors are applied in this order
    so replayed events interleave exactly as the serial oracle's.
    """

    __slots__ = ("players", "targets")

    def __init__(self, players: list, targets: list) -> None:
        self.players = players      # [PlayerDevice], emission order
        #: [(slot index, (player indices, wire order), OutputDevice)]
        self.targets = targets

    def worker_spec(self, row_id: int) -> tuple:
        """The static, picklable half shipped to every worker."""
        return (row_id, len(self.players),
                tuple((slot, idxs) for slot, idxs, _out in self.targets))


def compile_row(row: tuple, slot_of: dict) -> CompiledRow | None:
    """Compile one ``(queue, devices)`` row, or None if it must stay on
    the hub (any device that is not a plain player or output, or any
    wire that is not player.0 -> output.0).
    """
    _queue, devices = row
    players: list = []
    outputs: list = []
    for device in devices:
        if type(device) is PlayerDevice:
            players.append(device)
        elif type(device) is OutputDevice:
            outputs.append(device)
        else:
            return None
    player_set = {id(p) for p in players}
    output_set = {id(o) for o in outputs}
    seen_wires = set()
    for device in devices:
        for wire in device.wires:
            if id(wire) in seen_wires:
                continue
            seen_wires.add(id(wire))
            if (id(wire.source_device) not in player_set
                    or id(wire.sink_device) not in output_set
                    or wire.source_port != 0 or wire.sink_port != 0):
                return None
    # Emission order: walk the consume loop.  A bound output renders its
    # wired players (wire order); an unbound output renders nothing; a
    # player not yet pulled renders itself.
    order: list = []
    order_index: dict[int, int] = {}

    def visit(player) -> int:
        if id(player) not in order_index:
            order_index[id(player)] = len(order)
            order.append(player)
        return order_index[id(player)]

    targets: list = []
    for device in devices:
        if type(device) is OutputDevice:
            if device.bound is None:
                continue
            slot = slot_of.get(id(device.bound.hardware))
            if slot is None:
                return None
            idxs = tuple(visit(wire.source_device)
                         for wire in device.wires_into(0))
            targets.append((slot, idxs, device))
        else:
            visit(device)
    return CompiledRow(order, targets)


def _shippable_source(sound) -> bool:
    """Can a worker reproduce ``sound.decoded()`` from its stored bytes?

    Streams have no stored bytes; an ADPCM sound recorded server-side
    keeps the *exact* linear capture in ``_decoded`` (the stored bytes
    are lossy), so re-decoding in a worker would diverge.
    """
    from ..protocol.types import Encoding

    if sound.is_stream:
        return False
    if (sound.sound_type.encoding is Encoding.ADPCM
            and sound._decoded is not None):
        return False
    return True


# ---------------------------------------------------------------------------
# The worker process.
# ---------------------------------------------------------------------------

def _render_player(cache: dict, items: list, sample_time: int,
                   frames: int, gain: float):
    """Faithful port of ``PlaybackProgram.program_render`` for compiled
    items (stored sounds, no gain automation).  Returns the int16 block
    plus advance descriptors ``(index, take, finished, finish_time,
    sync_now)`` for every item the serial loop would have advanced.
    """
    out = np.zeros(frames, dtype=np.int16)
    block_end = sample_time + frames
    cursor_time = sample_time
    advances = []
    for index, (cursor, not_before, paused, key) in enumerate(items):
        if paused:
            break
        start = max(cursor_time, not_before)
        if start >= block_end:
            break
        offset = start - sample_time
        room = frames - offset
        samples = cache[key[0]][1]
        take = min(room, len(samples) - cursor)
        if take > 0:
            out[offset:offset + take] = samples[cursor:cursor + take]
        took = max(take, 0)
        cursor_time = start + took
        sync_now = sample_time + offset + took
        finished = cursor + took >= len(samples)
        advances.append((index, int(took), finished, int(cursor_time),
                         int(sync_now)))
        if finished:
            continue
        break   # block full
    return apply_gain(out, gain), advances


def _worker_main(conn, shm_name: str, ring_slots: int, n_slots: int,
                 block_frames: int, sample_rate: int) -> None:
    """One render worker: job loop over the pipe, sums into shared
    memory.  Holds no server state beyond the shipped row programs and
    its decode cache; everything it reports back is a description, so
    the hub stays authoritative and a kill -9 here loses nothing.
    """
    from ..dsp import encodings
    from ..dsp.resample import resample
    from ..protocol.types import Encoding, SoundType

    # Attaching would register the segment with the (inherited, shared)
    # resource tracker; the hub owns the segment's lifetime, and a
    # second registration from here turns the hub's unlink into tracker
    # noise.  Suppress registration for the attach only.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = (
        lambda name, rtype: None if rtype == "shared_memory"
        else original_register(name, rtype))
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    ring = np.ndarray((ring_slots, n_slots, block_frames), dtype=np.int32,
                      buffer=shm.buf)
    scratch = np.ndarray((block_frames,), dtype=np.int16, buffer=shm.buf,
                         offset=ring.nbytes)
    specs: dict[int, tuple] = {}
    #: token -> (version, decoded-and-resampled int16 samples); a new
    #: version replaces the token's entry (the invalidation protocol).
    cache: dict[int, tuple] = {}
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "plan":
            specs = {spec[0]: spec for spec in message[2]}
            continue
        if kind != "job":
            continue
        seq, ring_slot, sample_time, frames, rows, payloads = message[1:]
        try:
            for key, (blob, enc, size, rate) in payloads.items():
                sound_type = SoundType(Encoding(enc), size, rate)
                samples = encodings.decode(blob, sound_type)
                if rate != sample_rate:
                    samples = resample(samples, rate, sample_rate)
                cache[key[0]] = (key[1],
                                 np.asarray(samples, dtype=np.int16))
            region = ring[ring_slot]
            region.fill(0)
            replies = []
            for row_id, player_states, target_gains in rows:
                spec = specs[row_id]
                blocks = []
                row_advances = []
                for gain, items in player_states:
                    block, advances = _render_player(
                        cache, items, sample_time, frames, gain)
                    blocks.append(block)
                    row_advances.append(advances)
                for (slot, idxs), target_gain in zip(spec[2], target_gains):
                    if not idxs:
                        continue
                    if len(idxs) == 1:
                        block = blocks[idxs[0]]
                    else:
                        block = mix([blocks[i] for i in idxs],
                                    length=frames)
                    # Stage in the shared int16 block region, then
                    # accumulate the exact int32 partial sum.
                    np.copyto(scratch[:frames],
                              apply_gain(block, target_gain))
                    region[slot, :frames] += scratch[:frames]
                replies.append((row_id, row_advances))
            conn.send(("done", seq, replies))
        except (EOFError, OSError, KeyboardInterrupt):
            break
        except Exception as exc:    # surface, don't die silently
            try:
                conn.send(("error", seq, "%s: %s" % (type(exc).__name__,
                                                     exc)))
            except (EOFError, OSError):
                break
    shm.close()
    conn.close()


# ---------------------------------------------------------------------------
# The hub-side pool.
# ---------------------------------------------------------------------------

class _Worker:
    """Hub-side handle on one render worker process."""

    __slots__ = ("index", "process", "conn", "shm", "view", "ready",
                 "plan_epoch", "sent")

    def __init__(self, index: int, process, conn, shm,
                 view: np.ndarray) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.shm = shm
        self.view = view
        self.ready = False
        self.plan_epoch = -1
        #: sound token -> last version shipped to this worker.
        self.sent: dict[int, int] = {}

    def close(self, unlink: bool = True) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.shm.close()
        except OSError:
            pass
        if unlink:
            try:
                self.shm.unlink()
            except (OSError, FileNotFoundError):
                pass


class ProcessRenderPool:
    """Persistent worker processes rendering compiled plan rows.

    Same contract as :class:`~repro.server.render_pool.RenderPool`:
    ``render()`` always renders the whole plan, with output and
    client-visible events byte-identical to the serial renderer, and
    returns True only when rows went to worker processes.
    """

    def __init__(self, server, workers: int | None = None,
                 min_rows: int | None = None,
                 reply_timeout: float | None = None) -> None:
        self.server = server
        if workers is None:
            workers = default_proc_worker_count()
        self.workers = max(0, min(int(workers), MAX_PROC_WORKERS))
        if min_rows is None:
            raw = os.environ.get("REPRO_RENDER_MIN_ROWS", "")
            min_rows = int(raw) if raw.isdigit() else DEFAULT_MIN_ROWS
        self.min_rows = max(2, int(min_rows))
        if reply_timeout is None:
            raw = os.environ.get("REPRO_RENDERPROC_TIMEOUT", "")
            try:
                reply_timeout = float(raw) if raw else DEFAULT_REPLY_TIMEOUT
            except ValueError:
                reply_timeout = DEFAULT_REPLY_TIMEOUT
        self.reply_timeout = reply_timeout
        self._ctx = get_context(
            os.environ.get("REPRO_MP_START", "spawn"))
        self._workers: list[_Worker] = []
        self._lifecycle = threading.Lock()
        self._started = False
        self._seq = 0
        self._plan_obj: list | None = None
        self._plan_epoch = 0
        self._compiled: list = []
        hub = server.hub
        self._block_frames = hub.block_frames
        self._sample_rate = hub.sample_rate
        #: hardware object id -> accumulator slot, for every device that
        #: accepts playback (speakers and telephone lines).
        self._slot_hardware = [device for device in hub.devices
                               if hasattr(device, "play")]
        self._slot_of = {id(device): slot for slot, device
                         in enumerate(self._slot_hardware)}
        metrics = server.metrics
        self._m_workers = metrics.gauge("renderproc.workers")
        self._m_parallel_ticks = metrics.counter("renderproc.parallel_ticks")
        self._m_serial_ticks = metrics.counter("renderproc.serial_ticks")
        self._m_fallback_ticks = metrics.counter("renderproc.fallback_ticks")
        self._m_respawns = metrics.counter("renderproc.respawns")
        self._m_rows = metrics.counter("renderproc.rows")
        self._m_hub_rows = metrics.counter("renderproc.hub_rows")
        self._m_ipc = metrics.histogram("renderproc.ipc_us",
                                        edges=MICROSECOND_BUCKETS)
        self._m_shm_bytes = metrics.gauge("renderproc.shm_bytes")
        self._m_payload_bytes = metrics.counter("renderproc.payload_bytes")
        self._m_workers.set(0)
        # The same throughput counters pull_sink bumps; worker-rendered
        # rows bypass pull_sink, so the hub accounts for them here to
        # keep stats backend-independent.
        self._m_wire_frames = metrics.counter("audio.wire_frames")
        self._m_frames_mixed = metrics.counter("audio.frames_mixed")
        self._m_mixes = metrics.counter("audio.mix_operations")

    @property
    def enabled(self) -> bool:
        """Process sharding needs at least two workers to pay off."""
        return self.workers >= 2

    # -- lifecycle ------------------------------------------------------------

    def _segment_bytes(self) -> int:
        return (RING_SLOTS * len(self._slot_hardware) * self._block_frames
                * 4 + self._block_frames * 2)

    def _spawn(self, index: int) -> _Worker:
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(self._segment_bytes(), 16))
        view = np.ndarray(
            (RING_SLOTS, len(self._slot_hardware), self._block_frames),
            dtype=np.int32, buffer=shm.buf)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, shm.name, RING_SLOTS,
                  len(self._slot_hardware), self._block_frames,
                  self._sample_rate),
            name="render-proc-%d" % index, daemon=True)
        try:
            process.start()
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        child_conn.close()
        return _Worker(index, process, parent_conn, shm, view)

    def start(self) -> None:
        """Spawn the worker fleet (idempotent).  Workers come up in the
        background; ticks stay serial until they report ready."""
        with self._lifecycle:
            if self._started or not self.enabled:
                return
            self._started = True
            self._workers = [self._spawn(index)
                             for index in range(self.workers)]
        self._m_shm_bytes.set(self._segment_bytes() * len(self._workers))

    def wait_ready(self, timeout: float = 10.0) -> int:
        """Block until every worker reported ready (or timeout); returns
        the ready count.  Tests and benches call this so the first
        measured tick is already parallel."""
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            self._check_ready(block_remaining=deadline - perf_counter())
            if all(worker.ready for worker in self._workers):
                break
        ready = sum(worker.ready for worker in self._workers)
        self._m_workers.set(ready)
        return ready

    def _check_ready(self, block_remaining: float = 0.0) -> None:
        """Collect pending ready handshakes (non-blocking by default)."""
        for worker in self._workers:
            if worker.ready:
                continue
            try:
                if worker.conn.poll(max(block_remaining, 0.0)):
                    message = worker.conn.recv()
                    if message and message[0] == "ready":
                        worker.ready = True
                        if self._plan_obj is not None:
                            self._send_plan(worker)
            except (EOFError, OSError):
                self._respawn(worker)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker; its shared memory is unlinked first so
        nothing leaks across the generation change."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=2.0)
        worker.close(unlink=True)
        replacement = self._spawn(worker.index)
        self._workers[self._workers.index(worker)] = replacement
        self._m_respawns.inc()

    def shutdown(self) -> None:
        """Stop and join every worker, then release the shared memory.

        Join-before-teardown matters: a worker mid-job must not outlive
        the segment it writes into.  Idempotent."""
        with self._lifecycle:
            workers, self._workers = self._workers, []
            self._started = False
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (EOFError, OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.close(unlink=True)
        if workers:
            self._m_workers.set(0)
            self._m_shm_bytes.set(0)

    # -- plan compilation -----------------------------------------------------

    def _compile(self, plan: list) -> list:
        """Compiled row (or None) per plan row, cached per plan object;
        a fresh compile is broadcast to every ready worker."""
        if plan is self._plan_obj:
            return self._compiled
        self._compiled = [compile_row(row, self._slot_of) for row in plan]
        self._plan_obj = plan
        self._plan_epoch += 1
        for worker in self._workers:
            if worker.ready:
                self._send_plan(worker)
        return self._compiled

    def _send_plan(self, worker: _Worker) -> None:
        specs = [compiled.worker_spec(row_id)
                 for row_id, compiled in enumerate(self._compiled)
                 if compiled is not None]
        try:
            worker.conn.send(("plan", self._plan_epoch, specs))
            worker.plan_epoch = self._plan_epoch
        except (EOFError, OSError):
            self._respawn(worker)

    def _tick_states(self, compiled: CompiledRow):
        """The per-tick mutable half of a row program, or None if this
        tick the row must render on the hub (gain automation pending, a
        live stream item, or a sound mutated since its play started).
        Returns (player_states, target_gains, item_lists, needs)."""
        player_states = []
        item_lists = []
        needs = []
        for player in compiled.players:
            if player._gain_points or player._current_gain != 1.0:
                return None
            items = []
            objs = []
            for item in list(player.program):
                if item.finished:
                    # The serial loop would collect and drop it with no
                    # events; doing it here is observably identical.
                    player.program.remove(item)
                    continue
                key = item.source_key
                sound = item.source_sound
                if (key is None or item.samples is None or sound is None
                        or sound.version != key[1]):
                    return None
                items.append((int(item.cursor), int(item.not_before),
                              bool(item.paused), key))
                objs.append(item)
                needs.append((key, sound))
            player_states.append((float(player.gain), items))
            item_lists.append(objs)
        target_gains = [float(output.gain)
                        for _slot, _idxs, output in compiled.targets]
        return player_states, target_gains, item_lists, needs

    # -- the parallel tick ----------------------------------------------------

    def render(self, plan: list, sample_time: int, frames: int) -> bool:
        """Render every plan row; True only if rows went to workers.

        Runs on the hub thread under the topology lock (no mutation can
        race the workers); uncompilable rows render right here, hub-
        side, while the workers chew on the compiled ones.  A tick no
        worker can take renders through the serial loop.
        """
        if not self.enabled or not self._started \
                or len(plan) < self.min_rows:
            return self._render_serial(plan, sample_time, frames)
        self._check_ready()
        ready = []
        for worker in list(self._workers):
            if worker.ready and not worker.process.is_alive():
                # Died between ticks: respawn now (the replacement joins
                # once it handshakes) and render with the survivors.
                self._respawn(worker)
            elif worker.ready:
                ready.append(worker)
        self._m_workers.set(len(ready))
        if not ready:
            return self._render_serial(plan, sample_time, frames)
        compiled = self._compile(plan)
        jobs: list = []         # (row_id, compiled, states, gains, items)
        needs: list = []
        hub_rows: list[int] = []
        for row_id, row_compiled in enumerate(compiled):
            state = (self._tick_states(row_compiled)
                     if row_compiled is not None else None)
            if state is None:
                hub_rows.append(row_id)
                continue
            player_states, target_gains, item_lists, row_needs = state
            jobs.append((row_id, row_compiled, player_states, target_gains,
                         item_lists))
            needs.extend(row_needs)
        if not jobs:
            return self._render_serial(plan, sample_time, frames)
        try:
            return self._render_parallel(plan, compiled, jobs, needs,
                                         hub_rows, ready, sample_time,
                                         frames)
        except _WorkersFailed as failure:
            # Worker-side failure: nothing was applied, so the affected
            # rows render serially from untouched state -- same tick,
            # same bytes.  Crashed workers respawn for the next tick.
            log.warning("render workers failed (%s); tick fell back to "
                        "serial rendering", failure)
            self._m_fallback_ticks.inc()
            for worker in failure.dead:
                self._m_workers.set(
                    sum(1 for peer in self._workers if peer.ready))
                self._respawn(worker)
            results: dict[int, tuple] = dict(failure.hub_results)
            for row_id, _compiled, _states, _gains, _items in jobs:
                results[row_id] = self._deferred(
                    render_rows, [plan[row_id]], sample_time, frames)
            self._m_parallel_ticks.inc()
            self._replay(plan, results)
            return True

    def _render_serial(self, plan: list, sample_time: int,
                       frames: int) -> bool:
        self._m_serial_ticks.inc()
        render_rows(plan, sample_time, frames)
        return False

    def _render_parallel(self, plan, compiled, jobs, needs, hub_rows,
                         ready, sample_time, frames) -> bool:
        self._seq += 1
        seq = self._seq
        ring_slot = seq % RING_SLOTS
        need_map = {key: sound for key, sound in needs}
        # Round-robin row assignment across the ready workers.
        assigned: dict[int, list] = {worker.index: [] for worker in ready}
        for position, job in enumerate(jobs):
            assigned[ready[position % len(ready)].index].append(job)
        started = perf_counter()
        busy: list[_Worker] = []
        dead: list[_Worker] = []
        for worker in ready:
            its_jobs = assigned[worker.index]
            if not its_jobs:
                continue
            payloads = {}
            for _row_id, _compiled, player_states, _gains, _items \
                    in its_jobs:
                for _gain, items in player_states:
                    for item_state in items:
                        key = item_state[3]
                        token, version = key
                        if worker.sent.get(token) != version:
                            payloads[key] = self._payload(need_map[key])
                            worker.sent[token] = version
            rows = [(row_id, player_states, target_gains)
                    for row_id, _c, player_states, target_gains, _i
                    in its_jobs]
            try:
                worker.conn.send(("job", seq, ring_slot, sample_time,
                                  frames, rows, payloads))
                if payloads:
                    self._m_payload_bytes.inc(
                        sum(len(blob) for blob, _e, _s, _r
                            in payloads.values()))
                busy.append(worker)
            except (EOFError, OSError):
                worker.ready = False
                dead.append(worker)
        # Hub renders the uncompilable rows while the workers run.
        hub_results = {row_id: self._deferred(
                           render_rows, [plan[row_id]], sample_time, frames)
                       for row_id in hub_rows}
        self._m_hub_rows.inc(len(hub_rows))
        replies: dict[int, list] = {}
        for worker in busy:
            reply = self._collect_reply(worker, seq)
            if reply is None:
                worker.ready = False
                dead.append(worker)
            else:
                for row_id, row_advances in reply:
                    replies[row_id] = row_advances
        self._m_ipc.observe((perf_counter() - started) * 1e6)
        if dead:
            raise _WorkersFailed(dead, hub_results)
        # All replies in: apply advance descriptors to the live handles
        # (events captured per row for the ordered replay below).
        results: dict[int, tuple] = dict(hub_results)
        for row_id, row_compiled, _states, _gains, item_lists in jobs:
            results[row_id] = self._deferred(
                self._apply_advances, row_compiled, item_lists,
                replies.get(row_id, []))
        # Sum the workers' exact int32 partials and hand each touched
        # slot its one combined block; end_block saturates once, exactly
        # like the serial mix.
        touched: set[int] = set()
        for _row_id, row_compiled, _states, gains, _items in jobs:
            for slot, idxs, _output in row_compiled.targets:
                if idxs:
                    touched.add(slot)
                    self._m_wire_frames.inc(frames * len(idxs))
                    if len(idxs) > 1:
                        self._m_mixes.inc()
                        self._m_frames_mixed.inc(frames * len(idxs))
        if touched:
            partial = np.zeros((len(self._slot_hardware), frames),
                               dtype=np.int32)
            for worker in busy:
                partial += worker.view[ring_slot, :, :frames]
            for slot in touched:
                self._slot_hardware[slot].play(partial[slot])
        self._m_rows.inc(len(jobs))
        self._m_parallel_ticks.inc()
        self._replay(plan, results)
        return True

    @staticmethod
    def _payload(sound) -> tuple:
        sound_type = sound.sound_type
        return (bytes(sound._data), int(sound_type.encoding),
                int(sound_type.samplesize), int(sound_type.samplerate))

    def _collect_reply(self, worker: _Worker, seq: int):
        """This worker's advance descriptors for tick ``seq``, or None
        if it died or hung.  Stale replies (a previous tick's seq after
        a fallback) are drained and dropped."""
        deadline = perf_counter() + self.reply_timeout
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                return None
            try:
                # lock-ok: bounded wait, the render barrier of the block
                # cycle itself (docs/PERFORMANCE.md "Process sharding").
                if not worker.conn.poll(remaining):
                    return None
                message = worker.conn.recv()
            except (EOFError, OSError):
                return None
            if message[0] == "done" and message[1] == seq:
                return message[2]
            if message[0] == "error" and message[1] == seq:
                log.warning("render worker %d failed: %s", worker.index,
                            message[2])
                return None

    def _deferred(self, fn, *args) -> tuple:
        """Run ``fn(*args)`` with event deferral armed; returns the
        ``(deferred events, error)`` pair :meth:`_replay` consumes."""
        router = self.server.events
        deferred = router.start_deferred()
        try:
            fn(*args)
        except Exception as exc:
            return deferred, exc
        finally:
            router.stop_deferred()
        return deferred, None

    @staticmethod
    def _apply_advances(row_compiled: CompiledRow, item_lists: list,
                        row_advances: list) -> None:
        """Apply one row's advance descriptors to the live handles.

        Cursors move, finished items leave the program, and the sync
        machinery emits through the same ``_emit_sync`` the serial path
        uses (deferred by the caller for the plan-row-order replay).
        """
        for player, items, advances in zip(row_compiled.players,
                                           item_lists, row_advances):
            for index, take, finished, finish_time, sync_now in advances:
                item = items[index]
                if take > 0:
                    item.cursor += take
                    item.frames_played += take
                    item.started_playing = True
                player._emit_sync(item, sync_now)
                if finished:
                    item.finish(finish_time)
                    if item in player.program:
                        player.program.remove(item)

    def _replay(self, plan: list, results: dict) -> None:
        """Flush deferred events in plan-row order; re-raise the first
        error exactly where the serial loop would have stopped."""
        for row_id in range(len(plan)):
            deferred, error = results.get(row_id, ((), None))
            for fn, fn_args in deferred:
                fn(*fn_args)
            if error is not None:
                raise error


class _WorkersFailed(Exception):
    """One or more workers died or hung mid-tick."""

    def __init__(self, dead: list, hub_results: dict) -> None:
        super().__init__("%d worker(s)" % len(dead))
        self.dead = dead
        self.hub_results = hub_results
