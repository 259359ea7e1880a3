"""Span tracing for the benchmark's traced runs.

The benchmark never edits the program: it wraps the public calls of each
layer (class methods and module functions) with a recorder, so the same
source runs traced and untraced.  Every wrapped call leaves one span --
call id, start, end, parent span and (for calls that can block) thread
CPU at both ends -- in a compact per-thread array.  Spans stay in memory
until the run ends; :meth:`Tracer.aggregate` then derives each call's
count, wall time and *self* time (its duration minus the part covered by
its child spans on the same thread).

Some layer quantities are intervals between two calls rather than one
call's duration (queue dwell from put to get, lock hold from acquire to
release, jitter-buffer dwell from push to pop).  Those are recorded as
*detached* spans: they count for their own metric and are never anyone's
parent or child.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict, deque

import numpy as np

#: Fields per span in a thread's array.
_STRIDE = 6
_SID, _START, _END, _PARENT, _CPU0, _CPU1 = range(_STRIDE)
#: Parent marker of a detached span.
_DETACHED = -2

#: Recording stops once this many spans exist (memory bound: 48 bytes a
#: span).  Every derived metric is a ratio over the recorded window, so a
#: capped run stays self-consistent.
DEFAULT_MAX_SPANS = 1_500_000


class _ThreadSpans:
    __slots__ = ("name", "data", "stack")

    def __init__(self, name: str) -> None:
        self.name = name
        self.data = array("q")
        self.stack: list[int] = []


class Tracer:
    """In-memory span recorder with per-thread span arrays."""

    def __init__(self, clock=time.perf_counter_ns,
                 cpu_clock=time.thread_time_ns,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.max_spans = max_spans
        self.recording = True
        self.spans = 0
        #: sid -> (layer, call)
        self.names: list[tuple[str, str]] = []
        self._sids: dict[tuple[str, str], int] = {}
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def sid(self, layer: str, call: str) -> int:
        key = (layer, call)
        if key not in self._sids:
            self._sids[key] = len(self.names)
            self.names.append(key)
        return self._sids[key]

    def _state(self) -> _ThreadSpans:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
            return state

    def _counted(self) -> bool:
        self.spans += 1
        if self.spans >= self.max_spans:
            self.recording = False
        return self.recording

    def wrap(self, fn, layer: str, call: str, *, cpu: bool = False,
             thread_prefix: str | None = None, on_result=None):
        """``fn`` with a span recorded around every call."""
        sid = self.sid(layer, call)
        clock, cpu_clock, state_of = self.clock, self.cpu_clock, self._state
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            if not tracer.recording or (
                    thread_prefix is not None
                    and not state.name.startswith(thread_prefix)):
                return fn(*args, **kwargs)
            tracer._counted()
            data, stack = state.data, state.stack
            index = len(data)
            data.extend((sid, clock(), 0, stack[-1] if stack else -1,
                         cpu_clock() if cpu else 0, 0))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                data[index + _END] = clock()
                if cpu:
                    data[index + _CPU1] = cpu_clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def detached(self, sid: int, start: int, end: int) -> None:
        """Record an interval that is nobody's parent or child."""
        if self.recording and self._counted():
            self._state().data.extend((sid, start, end, _DETACHED, 0, 0))

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls, attr: str, layer: str, call: str | None = None,
                    **options) -> None:
        original = cls.__dict__[attr]
        self.patch(cls, attr, self.wrap(original, layer, call or attr,
                                        **options))

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      call: str | None = None, **options) -> None:
        """Wrap a module function everywhere the program imported it."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        traced = self.wrap(original, layer, call or attr, **options)
        for name, loaded in list(sys.modules.items()):
            if (loaded is not None and name.startswith("repro")
                    and getattr(loaded, attr, None) is original):
                self.patch(loaded, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def aggregate(self, keep_durations=()) -> "Aggregate":
        """Per-call totals over every recorded span."""
        return Aggregate.build(self, set(keep_durations))


class Aggregate:
    """Count, wall, self and CPU time per traced call."""

    def __init__(self, names: list[tuple[str, str]]) -> None:
        self.names = names
        size = len(names)
        self.count = np.zeros(size, dtype=np.int64)
        self.wall_ns = np.zeros(size, dtype=np.int64)
        self.self_ns = np.zeros(size, dtype=np.int64)
        self.cpu_self_ns = np.zeros(size, dtype=np.int64)
        #: root call -> layer -> self ns of spans under that root
        self.by_root: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.durations: dict[str, np.ndarray] = {}
        #: (parent call, child call) -> spans of that call directly under
        #: that parent
        self.pairs: dict[tuple[str, str], int] = defaultdict(int)

    @classmethod
    def build(cls, tracer: Tracer, keep: set[str]) -> "Aggregate":
        agg = cls(list(tracer.names))
        size = len(agg.names)
        kept: dict[str, list[np.ndarray]] = defaultdict(list)
        for state in list(tracer._threads):
            spans = np.frombuffer(state.data, dtype=np.int64).reshape(
                -1, _STRIDE)
            if not len(spans):
                continue
            agg._add_thread(spans, size, keep, kept)
        for call, parts in kept.items():
            agg.durations[call] = np.concatenate(parts)
        return agg

    def _add_thread(self, spans: np.ndarray, size: int, keep: set[str],
                    kept: dict) -> None:
        sid = spans[:, _SID]
        duration = spans[:, _END] - spans[:, _START]
        closed = duration >= 0
        parent = spans[:, _PARENT]
        attached = parent >= 0
        parent_row = np.where(attached, parent // _STRIDE, 0)
        child_wall = np.zeros(len(spans), dtype=np.int64)
        mask = attached & closed
        np.add.at(child_wall, parent_row[mask], duration[mask])
        cpu = np.where(spans[:, _CPU1] > 0,
                       spans[:, _CPU1] - spans[:, _CPU0], 0)
        child_cpu = np.zeros(len(spans), dtype=np.int64)
        np.add.at(child_cpu, parent_row[mask], cpu[mask])
        self_wall = duration - child_wall
        self_cpu = cpu - child_cpu
        valid = closed
        self.count += np.bincount(sid[valid], minlength=size)
        self.wall_ns += np.bincount(sid[valid], weights=duration[valid],
                                    minlength=size).astype(np.int64)
        self.self_ns += np.bincount(sid[valid], weights=self_wall[valid],
                                    minlength=size).astype(np.int64)
        self.cpu_self_ns += np.bincount(sid[valid], weights=self_cpu[valid],
                                        minlength=size).astype(np.int64)
        # Root of every attached span: follow parents until a root (the
        # parent always precedes its child in the array).
        rows = np.arange(len(spans))
        root = np.where(attached, parent_row, rows)
        for _ in range(64):
            up = np.where(parent[root] >= 0, parent_row[root], root)
            if np.array_equal(up, root):
                break
            root = up
        if mask.any():
            parent_sid = sid[parent_row[mask]]
            pair_keys, pair_counts = np.unique(
                parent_sid * size + sid[mask], return_counts=True)
            for key, count in zip(pair_keys, pair_counts):
                outer, inner = divmod(int(key), size)
                self.pairs["%s.%s" % self.names[outer],
                           "%s.%s" % self.names[inner]] += int(count)
        in_tree = (parent != _DETACHED) & valid
        for root_sid in np.unique(sid[root[in_tree]]):
            root_call = "%s.%s" % self.names[root_sid]
            members = in_tree & (sid[root] == root_sid)
            layer_self = np.bincount(sid[members], weights=self_wall[members],
                                     minlength=size)
            for member_sid in np.nonzero(layer_self)[0]:
                layer = self.names[member_sid][0]
                self.by_root[root_call][layer] += int(layer_self[member_sid])
        for call in keep:
            key = tuple(call.rsplit(".", 1))
            if key in set(self.names):
                want = valid & (sid == self.names.index(key))
                kept[call].append(duration[want])

    # -- lookups --------------------------------------------------------------

    def _sids(self, layer: str, calls) -> list[int]:
        return [index for index, (lay, call) in enumerate(self.names)
                if lay == layer and (calls is None or call in calls)]

    def calls(self, layer: str, calls=None) -> int:
        return int(sum(self.count[i] for i in self._sids(layer, calls)))

    def mean_self_us(self, layer: str, calls=None, cpu: bool = False
                     ) -> float:
        sids = self._sids(layer, calls)
        count = sum(self.count[i] for i in sids)
        if not count:
            return 0.0
        source = self.cpu_self_ns if cpu else self.self_ns
        return float(sum(source[i] for i in sids)) / count / 1e3

    def mean_wall_us(self, layer: str, calls=None) -> float:
        sids = self._sids(layer, calls)
        count = sum(self.count[i] for i in sids)
        if not count:
            return 0.0
        return float(sum(self.wall_ns[i] for i in sids)) / count / 1e3

    def total_self_us(self, layer: str, calls=None) -> float:
        return float(sum(self.self_ns[i]
                         for i in self._sids(layer, calls))) / 1e3

    def shares(self, root_call: str) -> dict[str, float]:
        """Each layer's share of the self time under ``root_call`` spans."""
        layers = self.by_root.get(root_call, {})
        total = sum(layers.values())
        if not total:
            return {}
        return {layer: value / total for layer, value in
                sorted(layers.items(), key=lambda item: -item[1])}


class Probes:
    """Interval probes that pair two calls: queue dwell, lock hold, ...

    Each probe keeps FIFO timestamps per object (keyed by ``id``) and
    records the interval as a detached span when the matching call runs.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pending: dict[int, deque] = defaultdict(deque)
        self.tracked: set[int] = set()
        self.objects: dict[int, object] = {}
        self.events: dict[str, int] = defaultdict(int)
        #: id -> (sendalls, recvs) of links already running at install
        self.baseline: dict[int, tuple[int, int]] = {}
        self._hold = threading.local()

    def put(self, key: int, count: int = 1) -> None:
        self.pending[key].extend([self.tracer.clock()] * count)

    def take(self, key: int, sid: int, remaining: int) -> None:
        """The oldest item left a queue that still holds ``remaining``.

        Stamps beyond ``remaining + 1`` belong to items that left through
        a call made before the probes were installed; they are dropped.
        """
        waiting = self.pending.get(key)
        if not waiting:
            return
        while len(waiting) > remaining + 1:
            waiting.popleft()
        self.tracer.detached(sid, waiting.popleft(), self.tracer.clock())

    def drop_oldest(self, key: int, count: int) -> None:
        waiting = self.pending.get(key)
        for _ in range(min(count, len(waiting or ()))):
            waiting.popleft()


def install_layers(tracer: Tracer) -> Probes:
    """Wrap every layer's public calls named in the benchmark catalogue.

    Only modules the process has already imported are touched, so the
    server child and the in-process workloads share one installer.
    """
    probes = Probes(tracer)
    clock = tracer.clock

    from repro.protocol import wire as pwire

    tracer.wrap_method(pwire.MessageStream, "read_batch", "protocol",
                       cpu=True, thread_prefix="client-reader")
    tracer.wrap_method(pwire.MessageStream, "read_available", "protocol",
                       cpu=True, thread_prefix="io-shard")
    tracer.wrap_method(pwire.Message, "encode", "protocol")

    from repro.server import clients as sclients

    outbound = sclients._OutboundQueue
    dwell_sid = tracer.sid("server.clients", "queue_dwell")
    put, put_many = outbound.__dict__["put"], outbound.__dict__["put_many"]
    get, pop_nowait = outbound.__dict__["get"], outbound.__dict__["pop_nowait"]

    def queue_put(self, message, droppable):
        before = self.dropped
        probes.put(id(self))
        put(self, message, droppable)
        shed = self.dropped - before
        if shed:
            probes.events["server.clients.shed"] += shed
            probes.drop_oldest(id(self), shed)

    def queue_put_many(self, messages, droppable):
        messages = list(messages)
        before = self.dropped
        probes.put(id(self), len(messages))
        put_many(self, messages, droppable)
        shed = self.dropped - before
        if shed:
            probes.events["server.clients.shed"] += shed
            probes.drop_oldest(id(self), shed)

    def queue_get(self):
        message = get(self)
        probes.take(id(self), dwell_sid, len(self))
        probes.events["server.clients.dequeued"] += 1
        return message

    def queue_pop_nowait(self):
        message = pop_nowait(self)
        if message is not None:
            probes.take(id(self), dwell_sid, len(self))
            probes.events["server.clients.dequeued"] += 1
        return message

    tracer.patch(outbound, "put", queue_put)
    tracer.patch(outbound, "put_many", queue_put_many)
    tracer.patch(outbound, "get", queue_get)
    tracer.patch(outbound, "pop_nowait", queue_pop_nowait)
    tracer.patch(sclients, "write_message", tracer.wrap(
        sclients.write_message, "server.clients", "socket_send"))

    from repro.server import core, dispatch, locks, stack

    tracer.wrap_method(dispatch.Dispatcher, "handle", "server.dispatch")
    tracer.wrap_method(dispatch.Dispatcher, "handle_unlocked",
                       "server.dispatch")
    tracer.wrap_method(core.AudioServer, "dispatch_batch", "server.dispatch")

    lock_cls = locks.InstrumentedRLock
    acquire, release = lock_cls.__dict__["acquire"], lock_cls.__dict__["release"]
    traced_acquire = tracer.wrap(acquire, "server.locks", "topology_acquire")
    hold_sid = tracer.sid("server.locks", "topology_hold")
    hold = probes._hold

    def lock_acquire(self, blocking=True, timeout=-1):
        if self.name != "topology":
            return acquire(self, blocking, timeout)
        depth = getattr(hold, "depth", 0)
        if depth:
            got = acquire(self, blocking, timeout)
        else:
            got = traced_acquire(self, blocking, timeout)
            if got:
                hold.entered = clock()
        if got:
            hold.depth = depth + 1
        return got

    def lock_release(self):
        if self.name == "topology":
            depth = getattr(hold, "depth", 0)
            if depth == 1:
                tracer.detached(hold_sid, hold.entered, clock())
            hold.depth = max(0, depth - 1)
        release(self)

    tracer.patch(lock_cls, "acquire", lock_acquire)
    tracer.patch(lock_cls, "release", lock_release)

    tracer.wrap_function("repro.server.snapshot", "build_query_snapshot",
                         "server.snapshot", "build")
    tracer.wrap_method(stack.ActiveStack, "render_rows", "server.stack")

    from repro.server import conductor, qprogram

    tracer.wrap_method(conductor.CommandQueue, "tick_pre", "server.conductor")
    tracer.wrap_method(conductor.CommandQueue, "tick_post",
                       "server.conductor")
    for name in ("ready_leaves", "running_leaves", "pending_count"):
        tracer.wrap_method(qprogram.QueueProgram, name, "server.qprogram")

    from repro.server.vdevices.base import VirtualDevice

    pending = [VirtualDevice]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "consume" in cls.__dict__:
            tracer.wrap_method(cls, "consume", "server.vdevices",
                               "%s.consume" % cls.__name__)

    from repro.server import render_pool

    def count_render(result):
        probes.events["render.serial" if not result
                      else "render.parallel"] += 1

    tracer.wrap_method(render_pool.RenderPool, "render", "server.render_pool",
                       on_result=count_render)
    render_proc = sys.modules.get("repro.server.render_proc")
    if render_proc is not None:
        tracer.wrap_method(render_proc.ProcessRenderPool, "render",
                           "server.render_pool", on_result=count_render)

    from repro.server import events, sounds

    tracer.wrap_method(events.EventRouter, "emit", "server.events")
    tracer.wrap_method(events.EventRouter, "flush_tick_batch",
                       "server.events")
    tracer.wrap_method(sounds.DecodeCache, "get", "server.sounds")

    for name in ("decode", "mulaw_decode"):
        tracer.wrap_function("repro.dsp.encodings", name, "dsp",
                             "decode.%s" % name)
    for name in ("encode", "mulaw_encode"):
        tracer.wrap_function("repro.dsp.encodings", name, "dsp",
                             "encode.%s" % name)
    tracer.wrap_function("repro.dsp.mixing", "mix", "dsp")

    from repro.hardware.hub import AudioHub

    tracer.wrap_method(AudioHub, "run_block", "hardware.hub")

    from repro.telephony.exchange import TelephoneExchange

    tracer.wrap_method(TelephoneExchange, "tick", "telephony.exchange")
    tracer.wrap_method(TelephoneExchange, "dial", "telephony.exchange")

    _install_trunk(tracer, probes)

    from repro.obs import registry

    tracer.wrap_method(registry.Counter, "inc", "obs", "Counter.inc")
    tracer.wrap_method(registry.Gauge, "set", "obs", "Gauge.set")
    tracer.wrap_method(registry.Histogram, "observe", "obs",
                       "Histogram.observe")
    return probes


def _install_trunk(tracer: Tracer, probes: Probes) -> None:
    import queue

    from repro.trunk import gateway, jitter, link, routing

    clock = tracer.clock
    tracer.wrap_method(gateway.TrunkGateway, "tick", "trunk.gateway")
    tracer.wrap_method(gateway.TrunkGateway, "route_for", "trunk.routing")
    tracer.wrap_method(routing.RouteTable, "candidates", "trunk.routing")
    tracer.wrap_method(link.TrunkLink, "send", "trunk.link")
    tracer.wrap_method(link.TrunkLink, "send_batch", "trunk.link")
    tracer.wrap_function("repro.trunk.wire", "decode_frame", "trunk.wire")

    start = link.TrunkLink.__dict__["start"]

    def link_start(self):
        probes.tracked.add(id(self._outbound))
        probes.objects[id(self)] = self
        return start(self)

    tracer.patch(link.TrunkLink, "start", link_start)
    # Links started before the probes went in are found on the heap.
    for obj in gc.get_objects():
        if isinstance(obj, link.TrunkLink) and obj.alive:
            probes.tracked.add(id(obj._outbound))
            probes.objects[id(obj)] = obj
            probes.baseline[id(obj)] = (obj.sendalls, obj.recvs)

    link_dwell = tracer.sid("trunk.link", "queue_dwell")
    q_put = queue.Queue.__dict__["put"]
    q_get = queue.Queue.__dict__["get"]
    q_get_nowait = queue.Queue.__dict__["get_nowait"]

    def put(self, item, block=True, timeout=None):
        if id(self) in probes.tracked:
            probes.put(id(self))
        return q_put(self, item, block, timeout)

    def get(self, block=True, timeout=None):
        item = q_get(self, block, timeout)
        if id(self) in probes.tracked and item is not None:
            probes.take(id(self), link_dwell, self.qsize())
        return item

    def get_nowait(self):
        item = q_get_nowait(self)
        if id(self) in probes.tracked and item is not None:
            probes.take(id(self), link_dwell, self.qsize())
        return item

    tracer.patch(queue.Queue, "put", put)
    tracer.patch(queue.Queue, "get", get)
    tracer.patch(queue.Queue, "get_nowait", get_nowait)

    buffer_cls = jitter.JitterBuffer
    push, pop_raw = buffer_cls.__dict__["push"], buffer_cls.__dict__["pop_raw"]
    jitter_dwell = tracer.sid("trunk.jitter", "dwell")
    traced_push = tracer.wrap(push, "trunk.jitter", "push")
    traced_pop = tracer.wrap(pop_raw, "trunk.jitter", "pop_raw")
    buffers = probes.objects

    def jitter_push(self, seq, payload):
        buffers[id(self)] = self
        probes.pending[id(self)].append([clock(), len(payload)])
        return traced_push(self, seq, payload)

    def jitter_pop_raw(self, frames):
        before = self.depth_samples
        view = traced_pop(self, frames)
        taken = before - self.depth_samples
        waiting = probes.pending.get(id(self))
        now = clock()
        while taken > 0 and waiting:
            entry = waiting[0]
            used = min(taken, entry[1])
            entry[1] -= used
            taken -= used
            if entry[1] == 0:
                waiting.popleft()
                tracer.detached(jitter_dwell, entry[0], now)
        return view

    tracer.patch(buffer_cls, "push", jitter_push)
    tracer.patch(buffer_cls, "pop_raw", jitter_pop_raw)


def layer_metrics(agg: Aggregate, probes: Probes, ops: int) -> dict:
    """Every per-layer metric of the catalogue, from one traced run.

    ``ops`` is the workload's op count over the recorded window (requests
    for ``control``, blocks for ``voices``/``gapless``, exchange ticks for
    ``trunk``).  A layer the workload never reaches reads 0.
    """
    from repro.trunk.jitter import JitterBuffer
    from repro.trunk.link import TrunkLink

    per_op = (lambda value: value / ops) if ops else (lambda value: 0.0)
    dispatched = agg.calls("server.dispatch", ("handle", "handle_unlocked"))
    batches = agg.calls("server.dispatch", ("dispatch_batch",))
    unlocked = agg.calls("server.dispatch", ("handle_unlocked",))
    blocks = agg.calls("hardware.hub", ("run_block",))
    renders = probes.events["render.serial"] + probes.events[
        "render.parallel"]
    cache_gets = agg.calls("server.sounds", ("get",))
    cache_misses = agg.pairs.get(("server.sounds.get", "dsp.decode.decode"),
                                 0)
    gateway_ticks = agg.calls("trunk.gateway", ("tick",))
    links = [obj for obj in probes.objects.values()
             if isinstance(obj, TrunkLink)]
    buffers = [obj for obj in probes.objects.values()
               if isinstance(obj, JitterBuffer)]
    block_durations = agg.durations.get("hardware.hub.run_block")
    obs_calls = agg.calls("obs")
    metrics = {
        "protocol.read_us": agg.mean_self_us(
            "protocol", ("read_batch", "read_available"), cpu=True),
        "protocol.encode_us": agg.mean_self_us("protocol", ("encode",)),
        "server.clients.queue_dwell_us": agg.mean_wall_us(
            "server.clients", ("queue_dwell",)),
        "server.clients.sends_per_msg": (
            agg.calls("server.clients", ("socket_send",))
            / probes.events["server.clients.dequeued"]
            if probes.events["server.clients.dequeued"] else 0.0),
        "server.clients.shed_events": float(
            probes.events["server.clients.shed"]),
        "server.dispatch.unlocked_us": agg.mean_self_us(
            "server.dispatch", ("handle_unlocked",)),
        "server.dispatch.locked_us": agg.mean_self_us(
            "server.dispatch", ("handle",)),
        "server.dispatch.batch_size": (dispatched / batches
                                       if batches else 0.0),
        "server.locks.topology_wait_us": agg.mean_wall_us(
            "server.locks", ("topology_acquire",)),
        "server.locks.topology_hold_us": agg.mean_wall_us(
            "server.locks", ("topology_hold",)),
        "server.snapshot.build_us": agg.mean_self_us("server.snapshot"),
        "server.snapshot.builds_per_read": (
            agg.calls("server.snapshot") / unlocked if unlocked else 0.0),
        "server.stack.render_rows_us": agg.mean_self_us("server.stack"),
        "server.stack.plan_rebuilds": per_op(agg.calls("server.stack")),
        "server.conductor.tick_pre_us": agg.mean_self_us(
            "server.conductor", ("tick_pre",)),
        "server.conductor.tick_post_us": agg.mean_self_us(
            "server.conductor", ("tick_post",)),
        "server.qprogram.scan_us": agg.mean_self_us("server.qprogram"),
        "server.vdevices.consume_us": agg.mean_self_us("server.vdevices"),
        "server.render_pool.render_us": agg.mean_self_us(
            "server.render_pool"),
        "server.render_pool.serial_share": (
            probes.events["render.serial"] / renders if renders else 0.0),
        "server.events.emit_us": agg.mean_self_us("server.events", ("emit",)),
        "server.events.flush_us": agg.mean_self_us(
            "server.events", ("flush_tick_batch",)),
        "server.events.per_block": (
            agg.calls("server.events", ("emit",)) / blocks if blocks
            else 0.0),
        "server.sounds.cache_hit_ratio": (
            1.0 - cache_misses / cache_gets if cache_gets else 0.0),
        "dsp.decode_us": agg.mean_self_us(
            "dsp", ("decode.decode", "decode.mulaw_decode")),
        "dsp.encode_us": agg.mean_self_us(
            "dsp", ("encode.encode", "encode.mulaw_encode")),
        "dsp.mix_us": agg.mean_self_us("dsp", ("mix",)),
        "hardware.hub.self_us": agg.mean_self_us("hardware.hub"),
        "hardware.hub.block_p99_us": (
            float(np.percentile(block_durations, 99)) / 1e3
            if block_durations is not None and len(block_durations)
            else 0.0),
        "telephony.exchange.tick_us": agg.mean_self_us(
            "telephony.exchange", ("tick",)),
        "telephony.exchange.dial_us": agg.mean_self_us(
            "telephony.exchange", ("dial",)),
        "trunk.gateway.tick_us": agg.mean_self_us("trunk.gateway"),
        "trunk.link.send_us": agg.mean_self_us(
            "trunk.link", ("send", "send_batch")),
        "trunk.link.queue_dwell_us": agg.mean_wall_us(
            "trunk.link", ("queue_dwell",)),
        "trunk.link.sendalls_per_tick": (
            sum(link.sendalls - probes.baseline.get(id(link), (0, 0))[0]
                for link in links) / gateway_ticks
            if gateway_ticks else 0.0),
        "trunk.link.recvs_per_tick": (
            sum(link.recvs - probes.baseline.get(id(link), (0, 0))[1]
                for link in links) / gateway_ticks
            if gateway_ticks else 0.0),
        "trunk.wire.decode_us": agg.mean_self_us("trunk.wire"),
        "trunk.jitter.dwell_ms": agg.mean_wall_us(
            "trunk.jitter", ("dwell",)) / 1e3,
        "trunk.jitter.underruns": float(
            sum(buffer.underruns for buffer in buffers)),
        "trunk.routing.lookup_us": agg.mean_self_us("trunk.routing"),
        "obs.calls_per_op": per_op(obs_calls),
        "obs.us_per_op": per_op(agg.total_self_us("obs")),
    }
    return {name: float(value) for name, value in metrics.items()}


class TraceSession:
    """Installs the layer wrappers now; :meth:`finish` fills a result."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.probes = install_layers(self.tracer)

    def finish(self, result, ops_keys) -> None:
        """Stop recording and store per-layer metrics on ``result``.

        ``ops_keys`` name the traced calls (``layer.call``) whose spans
        count the workload's ops.
        """
        self.tracer.recording = False
        self.tracer.uninstall()
        agg = self.tracer.aggregate(keep_durations=["hardware.hub.run_block"])
        ops = 0
        for key in ops_keys:
            layer, call = key.rsplit(".", 1)
            ops += agg.calls(layer, (call,))
        result.layers = layer_metrics(agg, self.probes, ops)
        result.shares = {root: agg.shares(root) for root in agg.by_root}
        result.spans = self.tracer.spans
