"""Shared pieces: program import, statistics, reference codecs, output.

Every workload module returns a :class:`Result`; ``run.py`` turns it into
the human report and the final JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
#: Scratch space for files a run hands between processes (server-child
#: traces); inside the checkout and ignored by git.
RUN_DIR = BENCH_DIR / ".run"

SAMPLE_RATE = 8000
BLOCK = 160
BLOCK_SECONDS = BLOCK / SAMPLE_RATE
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def prepare_program() -> None:
    """Put the checkout's ``src`` on the path with a default environment.

    Every ``REPRO_*`` variable is cleared so the program runs on its own
    defaults: a later change to a default shows up in the numbers.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise ProgramMissing("no program source under %s" % SOURCE)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def child_env() -> dict:
    """Environment for a program child: defaults only, source on path."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


#: Throughput is the median over windows of this many seconds, so a
#: burst of load from outside the benchmark moves it less.
WINDOW_SECONDS = 1.0


def window_rate(times, weights=None) -> float:
    """Median per-window rate of ops completing at ``times``.

    ``times`` are seconds from the start of measurement, ascending;
    ``weights`` counts ops per completion (default one each).  Each
    window's rate is its ops over the time from the previous window's
    last completion to its own last one.  A trailing partial window is
    dropped; a run shorter than two windows gives the overall rate.
    """
    times = np.asarray(times, dtype=np.float64)
    weights = (np.ones(len(times)) if weights is None
               else np.asarray(weights, dtype=np.float64))
    if len(times) == 0:
        return 0.0
    windows = int(times[-1] // WINDOW_SECONDS)
    if windows < 2:
        return float(weights.sum() / max(times[-1], 1e-9))
    index = (times // WINDOW_SECONDS).astype(np.int64)
    rates = []
    previous_end = 0.0
    for window in range(windows):
        members = index == window
        if not members.any():
            continue
        end = float(times[members][-1])
        rates.append(float(weights[members].sum()) / (end - previous_end))
        previous_end = end
    return float(np.median(rates))


def window_quantile(times, values, q: float, per_window: int = 500
                    ) -> float:
    """Median over windows of each window's ``q`` quantile.

    For tails: a host stall spoils the windows it falls in, not the
    whole run's tail.  Windows last one second, or longer when needed to
    hold about ``per_window`` values each.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(times) == 0:
        return 0.0
    span = max(times[-1] - times[0], 1e-9)
    length = max(WINDOW_SECONDS, span * per_window / len(times))
    index = ((times - times[0]) // length).astype(np.int64)
    return float(np.median([np.quantile(values[index == window], q)
                            for window in np.unique(index)]))


# -- host speed ---------------------------------------------------------------
#
# The benchmark shares its host.  The same pure-Python loop runs up to
# ~1.5x slower from one second to the next, and at times the hypervisor
# takes a virtual CPU away for a fifth of the wall clock (steal, which
# the guest still books as the running thread's CPU time).  Either moves
# every timing as much as a real change would.  So each run times a fixed
# unit of interpreter work in thread CPU (waiting for the GIL does not
# count; slow or stolen cycles do) every CALIBRATION_EVERY seconds, on
# every CPU its program threads use, and reports timings scaled to a
# reference host on which the unit takes CALIBRATION_REFERENCE seconds.
# Raw wall times are printed beside them.

CALIBRATION_LOOPS = 5000
#: Thread-CPU seconds of one unit on the reference host (2-core x86-64
#: container at 2.0 GHz, Python 3.11).
CALIBRATION_REFERENCE = 0.0004
CALIBRATION_EVERY = 0.05


def calibration_unit() -> float:
    """Thread-CPU seconds of one fixed unit of interpreter work."""
    started = time.thread_time()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value * value
    return time.thread_time() - started


def steal_ticks(cpus) -> tuple[int, int]:
    """(steal, all) clock ticks so far, summed over ``cpus``."""
    try:
        with open("/proc/stat") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return 0, 0
    steal = total = 0
    for line in lines:
        name, *fields = line.split()
        if name[3:].isdigit() and name.startswith("cpu") \
                and int(name[3:]) in cpus:
            ticks = [int(value) for value in fields[:8]]
            steal += ticks[7]
            total += sum(ticks)
    return steal, total


class HostSpeed:
    """Samples the calibration unit and turns it into scale factors.

    ``unit_cpus`` lists CPUs to time the unit on (the calling thread is
    moved to each in turn and back); by default it stays where it is.
    Steal over the same CPUs is recorded for the report.
    """

    def __init__(self, unit_cpus=None) -> None:
        self.unit_cpus = list(unit_cpus or [])
        self.steal_cpus = set(os.sched_getaffinity(0)) | set(self.unit_cpus)
        #: (perf_counter, unit seconds, steal ticks, all ticks)
        self.samples: list[tuple[float, float, int, int]] = []
        self._next = 0.0

    def sample(self) -> None:
        now = time.perf_counter()
        steal, total = steal_ticks(self.steal_cpus)
        if not self.unit_cpus:
            self.samples.append((now, calibration_unit(), steal, total))
            return
        home = os.sched_getaffinity(0)
        try:
            for cpu in self.unit_cpus:
                os.sched_setaffinity(0, {cpu})
                self.samples.append((now, calibration_unit(), steal, total))
        finally:
            os.sched_setaffinity(0, home)

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self._next = now + CALIBRATION_EVERY
            self.sample()

    def cpu_factor(self) -> float:
        """Reference over the median unit time of the whole run."""
        return CALIBRATION_REFERENCE / median([unit for _, unit, _, _
                                               in self.samples])

    def steal_share(self) -> float:
        first, last = self.samples[0], self.samples[-1]
        return (last[2] - first[2]) / max(1, last[3] - first[3])

    def wall_factors(self, times) -> np.ndarray:
        """Scale at each ``perf_counter`` time: reference over the median
        unit time of that time's one-second window."""
        times = np.asarray(times, dtype=np.float64)
        stamps = np.array([sample[0] for sample in self.samples])
        units = np.array([sample[1] for sample in self.samples])
        origin = stamps[0]
        window = ((stamps - origin) // WINDOW_SECONDS).astype(np.int64)
        per_window = {int(index): float(np.median(units[window == index]))
                      for index in np.unique(window)}
        overall = float(np.median(units))
        wanted = ((times - origin) // WINDOW_SECONDS).astype(np.int64)
        return CALIBRATION_REFERENCE / np.array(
            [per_window.get(int(index), overall) for index in wanted])


def timed_setup(setup):
    """Run ``setup`` once; returns (its result, wall seconds, seconds
    scaled to the reference host by units timed just before)."""
    speed = HostSpeed()
    for _ in range(5):
        speed.sample()
    started = time.perf_counter()
    made = setup()
    elapsed = time.perf_counter() - started
    return made, elapsed, elapsed * speed.cpu_factor()


def fingerprint() -> dict:
    """Host and build facts recorded with every run."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "cpus": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def pin(cpu_index: int) -> list[int]:
    """Pin this process to one of its allowed CPUs (when it has two+)."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []
    if len(allowed) < 2:
        return allowed
    chosen = [allowed[cpu_index % len(allowed)]]
    os.sched_setaffinity(0, chosen)
    return chosen


# -- G.711 mu-law reference (independent of the program's codec) ------------

def mulaw_decode_reference(codes: np.ndarray) -> np.ndarray:
    """Decode mu-law bytes with the G.711 formula."""
    inverted = ~np.asarray(codes, dtype=np.uint8)
    sign = inverted & 0x80
    exponent = (inverted >> 4).astype(np.int32) & 0x07
    mantissa = inverted.astype(np.int32) & 0x0F
    magnitude = (((mantissa << 3) + 0x84) << exponent) - 0x84
    return np.where(sign != 0, -magnitude, magnitude).astype(np.int16)


def voiced_mulaw_codes(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random mu-law codes that never decode to silence."""
    codes = rng.integers(0, 256, size=count, dtype=np.int32)
    silent = (codes == 0x7F) | (codes == 0xFF)
    codes[silent] -= 1
    return codes.astype(np.uint8)


def apply_gain_reference(samples: np.ndarray, gain: float) -> np.ndarray:
    """Gain with round-half-even and int16 saturation."""
    if gain == 1.0:
        return np.asarray(samples, dtype=np.int16)
    scaled = np.round(np.asarray(samples, dtype=np.float64) * gain)
    return np.clip(scaled, -32768, 32767).astype(np.int16)


# -- results ------------------------------------------------------------------

@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    #: Set-up seconds scaled to the reference host, one per repeat.
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: The driver-facing end-to-end metrics (BENCHMARK.json names).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The workload's own named metrics: name -> (value, unit).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output check name -> (passed, detail).
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    generator: dict[str, float] = field(default_factory=dict)
    #: Traced runs only: per-layer metrics and self-time shares.
    layers: dict[str, float] = field(default_factory=dict)
    shares: dict[str, dict[str, float]] = field(default_factory=dict)
    spans: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = (bool(passed), detail)

    @property
    def correct(self) -> bool:
        return all(passed for passed, _ in self.checks.values())


def load_catalogue() -> dict:
    with open(BENCH_DIR / "catalogue.json") as handle:
        return json.load(handle)
