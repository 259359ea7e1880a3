"""Benchmark session support: the experiment report and stats capture.

Each bench registers human-readable result rows with the ``report``
fixture; at session end the collected rows are printed as the
paper-vs-measured table that EXPERIMENTS.md records, and the server-side
stats snapshots captured by every rig are written to BENCH_STATS.json.

``REPRO_BENCH_FAST=1`` switches the whole suite to smoke mode: rigs and
workloads shrink via :func:`testkit.rig.scaled`, and the
pytest-benchmark calibration loop is clamped to a minimum here.
"""

import json
import os

import pytest

from testkit import rig
from testkit.leakguard import no_leaked_threads_or_fds  # noqa: F401

_ROWS: list[str] = []


class Report:
    """Accumulates experiment result rows for the end-of-run table."""

    def row(self, experiment: str, metric: str, value: str,
            expectation: str = "") -> None:
        line = "%-4s | %-46s | %-18s | %s" % (experiment, metric, value,
                                              expectation)
        _ROWS.append(line)

    def note(self, text: str) -> None:
        _ROWS.append(text)


@pytest.fixture
def report():
    return Report()


@pytest.fixture(autouse=True)
def _label_rig_stats(request):
    """Attribute rig stats snapshots to the running experiment."""
    rig.CURRENT_LABEL = request.node.nodeid
    yield
    rig.CURRENT_LABEL = None


def pytest_configure(config):
    if not rig.FAST:
        return
    # Smoke mode: stop pytest-benchmark from calibrating/looping; one
    # quick round per bench is enough to prove the path works.
    for option, value in (("benchmark_min_rounds", 1),
                          ("benchmark_max_time", 0.1),
                          ("benchmark_warmup", "off"),
                          ("benchmark_disable_gc", False)):
        if hasattr(config.option, option):
            setattr(config.option, option, value)


def pytest_sessionfinish(session, exitstatus):
    for filename, results in rig.RESULT_SINKS.items():
        if not results:
            continue
        path = os.path.join(str(session.config.rootdir), filename)
        # Merge into whatever an earlier (possibly fuller) run wrote: a
        # partial re-run -- one module run locally, say -- must not
        # clobber the other experiments' records that the perf gate reads.
        merged = dict(results)
        try:
            with open(path) as handle:
                previous = json.load(handle).get("results", {})
            merged = {**previous, **results}
        except (OSError, ValueError):
            pass
        try:
            with open(path, "w") as handle:
                json.dump({"fast_mode": rig.FAST,
                           "results": merged}, handle, indent=2)
            print("\n%d result(s) written to %s (%d from this run)"
                  % (len(merged), path, len(results)))
        except OSError as exc:
            print("\ncould not write %s: %s" % (path, exc))
    if rig.SESSION_STATS:
        path = os.path.join(str(session.config.rootdir), "BENCH_STATS.json")
        try:
            with open(path, "w") as handle:
                json.dump({"fast_mode": rig.FAST,
                           "runs": rig.SESSION_STATS}, handle, indent=2)
            print("\nserver stats for %d rig(s) written to %s"
                  % (len(rig.SESSION_STATS), path))
        except OSError as exc:
            print("\ncould not write %s: %s" % (path, exc))
    if not _ROWS:
        return
    separator = "-" * 100
    print("\n" + separator)
    print("EXPERIMENT RESULTS (paper-goal vs measured)")
    print(separator)
    print("%-4s | %-46s | %-18s | %s" % ("exp", "metric", "measured",
                                         "paper goal / expectation"))
    print(separator)
    for row in _ROWS:
        print(row)
    print(separator)
