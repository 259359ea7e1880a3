"""Deterministic fault injection for the audio stack.

The paper's distributed premise -- audio applications talking to a
server across a network -- means the interesting failures are network
failures.  This package makes them reproducible:

* :class:`~testkit.chaos.schedule.FaultSchedule` -- a seeded decision
  stream (latency, throttling, truncation, resets, partitions) that
  replays identically for a given seed;
* :class:`~testkit.chaos.proxy.ChaosProxy` -- an in-process loopback
  TCP proxy that applies those decisions to live Alib<->server traffic;
* :mod:`~testkit.chaos.fixtures` -- a pytest layer so any test can run
  under chaos by asking for a fixture.

See docs/RELIABILITY.md for the fault model and what the client and
server layers promise under it.
"""
