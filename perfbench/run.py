"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage::

    python3 perfbench/run.py --workload {control,voices,gapless,trunk}
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run measures one workload in this fresh process: it builds its
inputs from ``--seed``, sets the program up five times (``setup_s`` is
the median), measures for ``--seconds``, checks the program's outputs,
prints a report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a run whose layer calls are
wrapped with span recorders.  ``--all`` runs the self-checks, then every
workload untraced and traced (each in its own process), and prints every
workload's named metrics with units, its ops attempted and failed, and
the tracing overhead.  The catalogue of workloads and metrics, with why
each exists and what should move it, is ``perfbench/catalogue.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    RUN_DIR,
    ProgramMissing,
    Result,
    fingerprint,
    load_catalogue,
    median,
    prepare_program,
)

WORKLOADS = ("control", "voices", "gapless", "trunk")
#: Traced calls whose self-time breakdown --all prints: the block cycle,
#: a dispatched request batch and an exchange tick.
BLOCK_ROOTS = ("hardware.hub.run_block", "server.dispatch.dispatch_batch",
               "telephony.exchange.tick")


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Result:
    if name == "control":
        from wl_control import run_control

        return run_control(seed, seconds, trace=trace)
    from tracing import TraceSession

    start_trace = TraceSession if trace else None
    if name == "voices":
        from wl_stepped import run_voices

        return run_voices(seed, seconds, start_trace)
    if name == "gapless":
        from wl_stepped import run_gapless

        return run_gapless(seed, seconds, start_trace)
    from wl_trunk import run_trunk

    return run_trunk(seed, seconds, start_trace)


def metrics_json(result: Result, trace: bool, catalogue: dict) -> dict:
    """The driver-facing metric set, with units from the catalogue."""
    if trace:
        return {name: {"value": result.layers[name], "unit": entry["unit"]}
                for name, entry in catalogue["per_layer"].items()}
    values = dict(result.end_to_end, setup_s=median(result.setup_s))
    return {name: {"value": values[name], "unit": entry["unit"]}
            for name, entry in catalogue["end_to_end"].items()}


def report(result: Result, args, catalogue: dict, host: dict) -> None:
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (result.workload, args.seed, args.seconds, args.trace))
    print("host %s" % json.dumps(host, sort_keys=True))
    print("setup_s runs %s (wall %s)" % (
        ", ".join("%.4f" % value for value in result.setup_s),
        ", ".join("%.4f" % value for value in result.setup_wall_s)))
    for name, (value, unit) in result.named.items():
        print("  %-22s %14.4f %s" % (name, value, unit))
    for name, value in result.end_to_end.items():
        unit = catalogue["end_to_end"][name]["unit"]
        print("  e2e %-18s %14.4f %s" % (name, value, unit))
    for name, value in result.generator.items():
        print("  generator %-12s %14.4f" % (name, value))
    print("ops attempted %d failed %d" % (result.attempted, result.failed))
    for name, (passed, detail) in result.checks.items():
        print("check %-36s %s  %s" % (name, "PASS" if passed else "FAIL",
                                      detail))
    if result.layers:
        print("traced spans %d" % result.spans)
        for name, value in result.layers.items():
            unit = catalogue["per_layer"][name]["unit"]
            print("  layer %-34s %14.4f %s" % (name, value, unit))
        for root, shares in sorted(result.shares.items()):
            top = ", ".join("%s %.0f%%" % (layer, share * 100)
                            for layer, share in list(shares.items())[:6])
            print("  self-time under %s: %s" % (root, top))


def run_all(args) -> int:
    """Self-checks, then each workload untraced and traced."""
    here = os.path.dirname(os.path.abspath(__file__))
    check = subprocess.run([sys.executable, os.path.join(here,
                                                         "selfcheck.py")])
    if check.returncode != 0:
        print("self-checks FAILED")
        return 1
    RUN_DIR.mkdir(exist_ok=True)
    catalogue = load_catalogue()
    failures = 0
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            dump = RUN_DIR / ("all-%s-%d-%d.json" % (name, trace,
                                                      os.getpid()))
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace), "--dump",
                 str(dump)], capture_output=True, text=True)
            if completed.returncode != 0:
                print(completed.stdout + completed.stderr)
                failures += 1
                continue
            with open(dump) as handle:
                runs[trace] = json.load(handle)
            dump.unlink()
        if 0 not in runs:
            continue
        plain = runs[0]
        print("== %s: %s" % (name, catalogue["workloads"][name]["why"]))
        print("   ops attempted %d, failed %d, correct %s"
              % (plain["attempted"], plain["failed"], plain["correct"]))
        print("   setup_s %.4f s" % median(plain["setup_s"]))
        traced = runs.get(1, {}).get("named", {})
        for metric, (value, unit) in plain["named"].items():
            line = "   %-20s %12.4f %-5s" % (metric, value, unit)
            if metric in catalogue["named"] and metric in traced:
                line += "  traced %12.4f (%+.0f%% tracing overhead)" % (
                    traced[metric][0], (traced[metric][0] / value - 1) * 100)
            print(line)
        shares = runs.get(1, {}).get("shares", {})
        for root in BLOCK_ROOTS:
            if root in shares:
                top = ", ".join("%s %.0f%%" % (layer, share * 100)
                                for layer, share in
                                list(shares[root].items())[:6])
                print("   self time under %s: %s" % (root, top))
        failures += plain["failed"] > 0 or not plain["correct"]
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", default=None,
                        help="also write the whole result as JSON here")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        prepare_program()
    except ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    catalogue = load_catalogue()
    host = fingerprint()
    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(result, args, catalogue, host)
    print("run wall %.1f s" % (time.perf_counter() - started))
    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump({"named": result.named, "setup_s": result.setup_s,
                       "attempted": result.attempted,
                       "failed": result.failed, "correct": result.correct,
                       "shares": result.shares}, handle)
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics_json(result, bool(args.trace),
                                              catalogue)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
