"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this module once per sample, passing the monotonic
instant it started the process, so ``setup_s`` covers interpreter start,
``import repro`` and building the workload's inputs.  The module times
the workload call, runs the correctness gate outside that interval and
prints one JSON record as its last line of output.

    python3 -m perfbench.measure --workload rob8 --seed 1 \\
        --spawned-at <monotonic> [--setup-only] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    """User + sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The largest resident set of this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _environment(cells: dict) -> dict:
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engines": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="FILE", help="trace the run; write spans to FILE")
    args = parser.parse_args(argv)

    from perfbench import workloads

    if args.trace:
        from perfbench import layers

        layers.install()
    prepared = workloads.prepare(args.workload, args.seed, args.size)
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)[args.size].get(args.workload, {})
    record: dict = {"workload": args.workload, "seed": args.seed}

    from repro import obs

    cpu0 = _cpu_seconds()
    started = time.monotonic()
    record["setup_s"] = started - args.spawned_at
    if args.setup_only:
        print(json.dumps(record))
        return 0
    recorder = None
    try:
        if args.trace:
            layers.reset()
            with obs.tracing() as recorder:
                started = time.monotonic()
                result = prepared.call()
                wall_s = time.monotonic() - started
        else:
            result = prepared.call()
            wall_s = time.monotonic() - started
    except Exception as exc:  # a crash fails every operation of the run
        traceback.print_exc(file=sys.stderr)
        gate = workloads.crashed(args.workload, prepared, repr(exc))
        record.update(wall_s=time.monotonic() - started, observed=None)
    else:
        record["wall_s"] = wall_s
        record["cpu_s"] = _cpu_seconds() - cpu0
        record["peak_rss_mb"] = _peak_rss_mb()
        record["observed"] = workloads.observe(args.workload, result)
        if recorder is not None:
            layers.uninstall()
        gate = workloads.check(args.workload, args.seed, prepared, result, expected)
        record["work"] = gate.work
        if recorder is not None:
            record["layers"] = layers.metrics(recorder.counters, wall_s, gate.work)
            from repro.obs.sinks import write_jsonl

            write_jsonl(recorder, args.trace)
    record.update(
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        env=_environment(workloads.engines(prepared)),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
