"""The repository benchmark: time a verdict-table workload end to end.

    python3 perfbench/run.py --workload rob8 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every measured sample is a fresh
interpreter (``perfbench/measure.py``), so set-up time and peak memory
are per sample.  With ``--trace 0`` the command first starts a few
set-up-only interpreters, then runs the workload at least twice and
until ``--seconds`` have passed, and reports the median of each
end-to-end metric.  With ``--trace 1`` it runs the workload once untraced and once
with the per-layer wrappers installed (``perfbench/layers.py``), checks
that both runs return the same verdicts and search statistics, writes
the traced run's spans to ``.perfbench_out/`` and reports every
per-layer metric.  Every run is also appended, with the CPU count,
Python and numpy versions and engines it ran on, to
``.perfbench_out/runs.jsonl`` for ``perfbench/compare.py``.

Each sample's verdicts and statistics are checked against
``perfbench/expected.json`` and every attack is replayed.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every operation passed; 2 means
the command refused to run (no source tree, ``REPRO_MC_ENGINE`` set,
fewer CPUs than the workload's workers).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.catalog import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    SIZES,
    WORKLOADS,
)

#: Set-up-only interpreters started before the timed samples.
SETUP_SAMPLES = 5
#: Timed samples taken even when they outlast ``--seconds``, so that the
#: longest workload still reports a median of more than one sample.
MIN_SAMPLES = 2
#: A sample that takes longer than this is killed and counted as a crash.
SAMPLE_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench_out"


class Refused(Exception):
    """The benchmark cannot run honestly here."""


def _preflight(workload) -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no source tree at {ROOT / 'src'}")
    if os.environ.get("REPRO_MC_ENGINE"):
        raise Refused("REPRO_MC_ENGINE is set; the benchmark measures the default engine choice")
    cpus = os.cpu_count() or 1
    if workload.workers > cpus:
        raise Refused(f"{workload.name} needs {workload.workers} CPUs, this host has {cpus}")


def _sample(args, *extra: str) -> dict:
    """Run one fresh interpreter; returns its record (or a crash record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--expected", str(args.expected),
        *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"killed after {SAMPLE_TIMEOUT_S} s"
    finally:
        # The sample's pool children share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(err)
        return {"crash": err.strip().splitlines()[-1:] or ["no output"], "exit": proc.returncode}


def _tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{pct:g}={cut[int(pct * 10) - 1]:.4g}"
    return "no tail percentile (needs >= 11 samples)"


def _gate(samples: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures = []
    for sample in samples:
        if "crash" in sample:
            failures.append(f"sample crashed (exit {sample['exit']}): {sample['crash']}")
            attempted += 1
            failed += 1
            continue
        attempted += sample["attempted"]
        failed += sample["failed"]
        failures += sample["failures"]
    return attempted, failed, failures


def _untraced(args) -> tuple[dict, list[dict]]:
    setups = [_sample(args, "--setup-only") for _ in range(SETUP_SAMPLES)]
    samples = []
    started = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - started < args.seconds:
        samples.append(_sample(args))
        if "crash" in samples[-1] or samples[-1]["failed"]:
            break
    good = [s for s in samples if "crash" not in s and "cpu_s" in s]
    series = {
        "wall_s": [s["wall_s"] for s in good],
        "setup_s": [s["setup_s"] for s in setups + good if "setup_s" in s],
        "cpu_s": [s["cpu_s"] for s in good],
        "states_per_s": [s["work"] / s["wall_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    for name, values in series.items():
        if values:
            print(
                f"  {name:<14} {statistics.median(values):>14.6g} {END_TO_END[name]:<9}"
                f" median of {len(values)} [{' '.join(f'{v:.4g}' for v in values)}]; {_tail(values)}"
            )
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END[name]}
        for name, values in series.items()
        if values
    }
    return metrics, samples + [s for s in setups if "crash" in s]


def _traced(args) -> tuple[dict, list[dict]]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.jsonl"
    reference = _sample(args)
    traced = _sample(args, "--trace", str(spans))
    samples = [reference, traced]
    if any("crash" in s for s in samples) or "layers" not in traced:
        return {}, samples
    if traced["observed"] != reference["observed"]:
        traced["failed"] = traced["attempted"]
        traced["failures"].append(
            f"traced run differs from untraced: {traced['observed']} vs {reference['observed']}"
        )
    values = dict(traced["layers"])
    values["obs.trace_overhead"] = traced["wall_s"] / reference["wall_s"]
    for name, unit in PER_LAYER.items():
        print(f"  {name:<32} {values[name]:>14.6g} {unit}")
    print(f"  spans written to {spans.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, samples


def _log_run(args, correct: bool, env: dict | None, metrics: dict) -> None:
    """Append this run to ``.perfbench_out/runs.jsonl`` (for ``compare.py``)."""
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "correct": correct,
        "env": env,
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="fuzz seed (the explorer workloads are exhaustive and ignore it)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="smoke: the test size")
    parser.add_argument(
        "--expected", type=Path, default=ROOT / "perfbench" / "expected.json",
        help="committed verdicts and statistics to check against",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running sample's
    # process group is killed and reaped on the way out (see _sample).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    try:
        _preflight(workload)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    args.expected = args.expected.resolve()
    print(
        f"perfbench {args.workload} ({args.size}) seed={args.seed} trace={args.trace}"
        f" seconds={args.seconds:g}"
    )
    metrics, samples = (_traced if args.trace else _untraced)(args)
    attempted, failed, failures = _gate(samples)
    for line in failures:
        print(f"  FAILED {line}")
    envs = [s["env"] for s in samples if "env" in s]
    if envs:
        print(f"  env {json.dumps(envs[0], sort_keys=True)}")
    print(f"  failed_share {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if not metrics and not failed:  # no sample produced numbers
        failed = attempted = max(attempted, 1)
    correct = failed == 0
    _log_run(args, correct, envs[0] if envs else None, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
