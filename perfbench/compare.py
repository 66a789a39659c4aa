"""Compare two sets of benchmark runs, refusing unlike environments.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records ``run.py`` appends to
``.perfbench_out/runs.jsonl`` (copy it aside after measuring each side).
Only untraced, full-size, correct runs are compared.  Two records are
comparable only if their environments match: CPU count, Python and
numpy versions, and the engine picked for every cell -- a numpy-less run
is never compared with a numpy one.  For each workload and end-to-end
metric the script prints both medians, the parent's quartile spread, the
relative change and how many of the paired runs the change won.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.catalog import END_TO_END, HIGHER_IS_BETTER  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Untraced full-size correct runs of one file, by workload."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0 and record["size"] == "full" and record["correct"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    status = 0
    for workload in sorted(set(parent) & set(change)):
        envs = {json.dumps(r["env"], sort_keys=True) for r in parent[workload] + change[workload]}
        if len(envs) > 1:
            print(f"{workload}: refusing to compare runs from different environments: {sorted(envs)}")
            status = 2
            continue
        print(f"{workload}: {len(parent[workload])} parent runs, {len(change[workload])} change runs")
        for name, unit in END_TO_END.items():
            old = [r["metrics"][name] for r in parent[workload]]
            new = [r["metrics"][name] for r in change[workload]]
            sign = 1 if name in HIGHER_IS_BETTER else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            base = statistics.median(old)
            print(
                f"  {name:<14} parent {base:.6g} {unit} (spread {_spread(old):.3f})"
                f"  change {statistics.median(new):.6g}"
                f"  ({statistics.median(new) / base - 1:+.3%})"
                f"  change won {wins}/{min(len(old), len(new))} pairs"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
