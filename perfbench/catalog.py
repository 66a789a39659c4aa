"""What the benchmark measures: workloads, seeds and metric names.

Metric names, units and directions are read from ``BENCHMARK.json`` and
the seeds from ``perfbench/plan.json``, so each is written down once.
This module imports nothing from ``repro`` so the driver can check its
arguments and the host before the package is importable at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SPEC = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
_SEEDS = json.loads((_HERE / "plan.json").read_text())["seeds"]

#: The fuzz seed claims are made on; the repository's committed smoke seed.
DEFAULT_SEED: int = _SEEDS["default"]

#: A seed kept out of tuning, for confirming a claim made on the default.
HELD_OUT_SEED: int = _SEEDS["held_out"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``workers`` is the largest number of processes the workload runs
    searches in at once; the driver refuses to run it on a host with
    fewer CPUs.  ``kind`` is ``"explorer"`` (an exhaustive search whose
    result does not depend on the seed) or ``"fuzz"``.
    """

    name: str
    kind: str
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table2-2w", "explorer", 2),
        Workload("rob8", "explorer", 1),
        Workload("rob8-2w", "explorer", 2),
        Workload("fuzz-defended", "fuzz", 1),
    )
}

#: Fuzz campaign shape per size: (batches per round, programs per batch,
#: rounds).  ``full`` is the measured workload, ``smoke`` the test size.
FUZZ_SHAPE = {"full": (4, 512, 8), "smoke": (2, 128, 2)}

SIZES = ("full", "smoke")

#: End-to-end metrics (name -> unit), measured with tracing off.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

#: Per-layer metrics (name -> unit), measured by the traced run.  Every
#: workload reports every name; a layer the workload does not use reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Metrics for which a larger value is an improvement.
HIGHER_IS_BETTER = {
    m["name"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"] if m["better"] == "higher"
}
