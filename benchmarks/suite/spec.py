"""``BENCHMARK.json``: the workloads, metrics and bounds the suite reports.

The file at the repository root is the single list of metric names,
units, directions and regression bounds; the suite refuses to report a
run that misses one of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

#: the repository root (this file is ``benchmarks/suite/spec.py``)
ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None

    def worse_by(self, parent: float, change: float) -> float:
        """How much worse ``change`` is than ``parent``, as a share of
        ``parent`` (negative when it is better)."""
        if parent == 0:
            return 0.0
        delta = (change - parent) / abs(parent)
        return delta if self.better == "lower" else -delta


@dataclass(frozen=True)
class Spec:
    workloads: List[str]
    end_to_end: List[Metric]
    per_layer: List[Metric]
    run_seconds: int

    def metric(self, name: str) -> Metric:
        for metric in self.end_to_end + self.per_layer:
            if metric.name == name:
                return metric
        raise KeyError(name)


def load(path: Optional[Path] = None) -> Spec:
    data = json.loads((path or ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return Spec(
        workloads=[w["name"] for w in data["workloads"]],
        end_to_end=[Metric(**m) for m in data["end_to_end"]],
        per_layer=[Metric(**m) for m in data["per_layer"]],
        run_seconds=int(data["run_seconds"]),
    )
