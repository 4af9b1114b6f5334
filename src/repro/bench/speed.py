"""Wall-clock speed benchmark: how fast the *simulator itself* runs.

Every other benchmark in this package reports virtual time — the
simulated device/CPU cost model — which is deterministic and invariant
across hosts. This module measures the opposite axis: real host seconds
per simulated fillrandom run, i.e. the simulator's own efficiency. It
backs the ``speed`` CLI target and the CI ``speed-gate`` step.

Protocol: build a fresh store and run fillrandom ``warmup + repeats``
times; the warm-up runs (imports, code caches, the block decode cache's
first population) are discarded and the headline number is the *median*
ops/sec of the measured runs — the median resists one-off scheduler
noise better than the mean, and "best" is reported alongside for
reference.

The document schema is ``repro.speed/1`` and its headline metric
(``ops_per_sec``) is higher-is-better; :mod:`repro.bench.compare` gates
it with a deliberately generous threshold because wall-clock numbers
move with host hardware and interpreter version, unlike the
virtual-time metrics. Re-record with ``make refresh-speed-baseline``
on the gating machine after a deliberate change.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.db_bench import run_fillrandom
from repro.bench.harness import ScaledConfig

SPEED_SCHEMA = "repro.speed/1"


@dataclass
class SpeedResult:
    """Wall-clock timings of one (store, workload) speed run."""

    store: str
    workload: str
    num_ops: int
    value_size: int
    num_channels: int
    background_threads: int
    #: measured host seconds per run, warm-up excluded
    wall_seconds: List[float] = field(default_factory=list)
    #: discarded warm-up timings, kept for the report only
    warmup_seconds: List[float] = field(default_factory=list)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.wall_seconds) if self.wall_seconds else 0.0

    @property
    def best_seconds(self) -> float:
        return min(self.wall_seconds) if self.wall_seconds else 0.0

    @property
    def ops_per_sec(self) -> float:
        """The gated headline: simulated ops per host second (median run)."""
        median = self.median_seconds
        return self.num_ops / median if median > 0 else 0.0

    @property
    def best_ops_per_sec(self) -> float:
        best = self.best_seconds
        return self.num_ops / best if best > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "store": self.store,
            "workload": self.workload,
            "ops": self.num_ops,
            "value_size": self.value_size,
            "ops_per_sec": round(self.ops_per_sec, 1),
            "best_ops_per_sec": round(self.best_ops_per_sec, 1),
            "median_seconds": round(self.median_seconds, 4),
            "wall_seconds": [round(s, 4) for s in self.wall_seconds],
            "warmup_seconds": [round(s, 4) for s in self.warmup_seconds],
            "extras": {
                "num_channels": self.num_channels,
                "background_threads": self.background_threads,
            },
        }


def run_speed(
    store: str = "noblsm",
    scale: float = 2000.0,
    num_ops: int = 0,
    seed: int = 1234,
    repeats: int = 3,
    warmup: int = 1,
    num_channels: int = 1,
    background_threads: int = 1,
) -> SpeedResult:
    """Time ``warmup + repeats`` fillrandom runs; warm-ups are discarded.

    Observability stays off: the speed number measures the untraced hot
    path, the one the zero-overhead guarantee protects.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    def one_run() -> "tuple[float, int]":
        config = ScaledConfig(
            scale=scale,
            num_ops=num_ops,
            seed=seed,
            num_channels=num_channels,
            background_threads=background_threads,
        )
        start = time.perf_counter()
        bench, _, _ = run_fillrandom(store, config)
        return time.perf_counter() - start, bench.num_ops

    result = SpeedResult(
        store=store,
        workload="fillrandom",
        num_ops=0,
        value_size=ScaledConfig(scale=scale, num_ops=num_ops, seed=seed).value_size,
        num_channels=num_channels,
        background_threads=background_threads,
    )
    for _ in range(warmup):
        elapsed, ops = one_run()
        result.warmup_seconds.append(elapsed)
        result.num_ops = ops
    for _ in range(repeats):
        elapsed, ops = one_run()
        result.wall_seconds.append(elapsed)
        result.num_ops = ops
    return result


def speed_document(
    results: Sequence[SpeedResult],
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Versioned ``repro.speed/1`` document (host info goes in meta)."""
    merged: Dict[str, object] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    if meta:
        merged.update(meta)
    return {
        "schema": SPEED_SCHEMA,
        "meta": merged,
        "results": [r.to_dict() for r in results],
    }


def render_speed(results: Sequence[SpeedResult]) -> str:
    """Human summary, one line per speed run."""
    lines = ["simulator speed (wall clock, higher is better)"]
    for r in results:
        runs = ", ".join(f"{s:.3f}s" for s in r.wall_seconds)
        lines.append(
            f"{r.store}/{r.workload}: {r.num_ops} ops in "
            f"{r.median_seconds:.3f}s median -> {r.ops_per_sec:,.0f} ops/sec "
            f"(best {r.best_ops_per_sec:,.0f}; runs: {runs}; "
            f"{len(r.warmup_seconds)} warm-up discarded)"
        )
    return "\n".join(lines)
