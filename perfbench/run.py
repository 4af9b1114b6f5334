"""NobLSM benchmark: one command, three workloads, two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload fill|mixed|serve --seed N \
        --seconds S --trace 0|1

Each run of a workload happens in a fresh interpreter
(``perfbench/child.py``), so module-level caches and interpreter state
never carry over from one run to the next. Set-up (store and cluster
build, the ``mixed`` preload, op generation) is timed apart from the
measured phase and reported as ``setup_s`` (a cheap set-up is repeated
within each run and the median taken).

``--trace 0`` starts runs one after another until ``--seconds`` is used
up (at least two, at most five). The first run also reads back every
key and, on ``fill``, power-fails the stack and checks recovery with the
durability oracle. Virtual-clock results are deterministic for a seed,
so every run must reproduce the first one's exactly; host figures are
reported as the median over the runs, in host seconds scaled to a
reference host speed (``perfbench/hostspeed.py``). ``--trace 1`` makes
one untraced run and one run with host-time spans around every call
into a layer, checks that both give identical virtual results, and
reports the per-layer metrics with the tracing overhead.

Human-readable lines go to stdout first; the last stdout line is the
JSON result. The metric names and units come from ``BENCHMARK.json``;
``perfbench/METRICS.md`` explains each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORKLOADS = ("fill", "mixed", "serve")
#: the whole invocation must end well within three minutes
TIME_LIMIT_S = 170.0
MIN_RUNS = 2
MAX_RUNS = 5

WHAT = {
    "fill": "noblsm db_bench fillrandom, 50k x 1 KiB puts, 1 closed-loop "
    "client, 1 channel x 1 bg thread, page cache holds the data set",
    "mixed": "noblsm YCSB-B (95% get / 5% update, zipfian) over 50k "
    "preloaded records, 50k ops, 4 closed-loop clients, 4 channels x 2 "
    "bg threads, page cache 1/4 of the data set",
    "serve": "serve-fair cluster, 4 noblsm shards, 6 zipf-0.99 tenants, "
    "open loop 90k req/virtual s for 0.3 virtual s, 90% puts, diurnal "
    "0.4, admission on",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(
    workload: str, seed: int, mode: str, deadline: float
) -> Tuple[Dict[str, object], float]:
    """One run in a fresh interpreter; returns (result, host seconds)."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--mode", mode,
    ]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("no time left for another run")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded the time limit")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} run of {workload} failed (exit {proc.returncode}):\n"
            + proc.stderr[-3000:]
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run of {workload} printed no result")
    return json.loads(lines[-1]), elapsed


def deterministic_view(result: Dict[str, object]) -> Dict[str, object]:
    """The parts of a run that the virtual clock alone decides."""
    return {"virtual": result["virtual"], "layers": result["layers"]}


def check_runs(runs: List[Dict[str, object]]) -> List[str]:
    """Problems reported by runs, plus any run that differs virtually."""
    problems: List[str] = []
    for run in runs:
        problems.extend(f"{run['mode']} run: {p}" for p in run["problems"])
        if run["wrong_outputs"]:
            problems.append(
                f"{run['mode']} run: {run['wrong_outputs']} reads returned a "
                "value other than the last acknowledged write"
            )
    first = deterministic_view(runs[0])
    for run in runs[1:]:
        if deterministic_view(run) != first:
            problems.append(
                f"{run['mode']} run: virtual results differ from the "
                f"{runs[0]['mode']} run of the same seed"
            )
    return problems


def fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def end_to_end(
    runs: List[Dict[str, object]], spec: List[Dict[str, object]]
) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
    """Every end-to-end metric of BENCHMARK.json, plus printable lines."""
    first = runs[0]
    virtual = first["virtual"]
    samples = virtual["samples"]
    metrics: Dict[str, Dict[str, object]] = {}
    lines: List[str] = []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in first["host"]:
            values = [run["host"][name] for run in runs]
            value = statistics.median(values)
            note = (
                f"median of {len(values)} runs: "
                + ", ".join(fmt(v) for v in values)
            )
        else:
            value = virtual[name]
            note = "virtual clock, same in every run"
        if name == "host_ops_per_s":
            raw = statistics.median(run["host"]["raw_ops_per_s"] for run in runs)
            note += f"; scaled to the reference host speed, unscaled {fmt(raw)}"
        if name.startswith("req_"):
            note += f"; slowest 1% less slowest 0.1% of n={samples['req']}"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<22} {fmt(value):>14} {unit:<6} ({note})")
    return metrics, lines


def detail_lines(first: Dict[str, object], attempted: int, failed: int) -> List[str]:
    """The workload's other named results, printed where they apply."""
    virtual = first["virtual"]
    samples = virtual["samples"]
    lines = []
    rows = [
        ("req_p50_us", "us", f"n={samples['req']}"),
        ("req_p999_us", "us", f"n={samples['req']}"),
        ("req_tail_mean_us", "us", f"slowest 1% of n={samples['req']}"),
        ("put_p50_us", "us", f"n={samples['put']}"),
        ("put_p999_us", "us", f"n={samples['put']}"),
        ("get_p50_us", "us", f"n={samples['get']}"),
        ("get_p999_us", "us", f"n={samples['get']}"),
        ("worst_tenant_p99_us", "us",
         f"{len(samples['tenants'])} tenants, min n="
         f"{min(samples['tenants'].values())}"),
        ("read_amp", "ratio", "device bytes read / value bytes returned"),
        ("space_amp", "ratio", "all file bytes / live user bytes at the end"),
    ]
    for name, unit, note in rows:
        if name not in virtual:
            continue
        n = samples.get(name.split("_")[0], 0)
        if name.endswith("_p999_us") and n < 10_000:
            note += ", fewer than 10 samples above p99.9: not reported"
            lines.append(f"  {name:<22} {'-':>14} {unit:<6} ({note})")
            continue
        lines.append(f"  {name:<22} {fmt(virtual[name]):>14} {unit:<6} ({note})")
    lines.append(
        f"  {'error_rate':<22} {fmt(failed / attempted):>14} {'frac':<6} "
        f"({failed} failed of {attempted} attempted: wrong reads "
        f"{first['wrong_outputs']}, shed {first['shed']}, durability "
        f"violations {first['durability_violations']})"
    )
    return lines


def per_layer(
    untraced: Dict[str, object],
    traced: Dict[str, object],
    spec: List[Dict[str, object]],
) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
    """Every per-layer metric of BENCHMARK.json, plus printable lines."""
    values = dict(untraced["layers"])
    values.update(traced["trace"]["per_layer"])
    values["trace.overhead"] = (
        traced["host"]["timed_s"] / untraced["host"]["timed_s"]
    )
    wall = traced["trace"]["wall_s"]
    metrics: Dict[str, Dict[str, object]] = {}
    lines = [
        f"  traced wall {wall:.3f} s over {traced['trace']['spans']:,} spans, "
        f"untraced {untraced['host']['timed_s']:.3f} s"
    ]
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        share = ""
        if name.endswith(".self_s") and wall > 0:
            share = f"  {100.0 * value / wall:5.1f}% of traced wall"
        lines.append(f"  {name:<28} {fmt(value):>16} {unit:<6}{share}")
    missing = traced["trace"]["missing_methods"]
    if missing:
        lines.append("  not traced (no longer in the program): " + ", ".join(missing))
    return metrics, lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        if not os.path.isdir(os.path.join("src", "repro")):
            raise BenchError(
                "no src/repro here: run from the root of a repository checkout"
            )
        runs: List[Dict[str, object]] = []
        if args.trace:
            for mode in ("verify", "trace"):
                runs.append(run_child(args.workload, args.seed, mode, deadline)[0])
        else:
            while True:
                mode = "verify" if not runs else "time"
                result, took = run_child(args.workload, args.seed, mode, deadline)
                runs.append(result)
                elapsed = time.perf_counter() - started
                if len(runs) >= MAX_RUNS or elapsed + 1.5 * took > TIME_LIMIT_S:
                    break
                if len(runs) >= MIN_RUNS and elapsed + took > args.seconds:
                    break
    except (BenchError, OSError, ValueError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1

    first = runs[0]
    problems = check_runs(runs)
    attempted, failed = first["attempted"], first["failed"]
    print(f"{args.workload} (seed {args.seed}): {WHAT[args.workload]}")
    if args.trace:
        metrics, lines = per_layer(runs[0], runs[1], spec["per_layer"])
        print("per-layer metrics (traced run; counters over the timed phase)")
    else:
        metrics, lines = end_to_end(runs, spec["end_to_end"])
        print("end-to-end metrics")
        lines += detail_lines(first, attempted, failed)
    print("\n".join(lines))
    if first["durability_violations"]:
        print(
            f"DURABILITY: {first['durability_violations']} violations after "
            "power failure and reopen; first: "
            + "; ".join(first["durability_samples"])
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
