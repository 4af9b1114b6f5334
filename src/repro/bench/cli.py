"""Command-line entry point: the paper's figures, bench targets and gates.

Usage::

    python -m repro.bench fig2a | fig2b | fig4a..fig4d | table1
    python -m repro.bench fig5a | fig5b | all
    python -m repro.bench crash-matrix | parallelism | fillrandom | speed
    python -m repro.bench soak | serve | amplification | slo
    python -m repro.bench compare BASELINE.json CURRENT.json [--json DIR]
    python -m repro.bench gate NAME --json DIR

Every target prints its tables; ``--json DIR`` also writes its
documents into ``DIR``. ``--help`` lists the flags and each target's
defaults.

``crash-matrix`` is the durability sweep, not a figure: it exits
non-zero if any crash point violates a durability invariant.
``parallelism`` sweeps device channels x background compaction threads
over compaction-bound fillrandom. ``fillrandom`` runs one store once,
optionally with observability (``--observe``) and causal tracing
(``--trace-out`` writes a Perfetto-loadable Chrome trace and prints the
critical-path attribution table). ``speed`` times the *simulator
itself* — fillrandom run ``--repeats`` times after ``--warmup``
discarded runs, reported as wall-clock ops/sec (``repro.speed/1``).
``soak`` runs the long-horizon stability pair — an open-loop Poisson
workload measured in windowed p50/p99/p99.9, once with stock options
and once with the rate limiter + dynamic slowdown (``repro.soak/1``).
``serve`` runs the sharded multi-tenant serving pair — N store shards
behind the deterministic router with tenant-affine placement,
hot-tenant zipf skew, a diurnal open-loop arrival curve and per-shard
admission control — once untuned and once fair-scheduled
(``repro.serve/1``). ``amplification`` sweeps write/read/space
amplification over a large-value fillrandom grid, noblsm against the
key-value-separated noblsm-kv (``repro.amplification/1``). ``slo`` runs
the serve pair with continuous telemetry and burn-rate SLO alerts
attached and prints the ASCII flight-recorder dashboard
(``repro.slo/1`` plus per-variant ``repro.timeseries/1``). ``compare``
diffs two documents of one schema and exits non-zero on a regression;
``--json`` also writes the ``repro.compare/1`` report. ``gate`` runs
one entry of the gate table (:mod:`repro.bench.gates`): the target at
its CI size, the experiment's checks, and the baseline comparison.
``all`` regenerates the figures only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.bench import figures
from repro.obs.export import write_document

_FIG4 = {
    "fig4a": "fillrandom",
    "fig4b": "overwrite",
    "fig4c": "readseq",
    "fig4d": "readrandom",
}


def _render(
    target: str,
    scale: Optional[float],
    stores: Optional[List[str]],
    chart: bool = False,
) -> str:
    kwargs = {}
    if stores:
        kwargs["stores"] = stores
    if target == "fig2a":
        return figures.render_fig2a()
    if target == "fig2b":
        return figures.render_fig2b(scale or figures.DEFAULT_SCALE)
    if target in _FIG4:
        workload = _FIG4[target]
        if chart:
            from repro.bench.ascii_plot import line_series

            series = figures.fig4(
                workload, scale=scale or figures.DEFAULT_SCALE, **kwargs
            )
            sizes = sorted(next(iter(series.values())))
            return line_series(
                f"Figure {target[-2:]}: {workload}",
                sizes,
                series,
                x_label="value size (B)",
                unit="us/op",
                log=workload in ("fillrandom", "overwrite"),
            )
        return figures.render_fig4(
            workload, scale=scale or figures.DEFAULT_SCALE, **kwargs
        )
    if target == "table1":
        return figures.render_table1(scale or figures.DEFAULT_SCALE)
    if target in ("fig5a", "fig5b"):
        threads = 1 if target == "fig5a" else 4
        if chart:
            from repro.bench.ascii_plot import grouped_bars
            from repro.bench.ycsb import PAPER_ORDER

            series = figures.fig5(threads, scale=scale or 2000.0, **kwargs)
            phases = [p for p in PAPER_ORDER if p in next(iter(series.values()))]
            return grouped_bars(
                f"Figure {target[-2:]}: YCSB, {threads} thread(s)",
                phases,
                series,
                unit="us/op",
            )
        return figures.render_fig5(threads, scale=scale or 2000.0, **kwargs)
    raise ValueError(f"unknown target {target!r}")


def _payload(
    target: str,
    scale: Optional[float],
    stores: Optional[List[str]],
) -> Dict[str, object]:
    """Machine-readable data for one target (recomputes the figure)."""
    kwargs = {}
    if stores:
        kwargs["stores"] = stores

    def series_doc(series, x_label):
        return {
            x_label: {
                store: {str(x): v for x, v in points.items()}
                for store, points in series.items()
            }
        }

    doc: Dict[str, object] = {"schema": "repro.figure/1", "figure": target}
    if target == "fig2a":
        doc.update(series_doc(figures.fig2a(), "series"))
    elif target == "fig2b":
        data = figures.fig2b(scale or figures.DEFAULT_SCALE)
        doc["points"] = {k: round(v, 3) for k, v in data.items()}
    elif target in _FIG4:
        series = figures.fig4(
            _FIG4[target], scale=scale or figures.DEFAULT_SCALE, **kwargs
        )
        doc["workload"] = _FIG4[target]
        doc.update(series_doc(series, "series"))
    elif target == "table1":
        data = figures.table1(scale=scale or figures.DEFAULT_SCALE, **kwargs)
        doc["stores"] = {
            store: {"syncs": syncs, "gb_equiv": round(gb, 3)}
            for store, (syncs, gb) in data.items()
        }
    elif target in ("fig5a", "fig5b"):
        threads = 1 if target == "fig5a" else 4
        series = figures.fig5(threads, scale=scale or 2000.0, **kwargs)
        doc["threads"] = threads
        doc.update(series_doc(series, "series"))
    else:
        raise ValueError(f"unknown target {target!r}")
    return doc


ALL_TARGETS = ["fig2a", "fig2b", "fig4a", "fig4b", "fig4c", "fig4d",
               "table1", "fig5a", "fig5b"]

#: targets that run exactly one store (``--stores`` takes one name)
SINGLE_STORE = ("fillrandom", "speed", "parallelism", "soak", "serve", "slo")

#: what a target runner returns: exit status + documents by file name
Outcome = Tuple[int, Dict[str, object]]


def _or(value, default):
    """``value`` unless the flag was left unset (``None``)."""
    return default if value is None else value


def _store(args) -> str:
    return args.stores or "noblsm"


def _ints(spec: Optional[str], default) -> List[int]:
    return [int(v) for v in spec.split(",")] if spec else list(default)


def _run_crash_matrix(args) -> Outcome:
    """The ``crash-matrix`` target: sweep crash points, fail on violations."""
    from repro.crashtest import (
        CrashMatrixConfig,
        matrix_payload,
        render_matrix,
        run_crash_matrix,
    )

    modes = args.modes.split(",") if args.modes else ["noblsm", "sync"]
    reports = [
        run_crash_matrix(
            CrashMatrixConfig(
                mode=mode,
                points=args.points,
                seed=_or(args.seed, 0),
                num_ops=_or(args.num, 240),
                background_threads=args.bg_threads,
            )
        )
        for mode in modes
    ]
    print(render_matrix(reports))
    status = 1 if any(r.violations for r in reports) else 0
    return status, {"crash-matrix.json": matrix_payload(reports)}


def _run_parallelism(args) -> Outcome:
    """The ``parallelism`` target: channels x threads sweep."""
    from repro.bench.parallelism import (
        DEFAULT_CHANNELS,
        DEFAULT_SCALE,
        DEFAULT_THREADS,
        render_parallelism,
        run_parallelism,
    )
    from repro.bench.report import results_document

    channels = _ints(args.channels, DEFAULT_CHANNELS)
    threads = _ints(args.threads, DEFAULT_THREADS)
    store = _store(args)
    scale = args.scale or DEFAULT_SCALE
    results = run_parallelism(
        store=store,
        scale=scale,
        num_ops=_or(args.num, 0),
        channels=channels,
        threads=threads,
        seed=_or(args.seed, 1234),
    )
    print(render_parallelism(results))
    meta = {
        "target": "parallelism",
        "store": store,
        "scale": scale,
        "channels": channels,
        "threads": threads,
    }
    return 0, {"parallelism.json": results_document(results, meta)}


def _run_fillrandom(args) -> Outcome:
    """The ``fillrandom`` target: one store, optional trace."""
    import time

    from repro.bench.db_bench import run_fillrandom
    from repro.bench.harness import ScaledConfig
    from repro.bench.report import (
        format_breakdown_table,
        format_latency_table,
        results_document,
    )
    from repro.obs.critical_path import analyze_write_path, render_critical_path
    from repro.obs.trace import write_chrome_trace

    trace = args.trace_out is not None
    store = _store(args)
    scale = args.scale or 2000.0
    seed = _or(args.seed, 1234)
    config = ScaledConfig(
        scale=scale,
        num_ops=_or(args.num, 0),
        seed=seed,
        observe=args.observe or trace,
        trace=trace,
        num_channels=_ints(args.channels, [1])[0],
        background_threads=_ints(args.threads, [1])[0],
    )
    wall_start = time.perf_counter()
    result, stack, db = run_fillrandom(store, config)
    result.wall_seconds = time.perf_counter() - wall_start
    print(
        f"fillrandom {store}: {result.num_ops} ops, "
        f"{result.us_per_op:.3f} us/op, {result.sync_calls} syncs, "
        f"{result.stall_ns / 1e6:.2f} ms stalled "
        f"[host: {result.wall_seconds:.3f}s, "
        f"{result.ops_per_sec_wall:,.0f} ops/sec real time]"
    )
    if stack.obs.enabled:
        print()
        print(format_latency_table([result]))
        print()
        print(format_breakdown_table([result]))
    meta = {"target": "fillrandom", "store": store, "scale": scale, "seed": seed}
    if trace:
        report = analyze_write_path(stack.obs)
        print()
        print(render_critical_path(report, stack.obs))
        doc = write_chrome_trace(
            args.trace_out,
            stack.obs.tracer,
            meta=dict(
                meta,
                num_ops=result.num_ops,
                device=stack.ssd.profile.describe(),
            ),
        )
        print(
            f"\nwrote {args.trace_out} "
            f"({len(doc['traceEvents'])} events; open in ui.perfetto.dev)"
        )
    return 0, {"fillrandom.json": results_document([result], meta)}


def _run_speed(args) -> Outcome:
    """The ``speed`` target: wall-clock simulator throughput."""
    from repro.bench.speed import render_speed, run_speed, speed_document

    store = _store(args)
    scale = args.scale or 2000.0
    result = run_speed(
        store=store,
        scale=scale,
        num_ops=_or(args.num, 0),
        seed=_or(args.seed, 1234),
        repeats=args.repeats,
        warmup=args.warmup,
        num_channels=_ints(args.channels, [1])[0],
        background_threads=_ints(args.threads, [1])[0],
    )
    print(render_speed([result]))
    meta = {
        "target": "speed",
        "store": store,
        "scale": scale,
        "repeats": args.repeats,
        "warmup": args.warmup,
    }
    return 0, {"speed.json": speed_document([result], meta)}


def _run_soak(args) -> Outcome:
    """The ``soak`` target: untuned + tuned stability pair + timeline."""
    from repro.bench.soak import (
        SoakConfig,
        render_soak,
        run_soak_pair,
        soak_document,
    )

    config = SoakConfig(
        store=_store(args),
        scale=args.scale or 2000.0,
        seed=_or(args.seed, 1234),
        arrival_rate=_or(args.rate, 40_000.0),
        duration_s=_or(args.duration, 0.75),
        window_ms=args.window_ms,
        num_channels=_ints(args.channels, [1])[0],
        background_threads=_ints(args.threads, [1])[0],
    )
    results = run_soak_pair(config)
    rendered = render_soak(results)
    print(rendered)
    meta = {
        "target": "soak",
        "store": config.store,
        "scale": config.scale,
        "seed": config.seed,
        "arrival_rate": config.arrival_rate,
        "duration_s": config.duration_s,
        "window_ms": config.window_ms,
    }
    return 0, {
        "soak.json": soak_document(results, meta),
        "soak-timeline.txt": rendered + "\n",
    }


def _serve_config(args, **extra):
    from repro.serve import ServeConfig

    return ServeConfig(
        store=_store(args),
        num_shards=args.shards,
        num_tenants=args.tenants,
        scale=args.scale or 2000.0,
        seed=_or(args.seed, 1234),
        arrival_rate=_or(args.rate, 90_000.0),
        duration_s=_or(args.duration, 0.3),
        window_ms=args.window_ms,
        diurnal_amplitude=args.amplitude,
        spread=args.spread,
        max_queue=args.max_queue,
        **extra,
    )


def _run_serve(args) -> Outcome:
    """The ``serve`` target: untuned + fair cluster pair + timeline."""
    from repro.serve import render_serve, run_serve_pair, serve_document

    config = _serve_config(
        args,
        mode=args.mode,
        num_channels=_ints(args.channels, [1])[0],
        background_threads=_ints(args.threads, [1])[0],
    )
    results = run_serve_pair(config)
    rendered = render_serve(results)
    print(rendered)
    meta = {
        "target": "serve",
        "store": config.store,
        "scale": config.scale,
        "seed": config.seed,
        "shards": config.num_shards,
        "tenants": config.num_tenants,
        "arrival_rate": config.arrival_rate,
        "duration_s": config.duration_s,
        "window_ms": config.window_ms,
        "mode": config.mode,
    }
    return 0, {
        "serve.json": serve_document(results, meta),
        "serve-timeline.txt": rendered + "\n",
    }


def _run_amplification(args) -> Outcome:
    """The ``amplification`` target: noblsm vs noblsm-kv WA/RA/SA sweep."""
    from repro.bench.amplification import (
        DEFAULT_SCALE,
        DEFAULT_STORES,
        DEFAULT_VALUE_SIZES,
        DEFAULT_VALUE_THRESHOLD,
        amplification_document,
        render_amplification,
        run_amplification_sweep,
    )

    stores = args.stores.split(",") if args.stores else list(DEFAULT_STORES)
    value_sizes = _ints(args.value_sizes, DEFAULT_VALUE_SIZES)
    scale = args.scale or DEFAULT_SCALE
    threshold = _or(args.value_threshold, DEFAULT_VALUE_THRESHOLD)
    seed = _or(args.seed, 1234)
    rows = run_amplification_sweep(
        stores=stores,
        value_sizes=value_sizes,
        scale=scale,
        num_ops=_or(args.num, 0),
        value_threshold=threshold,
        seed=seed,
    )
    print(render_amplification(rows))
    meta = {
        "target": "amplification",
        "stores": stores,
        "value_sizes": value_sizes,
        "scale": scale,
        "value_threshold": threshold,
        "seed": seed,
    }
    return 0, {"amplification.json": amplification_document(rows, meta)}


def _run_slo(args) -> Outcome:
    """The ``slo`` target: telemetry-on serve pair + dashboard."""
    from repro.bench.slo import SloConfig, render_slo, run_slo, slo_document

    config = SloConfig(
        interval_ms=args.interval_ms,
        latency_threshold_us=args.latency_slo_us,
        serve=_serve_config(args),
    )
    results = run_slo(config)
    rendered = render_slo(results)
    print(rendered)
    meta = {
        "target": "slo",
        "scenario": "serve",
        "store": config.serve.store,
        "scale": config.serve.scale,
        "seed": config.serve.seed,
        "interval_ms": args.interval_ms,
        "latency_slo_us": args.latency_slo_us,
        "window_ms": args.window_ms,
    }
    docs: Dict[str, object] = {"slo.json": slo_document(results, meta)}
    for result in results:
        docs[f"timeseries-{result.workload}.json"] = (
            result.telemetry.sampler.document(
                dict(meta, workload=result.workload)
            )
        )
    docs["slo-dashboard.txt"] = rendered + "\n"
    return 0, docs


def _run_compare(args) -> Outcome:
    """The ``compare`` target: the regression gate over two documents."""
    from repro.bench.compare import (
        compare_documents,
        parse_thresholds,
        render_compare,
        report_payload,
    )

    if len(args.paths) != 2:
        print(
            "usage: python -m repro.bench compare BASELINE.json CURRENT.json",
            file=sys.stderr,
        )
        return 2, {}
    base_path, cur_path = args.paths
    with open(base_path) as fh:
        base_doc = json.load(fh)
    with open(cur_path) as fh:
        cur_doc = json.load(fh)
    report = compare_documents(
        base_doc, cur_doc, thresholds=parse_thresholds(args.thresholds)
    )
    print(render_compare(report))
    return (0 if report.passed else 1), {"compare.json": report_payload(report)}


def _run_figures(args) -> Outcome:
    """The paper's tables and figures (``all`` or one of them)."""
    stores = args.stores.split(",") if args.stores else None
    targets = ALL_TARGETS if args.target == "all" else [args.target]
    docs: Dict[str, object] = {}
    for target in targets:
        print(_render(target, args.scale, stores, chart=args.chart))
        print()
        if args.json:
            docs[f"{target}.json"] = _payload(target, args.scale, stores)
    return 0, docs


_RUNNERS = {
    "crash-matrix": _run_crash_matrix,
    "parallelism": _run_parallelism,
    "fillrandom": _run_fillrandom,
    "speed": _run_speed,
    "soak": _run_soak,
    "serve": _run_serve,
    "amplification": _run_amplification,
    "slo": _run_slo,
    "compare": _run_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the NobLSM paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        choices=ALL_TARGETS + ["all", "gate"] + list(_RUNNERS),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="compare: BASELINE.json CURRENT.json; gate: NAME",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="scale factor (paper setup / N); default per target",
    )
    parser.add_argument(
        "--stores",
        type=str,
        default=None,
        help="comma-separated store subset for the figures and "
             "amplification (default: each target's own set); "
             + ", ".join(SINGLE_STORE)
             + " take exactly one store (default noblsm)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render an ASCII chart instead of a table (fig4*/fig5*)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write the target's documents into DIR (figures rerun "
             "each target); required by gate",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=120,
        help="crash-matrix: injection-point budget per mode (default 120)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default 0 for crash-matrix, 1234 otherwise)",
    )
    parser.add_argument(
        "--num",
        type=int,
        default=None,
        help="operations per workload (default 240 for crash-matrix; "
             "otherwise the target's scaled count)",
    )
    parser.add_argument(
        "--modes",
        type=str,
        default=None,
        help="crash-matrix: comma-separated modes (default noblsm,sync)",
    )
    parser.add_argument(
        "--bg-threads",
        type=int,
        default=1,
        help="crash-matrix: background compaction threads (default 1)",
    )
    parser.add_argument(
        "--channels",
        type=str,
        default=None,
        help="parallelism: comma-separated device channel counts "
             "(default 1,4); other single-store targets: one count "
             "(default 1)",
    )
    parser.add_argument(
        "--threads",
        type=str,
        default=None,
        help="parallelism: comma-separated background thread counts "
             "(default 1,2); other single-store targets: one count "
             "(default 1)",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="fillrandom: wire a MetricRegistry through the stack",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="fillrandom: write a Chrome trace-event JSON (implies "
             "--observe) and print the critical-path table",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="speed: measured fillrandom runs (default 3)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="speed: discarded warm-up runs before measuring (default 1)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="soak/serve/slo: open-loop arrival rate, ops per virtual "
             "second (default 40000 soak, 90000 serve and slo)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="soak/serve/slo: horizon in virtual seconds "
             "(default 0.75 soak, 0.3 serve and slo)",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=25.0,
        help="soak/serve/slo: percentile window width in virtual ms "
             "(default 25)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="serve/slo: independent store shards (default 4)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=6,
        help="serve/slo: tenants sharing the cluster (default 6)",
    )
    parser.add_argument(
        "--mode",
        choices=["open", "closed"],
        default="open",
        help="serve: open-loop arrivals or closed-loop clients "
             "(default open)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="serve/slo: per-shard admission queue bound, 0 disables "
             "admission control (default 32)",
    )
    parser.add_argument(
        "--spread",
        type=int,
        default=1,
        help="serve/slo: shards per tenant home group; 1 = tenant-affine "
             "placement (default 1)",
    )
    parser.add_argument(
        "--amplitude",
        type=float,
        default=0.4,
        help="serve/slo: diurnal rate modulation depth in [0, 1) "
             "(default 0.4)",
    )
    parser.add_argument(
        "--value-sizes",
        type=str,
        default=None,
        help="amplification: comma-separated value sizes in bytes "
             "(default 1024,4096)",
    )
    parser.add_argument(
        "--value-threshold",
        type=int,
        default=None,
        help="amplification: kv separation threshold in bytes, applied "
             "to *-kv stores only (default 1024)",
    )
    parser.add_argument(
        "--interval-ms",
        type=float,
        default=5.0,
        help="slo: virtual sampling interval in ms (default 5)",
    )
    parser.add_argument(
        "--latency-slo-us",
        type=float,
        default=100.0,
        help="slo: latency objective threshold in us — keep it on a "
             "1-2-5 histogram bucket bound for exact good/bad counting "
             "(default 100)",
    )
    parser.add_argument(
        "--thresholds",
        type=str,
        default=None,
        help="compare: per-metric threshold overrides, e.g. "
             "us_per_op=0.1,stall_ns=0.5",
    )
    args = parser.parse_args(argv)
    if args.target in SINGLE_STORE and args.stores and "," in args.stores:
        parser.error(
            f"{args.target} runs one store, got --stores {args.stores}"
        )
    if args.target == "gate":
        from repro.bench.gates import run_gate

        if len(args.paths) != 1 or not args.json:
            parser.error("usage: gate NAME --json DIR")
        return run_gate(args.paths[0], args.json)
    status, docs = _RUNNERS.get(args.target, _run_figures)(args)
    if args.json and docs:
        paths = [os.path.join(args.json, name) for name in docs]
        for path, doc in zip(paths, docs.values()):
            write_document(path, doc)
        print(f"\nwrote {', '.join(paths)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
