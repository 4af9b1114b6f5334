"""Diff two gate documents of one schema — the CI regression gate.

Every gated schema (``repro.bench/1``, ``repro.speed/1``,
``repro.serve/1``, ``repro.amplification/1``, ``repro.slo/1``) has one
metric set in :data:`METRICS_BY_SCHEMA`. :func:`compare_documents`
matches result rows between a *baseline* and a *current* document by
their identity key (store, workload, value size, op count, channels,
threads) and checks each guarded metric against a relative threshold
plus an absolute floor::

    regressed  iff  current > baseline * (1 + threshold) + floor

The floor keeps tiny absolute wobbles on near-zero metrics (a few
syncs, a handful of stall microseconds) from tripping a relative gate.
Rows present in the baseline but missing from the current run are
regressions too — a silently dropped benchmark must fail the gate.

The simulation is deterministic, so identical code produces *identical*
numbers and the thresholds only have to absorb deliberate behaviour
changes; ``python -m repro.bench.cli gate NAME --json benchmarks/baselines``
(``make refresh-NAME-baseline``) re-records them when a change is
intentional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SCHEMA = "repro.bench/1"
SPEED_SCHEMA = "repro.speed/1"
SERVE_SCHEMA = "repro.serve/1"
AMPLIFICATION_SCHEMA = "repro.amplification/1"
SLO_SCHEMA = "repro.slo/1"

#: machine-readable report schema emitted by ``compare --json``
COMPARE_SCHEMA = "repro.compare/1"


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: relative threshold + absolute floor.

    ``higher_is_better`` flips the direction: a wall-clock throughput
    metric regresses when it *drops* below its limit.
    """

    name: str
    threshold: float
    floor: float
    higher_is_better: bool = False

    def limit(self, base: float) -> float:
        if self.higher_is_better:
            return base * (1.0 - self.threshold) - self.floor
        return base * (1.0 + self.threshold) + self.floor

    def is_regression(self, base: float, current: float) -> bool:
        if self.higher_is_better:
            return current < self.limit(base)
        return current > self.limit(base)


#: the gate's default metric set; all are lower-is-better
DEFAULT_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("us_per_op", 0.10, 0.01),
    MetricSpec("put_p99_us", 0.25, 5.0),
    MetricSpec("stall_ns", 0.25, 5e6),
    MetricSpec("device_bytes_written", 0.25, 64 * 1024),
    MetricSpec("syncs", 0.10, 2.0),
)

#: the ``repro.speed/1`` gate: wall-clock throughput, higher-is-better.
#: The threshold is deliberately generous (fail only below half the
#: recorded baseline) because host hardware and interpreter version move
#: wall-clock numbers in ways the deterministic virtual-time metrics
#: never experience.
SPEED_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("ops_per_sec", 0.50, 0.0, higher_is_better=True),
)

#: the ``repro.serve/1`` gate, shared by the serve and soak experiments
#: (all lower-is-better, deterministic virtual-time numbers).
#: ``worst_tenant_p999_us`` is the serving headline — the tail the
#: worst-off tenant actually gets; ``fairness_ratio`` (worst/best tenant
#: p99) is the multi-tenant SLA measure; ``shed`` counts refused
#: requests (a fair cluster should not start shedding more than its
#: recorded baseline). ``windowed_p999_us`` is the worst windowed p99.9
#: — the spike a user actually hits; ``p999_ratio`` is that spike
#: relative to the median window, the paper-style stability measure;
#: ``max_stall_ns`` the single longest write stall; ``blocked_ns`` the
#: unified stall + slowdown total over every shard. Floors absorb
#: near-zero wobble: a tuned run whose worst window is a few
#: microseconds must not fail the gate over nanosecond noise.
SERVE_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("worst_tenant_p999_us", 0.25, 50.0),
    MetricSpec("worst_tenant_p99_us", 0.25, 25.0),
    MetricSpec("fairness_ratio", 0.25, 0.5),
    MetricSpec("shed", 0.25, 20.0),
    MetricSpec("blocked_ns", 0.25, 5e6),
    MetricSpec("windowed_p999_us", 0.25, 50.0),
    MetricSpec("p999_ratio", 0.25, 0.5),
    MetricSpec("max_stall_ns", 0.25, 1e6),
)

#: the ``repro.amplification/1`` gate (all lower-is-better ratios from
#: deterministic virtual-time runs). ``wa_device`` and ``wa_compaction``
#: are the headline write-amplification claims the kv variant exists
#: for; ``ra_point`` absorbs more wobble because probe counts shift with
#: any compaction-shape change; ``space_amp`` guards vLog garbage from
#: piling up unreclaimed.
AMPLIFICATION_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("wa_device", 0.10, 0.05),
    MetricSpec("wa_compaction", 0.10, 0.05),
    MetricSpec("ra_point", 0.25, 0.25),
    MetricSpec("space_amp", 0.10, 0.05),
)

#: the ``repro.slo/1`` alerting gate (all lower-is-better, fully
#: deterministic). Alert *counts* are gated exactly (threshold 0 with a
#: 0.5 floor: any extra alert on a variant that held its SLOs fails);
#: ``bad_events`` (summed SLO violations) and ``max_burn`` (worst burn
#: rate any monitor saw) absorb moderate wobble because deliberate
#: workload changes shift them without changing the alert story.
SLO_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("alerts_total", 0.0, 0.5),
    MetricSpec("fast_burn_alerts", 0.0, 0.5),
    MetricSpec("bad_events", 0.25, 20.0),
    MetricSpec("max_burn", 0.25, 1.0),
)

#: the metric set each document schema is gated on
METRICS_BY_SCHEMA: Dict[str, Tuple[MetricSpec, ...]] = {
    SCHEMA: DEFAULT_METRICS,
    SPEED_SCHEMA: SPEED_METRICS,
    SERVE_SCHEMA: SERVE_METRICS,
    AMPLIFICATION_SCHEMA: AMPLIFICATION_METRICS,
    SLO_SCHEMA: SLO_METRICS,
}

#: row-identity fields; extras are included when present
_KEY_FIELDS = ("store", "workload", "value_size", "ops")
_KEY_EXTRAS = ("num_channels", "background_threads")

RowKey = Tuple[object, ...]


def row_key(row: Dict[str, object]) -> RowKey:
    extras = row.get("extras") or {}
    return tuple(row.get(f) for f in _KEY_FIELDS) + tuple(
        extras.get(f) for f in _KEY_EXTRAS
    )


def _metric_value(row: Dict[str, object], name: str) -> Optional[float]:
    if name == "put_p99_us":
        latency = row.get("latency_us") or {}
        put = latency.get("put") or {}
        value = put.get("p99")
    else:
        value = row.get(name)
    if value is None:
        return None
    return float(value)


@dataclass
class MetricDelta:
    """One (row, metric) comparison."""

    key: RowKey
    metric: str
    base: float
    current: float
    threshold: float
    regressed: bool
    higher_is_better: bool = False

    @property
    def ratio(self) -> float:
        if self.base == 0:
            return 0.0 if self.current == 0 else float("inf")
        return self.current / self.base


@dataclass
class CompareReport:
    """Everything the gate found, regressions first in rendering."""

    base_meta: Dict[str, object] = field(default_factory=dict)
    cur_meta: Dict[str, object] = field(default_factory=dict)
    deltas: List[MetricDelta] = field(default_factory=list)
    missing_rows: List[RowKey] = field(default_factory=list)
    new_rows: List[RowKey] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.missing_rows


def parse_thresholds(spec: Optional[str]) -> Optional[Dict[str, float]]:
    """Parse a ``metric=frac,metric=frac`` CLI override string."""
    if not spec:
        return None
    overrides: Dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad threshold {item!r}; expected metric=fraction"
            )
        name, _, value = item.partition("=")
        overrides[name.strip()] = float(value)
    return overrides


def _check_schema(doc: Dict[str, object], which: str) -> str:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in METRICS_BY_SCHEMA:
        raise ValueError(
            f"{which} document is not one of "
            f"{', '.join(repr(s) for s in METRICS_BY_SCHEMA)} "
            f"(schema={schema if isinstance(doc, dict) else doc!r})"
        )
    if not isinstance(doc.get("results"), list):
        raise ValueError(f"{which} document has no results list")
    return schema


def compare_documents(
    base_doc: Dict[str, object],
    cur_doc: Dict[str, object],
    thresholds: Optional[Dict[str, float]] = None,
) -> CompareReport:
    """Compare current against baseline; thresholds override by name.

    Both documents must share a schema, which picks the metric set
    from :data:`METRICS_BY_SCHEMA`.
    """
    base_schema = _check_schema(base_doc, "baseline")
    cur_schema = _check_schema(cur_doc, "current")
    if base_schema != cur_schema:
        raise ValueError(
            f"schema mismatch: baseline is {base_schema!r}, "
            f"current is {cur_schema!r}"
        )
    metrics = [
        MetricSpec(
            m.name,
            thresholds[m.name] if thresholds and m.name in thresholds else m.threshold,
            m.floor,
            m.higher_is_better,
        )
        for m in METRICS_BY_SCHEMA[base_schema]
    ]
    base_rows = {row_key(r): r for r in base_doc["results"]}
    cur_rows = {row_key(r): r for r in cur_doc["results"]}

    report = CompareReport(
        base_meta=dict(base_doc.get("meta") or {}),
        cur_meta=dict(cur_doc.get("meta") or {}),
    )
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        if cur_row is None:
            report.missing_rows.append(key)
            continue
        for spec in metrics:
            base = _metric_value(base_row, spec.name)
            current = _metric_value(cur_row, spec.name)
            if base is None or current is None:
                continue
            report.deltas.append(
                MetricDelta(
                    key=key,
                    metric=spec.name,
                    base=base,
                    current=current,
                    threshold=spec.threshold,
                    regressed=spec.is_regression(base, current),
                    higher_is_better=spec.higher_is_better,
                )
            )
    report.new_rows = [k for k in cur_rows if k not in base_rows]
    return report


def _key_label(key: RowKey) -> str:
    store, workload, value_size, ops, channels, threads = key
    label = f"{store}/{workload} v{value_size} n{ops}"
    if channels is not None or threads is not None:
        label += f" ch{channels or 1}xt{threads or 1}"
    return label


def report_payload(report: CompareReport) -> Dict[str, object]:
    """The machine-readable ``repro.compare/1`` document for a report.

    Everything :func:`render_compare` prints, as data: per-delta rows
    with base/current/ratio/limit, the missing/new row keys, and the
    verdict — so CI can annotate a failed gate without scraping text.
    """
    return {
        "schema": COMPARE_SCHEMA,
        "base_meta": dict(report.base_meta),
        "cur_meta": dict(report.cur_meta),
        "passed": report.passed,
        "regression_count": len(report.regressions),
        "missing_rows": [list(k) for k in report.missing_rows],
        "new_rows": [list(k) for k in report.new_rows],
        "deltas": [
            {
                "row": _key_label(d.key),
                "key": list(d.key),
                "metric": d.metric,
                "base": d.base,
                "current": d.current,
                "ratio": (
                    round(d.ratio, 6)
                    if d.ratio != float("inf")
                    else None
                ),
                "threshold": d.threshold,
                "higher_is_better": d.higher_is_better,
                "regressed": d.regressed,
            }
            for d in report.deltas
        ],
    }


def render_compare(report: CompareReport) -> str:
    """Human summary: regressions first, then per-row deltas, verdict."""
    lines: List[str] = []
    title = "perf gate: current vs baseline"
    lines.append(title)
    lines.append("-" * len(title))
    for key in report.missing_rows:
        lines.append(f"MISSING  {_key_label(key)} — row absent from current run")
    for delta in report.regressions:
        sign = "-" if delta.higher_is_better else "+"
        lines.append(
            f"REGRESSED  {_key_label(delta.key)}  {delta.metric}: "
            f"{delta.base:g} -> {delta.current:g} "
            f"({delta.ratio:.3f}x, limit {sign}{delta.threshold * 100:.0f}%)"
        )
    header = (
        f"{'row':<38} {'metric':<22} {'base':>14} {'current':>14} {'ratio':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for delta in report.deltas:
        flag = " <-- REGRESSED" if delta.regressed else ""
        lines.append(
            f"{_key_label(delta.key):<38} {delta.metric:<22} "
            f"{delta.base:>14g} {delta.current:>14g} "
            f"{delta.ratio:>8.3f}{flag}"
        )
    for key in report.new_rows:
        lines.append(f"(new row, not gated: {_key_label(key)})")
    lines.append("")
    if report.passed:
        lines.append("PASS: no metric exceeded its threshold")
    else:
        lines.append(
            f"FAIL: {len(report.regressions)} regression(s), "
            f"{len(report.missing_rows)} missing row(s)"
        )
    return "\n".join(lines)
