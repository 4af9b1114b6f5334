"""The gate table: every gated experiment, declared once.

Each :class:`Gate` names a ``python -m repro.bench.cli`` target and
holds its CI-size arguments (the only copy in the repository), the
documents the target writes, the recorded baseline its main document is
compared against, and one named check per claim the experiment exists
to defend (tuned beats untuned, fair beats untuned, ...).

``python -m repro.bench.cli gate NAME --json DIR`` runs one entry: the
target writes its documents into ``DIR``, every check runs on them, and
the main document is compared against ``benchmarks/baselines/``.
Refreshing a baseline is the same command with
``--json benchmarks/baselines``: the documents are rewritten in place
and the checks still run, so a baseline that breaks its own claims is
flagged. The Makefile's ``NAME-gate`` / ``refresh-NAME-baseline``
targets and the CI gate matrix are thin calls to that command, so a
gate means the same thing on a laptop and in CI.

``python -m repro.bench.gates`` prints the table's names as a JSON list
(CI builds its job matrix from it).
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.compare import (
    AMPLIFICATION_SCHEMA,
    SCHEMA as BENCH_SCHEMA,
    SERVE_SCHEMA,
    SLO_SCHEMA,
)
from repro.bench.slo import check_discrimination

#: the recorded baselines every gate compares against
BASELINES = Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"

#: a gate's documents by file name: parsed JSON, or text for ``.txt``
Documents = Dict[str, object]
Check = Callable[[Documents], None]


class CheckFailed(AssertionError):
    """A gate document broke one of the experiment's claims."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _document(docs: Documents, name: str, schema: str) -> Dict[str, object]:
    doc = docs[name]
    _require(
        doc.get("schema") == schema,
        f"{name}: schema {doc.get('schema')!r}, expected {schema!r}",
    )
    return doc


def _pair(
    docs: Documents, name: str, schema: str, workloads: Sequence[str]
) -> List[Dict[str, object]]:
    """The rows of a paired (untuned, tuned) document, in that order."""
    rows = {r["workload"]: r for r in _document(docs, name, schema)["results"]}
    _require(
        set(rows) == set(workloads),
        f"{name}: workloads {sorted(rows)}, expected {sorted(workloads)}",
    )
    return [rows[w] for w in workloads]


# ----------------------------------------------------------------------
# checks: one per claim, each a pure function of the written documents
# ----------------------------------------------------------------------


def parallelism_4x2_speedup(docs: Documents) -> None:
    """4 channels x 2 compaction threads beats serial by >= 1.3x."""
    doc = _document(docs, "parallelism.json", BENCH_SCHEMA)
    rows = {
        (int(r["extras"]["num_channels"]),
         int(r["extras"]["background_threads"])): r
        for r in doc["results"]
    }
    _require((1, 1) in rows and (4, 2) in rows, f"sweep points {sorted(rows)}")
    speedup = rows[(4, 2)]["extras"]["speedup"]
    _require(speedup >= 1.3, f"4ch x 2thr speedup {speedup} < 1.3")


def _soak_pair(docs: Documents) -> List[Dict[str, object]]:
    return _pair(docs, "soak.json", SERVE_SCHEMA, ("serve", "serve-fair"))


def soak_tuned_lowers_p999_ratio(docs: Documents) -> None:
    """The fair soak's worst-window spike sits closer to steady state."""
    base, tuned = _soak_pair(docs)
    _require(
        tuned["p999_ratio"] < base["p999_ratio"],
        f"tuned p99.9 ratio {tuned['p999_ratio']} is not below "
        f"untuned {base['p999_ratio']}",
    )


def soak_tuned_lowers_max_stall(docs: Documents) -> None:
    """The fair soak's longest write stall is shorter."""
    base, tuned = _soak_pair(docs)
    _require(
        tuned["max_stall_ns"] < base["max_stall_ns"],
        f"tuned max stall {tuned['max_stall_ns']} ns is not below "
        f"untuned {base['max_stall_ns']} ns",
    )


def _serve_pair(docs: Documents) -> List[Dict[str, object]]:
    return _pair(docs, "serve.json", SERVE_SCHEMA, ("serve", "serve-fair"))


def serve_untuned_hits_backpressure(docs: Documents) -> None:
    """The untuned cluster's hot shard sheds or queues requests."""
    base, _ = _serve_pair(docs)
    _require(
        base["shed"] + base["queued"] > 0,
        f"untuned shed={base['shed']} queued={base['queued']}: admission "
        "control never engaged",
    )


def serve_fair_lowers_worst_tenant_p999(docs: Documents) -> None:
    """Fair scheduling improves the worst-off tenant's p99.9."""
    base, fair = _serve_pair(docs)
    _require(
        fair["worst_tenant_p999_us"] < base["worst_tenant_p999_us"],
        f"fair worst-tenant p99.9 {fair['worst_tenant_p999_us']} us is not "
        f"below untuned {base['worst_tenant_p999_us']} us",
    )


def serve_reports_tenant_percentiles(docs: Documents) -> None:
    """Every serve row carries per-tenant p50/p99/p99.9."""
    for row in _serve_pair(docs):
        _require(row["tenants"], f"{row['workload']}: no per-tenant rows")
        for tenant in row["tenants"]:
            _require(
                {"p50_us", "p99_us", "p999_us"} <= set(tenant),
                f"{row['workload']}: tenant row lacks percentiles",
            )


def slo_alert_discrimination(docs: Documents) -> None:
    """The untuned pair pages with a fast burn; the fair twin is silent."""
    rows = _pair(docs, "slo.json", SLO_SCHEMA, ("serve", "serve-fair"))
    problems = check_discrimination(rows)
    _require(not problems, "; ".join(problems))
    _require(
        rows[0]["first_fast_burn_at_ns"] is not None,
        "untuned fast burn has no first-fire timestamp",
    )


def slo_timeseries_written(docs: Documents) -> None:
    """Each variant's flight-recorder series were sampled and written."""
    for workload in ("serve", "serve-fair"):
        name = f"timeseries-{workload}.json"
        series = _document(docs, name, "repro.timeseries/1")
        _require(
            series["samples"] > 0 and series["series"],
            f"{name}: no samples",
        )


def _amplification_4k(docs: Documents) -> Tuple[Dict, Dict]:
    doc = _document(docs, "amplification.json", AMPLIFICATION_SCHEMA)
    rows = {(r["store"], r["value_size"]): r for r in doc["results"]}
    return rows[("noblsm-kv", 4096)], rows[("noblsm", 4096)]


def kv_lowers_device_wa(docs: Documents) -> None:
    """At 4 KiB values noblsm-kv writes fewer device bytes per user byte."""
    kv, plain = _amplification_4k(docs)
    _require(
        kv["wa_device"] < plain["wa_device"],
        f"WA(device) kv {kv['wa_device']} is not below plain "
        f"{plain['wa_device']}",
    )


def kv_lowers_compaction_wa(docs: Documents) -> None:
    """At 4 KiB values noblsm-kv's compaction WA (vLog appends included)
    is lower, and its vLog reclamation is reported."""
    kv, plain = _amplification_4k(docs)
    _require(
        kv["wa_compaction"] < plain["wa_compaction"],
        f"WA(compaction) kv {kv['wa_compaction']} is not below plain "
        f"{plain['wa_compaction']}",
    )
    _require(kv["vlog"]["vlog_reclaimed_segments"] >= 0, "no vLog report")


def _crash_matrix(docs: Documents) -> Dict[str, object]:
    return _document(docs, "crash-matrix.json", "repro.crashmatrix/1")


def crash_matrix_no_violations(docs: Documents) -> None:
    """No crash point breaks a durability invariant."""
    total = _crash_matrix(docs)["total_violations"]
    _require(total == 0, f"{total} durability violation(s)")


def crash_matrix_min_points(docs: Documents) -> None:
    """The sweep explores at least 150 crash points."""
    total = _crash_matrix(docs)["total_points"]
    _require(total >= 150, f"only {total} crash points explored")


#: crash families the kv store must reach inside the workload horizon
KV_CRASH_FAMILIES = frozenset(
    {"mid-vlog-append", "mid-vlog-gc", "pre-vlog-reclaim", "post-vlog-reclaim"}
)


def crash_matrix_kv_families(docs: Documents) -> None:
    """All three modes ran and noblsm-kv hit every vLog crash family."""
    modes = {m["mode"]: m for m in _crash_matrix(docs)["modes"]}
    expected = {"noblsm", "sync", "noblsm-kv"}
    _require(set(modes) == expected, f"modes {sorted(modes)}")
    missing = KV_CRASH_FAMILIES - set(modes["noblsm-kv"]["points_by_kind"])
    _require(not missing, f"vlog families missing: {sorted(missing)}")


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One gated experiment: how CI runs it and what it must show."""

    #: the ``repro.bench.cli`` target, and the gate's name
    name: str
    #: CI-size arguments after the target name
    args: str
    #: documents the target writes into its ``--json`` directory
    writes: Tuple[str, ...]
    #: the document compared against ``BASELINES``, or None
    baseline: Optional[str]
    checks: Tuple[Check, ...] = ()

    @property
    def argv(self) -> List[str]:
        return [self.name] + shlex.split(self.args)


GATES: Dict[str, Gate] = {
    gate.name: gate
    for gate in (
        # observed, so the baseline carries latency percentiles and the
        # per-layer breakdown; the Perfetto trace is a failure artifact
        Gate("fillrandom", "--observe", ("fillrandom.json",),
             "fillrandom.json"),
        Gate("parallelism", "", ("parallelism.json",), "parallelism.json",
             (parallelism_4x2_speedup,)),
        Gate("speed", "", ("speed.json",), "speed.json"),
        # short enough for a gate job, long enough for the tree to reach
        # the bursty-compaction regime
        Gate("soak", "--rate 40000 --duration 0.3 --window-ms 25",
             ("soak.json", "soak-timeline.txt"), "soak.json",
             (soak_tuned_lowers_p999_ratio, soak_tuned_lowers_max_stall)),
        # hot enough that the untuned cluster's hot shard sheds and queues
        Gate("serve", "--rate 90000 --duration 0.3 --window-ms 25",
             ("serve.json", "serve-timeline.txt"), "serve.json",
             (serve_untuned_hits_backpressure,
              serve_fair_lowers_worst_tenant_p999,
              serve_reports_tenant_percentiles)),
        # the serve pair with telemetry on: the untuned shed burst must
        # page while the fair twin stays silent
        Gate("slo",
             "--rate 90000 --duration 0.3 --window-ms 25 --interval-ms 5",
             ("slo.json", "timeseries-serve.json",
              "timeseries-serve-fair.json", "slo-dashboard.txt"),
             "slo.json",
             (slo_alert_discrimination, slo_timeseries_written)),
        Gate("amplification", "", ("amplification.json",),
             "amplification.json",
             (kv_lowers_device_wa, kv_lowers_compaction_wa)),
        # 240 ops is the floor at which the kv store's vLog GC and
        # commit-gated segment retirement happen inside the workload
        # horizon; below it the vlog-gc/vlog-reclaim families vanish
        Gate("crash-matrix",
             "--points 60 --num 240 --modes noblsm,sync,noblsm-kv",
             ("crash-matrix.json",), None,
             (crash_matrix_no_violations, crash_matrix_min_points,
              crash_matrix_kv_families)),
    )
}


def run_checks(gate: Gate, docs: Documents) -> List[str]:
    """Run every check of ``gate``; returns ``name: problem`` failures."""
    failures = []
    for check in gate.checks:
        try:
            check(docs)
        except CheckFailed as exc:
            failures.append(f"{check.__name__}: {exc}")
    return failures


def _read(path: str) -> object:
    with open(path) as fh:
        return json.load(fh) if path.endswith(".json") else fh.read()


def run_gate(name: str, out_dir: str) -> int:
    """Run gate ``name`` into ``out_dir``: target, checks, baseline compare.

    Returns 0 when the target succeeded, passed every check and did not
    regress against its baseline; 1 otherwise; 2 for an unknown gate or
    a refresh of a gate without a baseline. A document the target failed
    to write raises ``FileNotFoundError``.
    """
    from repro.bench.cli import main

    gate = GATES.get(name)
    if gate is None:
        print(f"unknown gate {name!r}; gates: {', '.join(GATES)}",
              file=sys.stderr)
        return 2
    refresh = Path(out_dir).resolve() == BASELINES
    if refresh and gate.baseline is None:
        print(f"gate {name!r} has no baseline to refresh", file=sys.stderr)
        return 2
    failures = []
    status = main(gate.argv + ["--json", out_dir])
    if status != 0:
        failures.append(f"{name} exited with status {status}")
    docs = {n: _read(os.path.join(out_dir, n)) for n in gate.writes}
    failures.extend(run_checks(gate, docs))
    if gate.baseline is not None and not refresh:
        status = main([
            "compare",
            str(BASELINES / gate.baseline),
            os.path.join(out_dir, gate.baseline),
            "--json",
            out_dir,
        ])
        if status != 0:
            failures.append(f"{gate.baseline} regressed against its baseline")
    checked = ", ".join(c.__name__ for c in gate.checks) or "none"
    print(f"\ngate {name}: checks {checked}"
          + ("; baseline refreshed" if refresh else ""))
    if failures:
        print("FAIL:\n" + "\n".join(f"  {f}" for f in failures))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    print(json.dumps(list(GATES)))
