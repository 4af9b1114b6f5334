"""The gate table: every named check passes a conforming document and
fails one that breaks only its own claim; ``run_gate`` wires target,
checks and baseline compare together.

Conforming documents are the recorded baselines themselves (crash-matrix
has none, so it gets a minimal synthetic document). Each mutation breaks
exactly one assertion, and the test demands that exactly that check —
and no other check of the same gate — reports a failure.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import gates
from repro.bench.gates import (
    BASELINES,
    GATES,
    KV_CRASH_FAMILIES,
    Gate,
    run_checks,
    run_gate,
)

REPO = Path(__file__).resolve().parents[2]


def _crash_matrix_doc():
    kinds = {kind: 1 for kind in KV_CRASH_FAMILIES}
    return {
        "schema": "repro.crashmatrix/1",
        "total_violations": 0,
        "total_points": 180,
        "modes": [
            {"mode": "noblsm", "points_by_kind": {"mid-wal-append": 60}},
            {"mode": "sync", "points_by_kind": {"mid-wal-append": 60}},
            {"mode": "noblsm-kv", "points_by_kind": dict(kinds, other=56)},
        ],
    }


def conforming(gate):
    if gate.baseline is None:
        return {"crash-matrix.json": _crash_matrix_doc()}
    docs = {}
    for name in gate.writes:
        text = (BASELINES / name).read_text()
        docs[name] = json.loads(text) if name.endswith(".json") else text
    return docs


def _row(doc, workload):
    return next(r for r in doc["results"] if r["workload"] == workload)


def _amp_row(doc, store):
    return next(
        r for r in doc["results"]
        if r["store"] == store and r["value_size"] == 4096
    )


def _sweep_row(doc, channels, threads):
    return next(
        r for r in doc["results"]
        if r["extras"]["num_channels"] == channels
        and r["extras"]["background_threads"] == threads
    )


def _copy_field(field, src, dst, name):
    def mutate(docs):
        doc = docs[name]
        _row(doc, dst)[field] = _row(doc, src)[field]
    return mutate


def _no_backpressure(docs):
    base = _row(docs["serve.json"], "serve")
    base["shed"] = base["queued"] = 0


def _drop_tenant_p999(docs):
    del _row(docs["serve.json"], "serve-fair")["tenants"][0]["p999_us"]


def _mute_untuned(docs):
    _row(docs["slo.json"], "serve")["fast_burn_alerts"] = 0


def _noisy_fair(docs):
    _row(docs["slo.json"], "serve-fair")["alerts_total"] = 1


def _no_first_burn(docs):
    _row(docs["slo.json"], "serve")["first_fast_burn_at_ns"] = None


def _empty_timeseries(docs):
    docs["timeseries-serve-fair.json"]["samples"] = 0


def _slow_sweep(docs):
    _sweep_row(docs["parallelism.json"], 4, 2)["extras"]["speedup"] = 1.29


def _kv_matches_plain(field):
    def mutate(docs):
        doc = docs["amplification.json"]
        _amp_row(doc, "noblsm-kv")[field] = _amp_row(doc, "noblsm")[field]
    return mutate


def _violation(docs):
    docs["crash-matrix.json"]["total_violations"] = 1


def _few_points(docs):
    docs["crash-matrix.json"]["total_points"] = 149


def _missing_family(docs):
    kv = docs["crash-matrix.json"]["modes"][2]
    del kv["points_by_kind"]["mid-vlog-gc"]


#: (gate, check, mutation breaking only that check's assertion)
MUTATIONS = [
    ("parallelism", "parallelism_4x2_speedup", _slow_sweep),
    ("soak", "soak_tuned_lowers_p999_ratio",
     _copy_field("p999_ratio", "soak", "soak-tuned", "soak.json")),
    ("soak", "soak_tuned_lowers_max_stall",
     _copy_field("max_stall_ns", "soak", "soak-tuned", "soak.json")),
    ("serve", "serve_untuned_hits_backpressure", _no_backpressure),
    ("serve", "serve_fair_lowers_worst_tenant_p999",
     _copy_field("worst_tenant_p999_us", "serve", "serve-fair",
                 "serve.json")),
    ("serve", "serve_reports_tenant_percentiles", _drop_tenant_p999),
    ("slo", "slo_alert_discrimination", _mute_untuned),
    ("slo", "slo_alert_discrimination", _noisy_fair),
    ("slo", "slo_alert_discrimination", _no_first_burn),
    ("slo", "slo_timeseries_written", _empty_timeseries),
    ("amplification", "kv_lowers_device_wa", _kv_matches_plain("wa_device")),
    ("amplification", "kv_lowers_compaction_wa",
     _kv_matches_plain("wa_compaction")),
    ("crash-matrix", "crash_matrix_no_violations", _violation),
    ("crash-matrix", "crash_matrix_min_points", _few_points),
    ("crash-matrix", "crash_matrix_kv_families", _missing_family),
]


@pytest.mark.parametrize("name", sorted(GATES))
def test_conforming_documents_pass_every_check(name):
    gate = GATES[name]
    assert run_checks(gate, conforming(gate)) == []


@pytest.mark.parametrize(
    "name,check,mutate",
    MUTATIONS,
    ids=[f"{c}-{m.__name__}" for _, c, m in MUTATIONS],
)
def test_mutation_fails_only_its_own_check(name, check, mutate):
    gate = GATES[name]
    docs = copy.deepcopy(conforming(gate))
    mutate(docs)
    failures = run_checks(gate, docs)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{check}: "), failures


def test_every_check_has_a_mutation():
    covered = {(name, check) for name, check, _ in MUTATIONS}
    for gate in GATES.values():
        for check in gate.checks:
            assert (gate.name, check.__name__) in covered, check.__name__


def test_wrong_schema_fails_the_check():
    gate = GATES["soak"]
    docs = copy.deepcopy(conforming(gate))
    docs["soak.json"]["schema"] = "repro.serve/1"
    assert len(run_checks(gate, docs)) == len(gate.checks)


def test_every_gate_writes_its_baseline_document():
    for gate in GATES.values():
        assert gate.argv[0] == gate.name
        if gate.baseline is not None:
            assert gate.baseline in gate.writes
            assert (BASELINES / gate.baseline).exists()


def test_fillrandom_gate_reproduces_its_baseline(tmp_path, capsys):
    """The gate runs what the baseline was recorded with (observed, no
    trace), so the document equals the baseline up to host timing."""
    assert run_gate("fillrandom", str(tmp_path)) == 0
    assert "PASS" in capsys.readouterr().out
    current = json.loads((tmp_path / "fillrandom.json").read_text())
    baseline = json.loads((BASELINES / "fillrandom.json").read_text())
    for row in current["results"]:
        row.pop("host", None)
        assert "critical_path" not in row
    assert current == baseline
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["passed"] is True


def test_a_failing_check_fails_the_gate(tmp_path, monkeypatch, capsys):
    def never(docs):
        """Always fails."""
        gates._require(False, "claim broken")

    entry = GATES["fillrandom"]
    broken = Gate(entry.name, entry.args, entry.writes, entry.baseline,
                  (never,))
    monkeypatch.setitem(GATES, "fillrandom", broken)
    assert run_gate("fillrandom", str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "never: claim broken" in out


def test_unknown_gate_and_baseline_free_refresh_are_rejected(capsys):
    assert run_gate("nosuch", "unused") == 2
    assert run_gate("crash-matrix", str(BASELINES)) == 2
    assert "no baseline" in capsys.readouterr().err


def test_gates_module_lists_the_table():
    out = subprocess.run(
        [sys.executable, "-m", "repro.bench.gates"],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert json.loads(out) == list(GATES)


def test_ci_size_arguments_live_only_in_the_table():
    """Makefile and CI call ``gate NAME``; they never restate its argv."""
    makefile = (REPO / "Makefile").read_text()
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    for gate in GATES.values():
        # a lone flag such as --observe is shared vocabulary, not a size
        if " " in gate.args:
            assert gate.args not in makefile, gate.name
            assert gate.args not in ci, gate.name
    assert "python -m repro.bench.gates" in ci
    assert "<<" not in ci, "inline heredoc in ci.yml"
