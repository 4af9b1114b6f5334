"""The ``speed`` target: wall-clock simulator throughput + its gate.

Wall-clock numbers are host-dependent, so these tests assert structure
and gating semantics (schema, warm-up discard, higher-is-better
comparison), never absolute throughput.
"""

import json

import pytest

from repro.bench.compare import compare_documents
from repro.obs.export import write_document
from repro.bench.speed import (
    SPEED_SCHEMA,
    render_speed,
    run_speed,
    speed_document,
)

SMALL = dict(scale=50000.0, repeats=2, warmup=1)


@pytest.fixture(scope="module")
def result():
    return run_speed(**SMALL)


def test_run_speed_discards_warmup(result):
    assert len(result.wall_seconds) == SMALL["repeats"]
    assert len(result.warmup_seconds) == SMALL["warmup"]
    assert result.ops_per_sec > 0
    assert result.best_ops_per_sec >= result.ops_per_sec
    assert result.num_ops >= 200


def test_speed_document_schema(result):
    doc = speed_document([result], meta={"target": "speed"})
    assert doc["schema"] == SPEED_SCHEMA
    assert doc["meta"]["target"] == "speed"
    assert "python" in doc["meta"] and "platform" in doc["meta"]
    row = doc["results"][0]
    assert row["store"] == "noblsm"
    assert row["workload"] == "fillrandom"
    assert row["ops_per_sec"] > 0
    assert row["extras"] == {"num_channels": 1, "background_threads": 1}


def test_write_speed_json_roundtrip(result, tmp_path):
    path = tmp_path / "speed.json"
    doc = speed_document([result])
    write_document(str(path), doc)
    assert json.loads(path.read_text()) == doc


def test_render_speed_mentions_throughput(result):
    text = render_speed([result])
    assert "ops/sec" in text
    assert "warm-up discarded" in text


def test_speed_gate_passes_against_itself(result):
    doc = speed_document([result])
    report = compare_documents(doc, doc)
    assert report.passed
    assert [d.metric for d in report.deltas] == ["ops_per_sec"]


def test_speed_gate_is_higher_is_better(result):
    base = speed_document([result])
    slow = json.loads(json.dumps(base))
    slow["results"][0]["ops_per_sec"] = base["results"][0]["ops_per_sec"] / 4
    # current 4x slower than baseline -> regression
    report = compare_documents(base, slow)
    assert not report.passed
    # current 4x faster than baseline -> improvement, never a regression
    report = compare_documents(slow, base)
    assert report.passed


def test_speed_gate_tolerates_generous_wobble(result):
    """Half-speed is the default cliff: 40% slower must still pass."""
    base = speed_document([result])
    wobble = json.loads(json.dumps(base))
    wobble["results"][0]["ops_per_sec"] = (
        base["results"][0]["ops_per_sec"] * 0.6
    )
    assert compare_documents(base, wobble).passed


def test_speed_and_bench_schemas_do_not_mix(result):
    speed = speed_document([result])
    bench = {"schema": "repro.bench/1", "meta": {}, "results": []}
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_documents(bench, speed)


def test_run_speed_rejects_bad_protocol():
    with pytest.raises(ValueError):
        run_speed(repeats=0)
    with pytest.raises(ValueError):
        run_speed(warmup=-1)


def test_cli_speed_target(tmp_path, capsys):
    from repro.bench.cli import main

    code = main(
        [
            "speed",
            "--scale",
            "50000",
            "--repeats",
            "1",
            "--warmup",
            "0",
            "--json",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/sec" in out
    doc = json.loads((tmp_path / "speed.json").read_text())
    assert doc["schema"] == SPEED_SCHEMA
