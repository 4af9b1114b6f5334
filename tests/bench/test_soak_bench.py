"""The soak target's document and its gate.

Soak is a preset of the serve benchmark (one shard, one tenant, flat
all-put load), so a soak run writes a ``repro.serve/1`` document and is
gated on the serve metric set, stability metrics included. These tests
pin that wiring from the soak side: the document survives a write/read
round trip, gates against itself on exactly ``SERVE_METRICS``, and
cannot be compared with a document of another schema.
"""

import json

import pytest

from repro.bench.compare import SERVE_METRICS, compare_documents
from repro.obs.export import write_document
from repro.serve.bench import (
    SERVE_SCHEMA,
    run_serve_pair,
    serve_document,
    soak_config,
)

#: small enough for the suite, long enough to reach the spike regime
SMALL = soak_config(duration_s=0.15, arrival_rate=40_000.0, window_ms=25.0)


@pytest.fixture(scope="module")
def pair():
    return run_serve_pair(SMALL)


def test_write_soak_json_roundtrip(pair, tmp_path):
    path = tmp_path / "soak.json"
    doc = serve_document(pair, meta={"target": "soak"})
    write_document(str(path), doc)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    assert on_disk["schema"] == SERVE_SCHEMA
    assert on_disk["meta"]["target"] == "soak"


def test_compare_gate_accepts_soak_documents(pair):
    doc = serve_document(pair)
    report = compare_documents(doc, doc)
    assert report.passed
    # the serve metric set, stability metrics included, is what ran
    gated = {d.metric for d in report.deltas}
    assert gated == {m.name for m in SERVE_METRICS}
    assert {"windowed_p999_us", "p999_ratio", "max_stall_ns"} <= gated


def test_compare_gate_rejects_schema_mismatch(pair):
    bench_doc = {"schema": "repro.bench/1", "results": []}
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_documents(bench_doc, serve_document(pair))
