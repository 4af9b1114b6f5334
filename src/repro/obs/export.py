"""JSON export and the per-layer virtual-time breakdown.

The exported document is versioned (``schema``) and fully
machine-readable so benchmark trajectories can be diffed across runs:

.. code-block:: text

    {
      "schema": "repro.obs/1",
      "meta": {...},                       # caller-supplied run context
      "counters": {"db.stall.l0_stop_ns": 0, ...},
      "gauges": {...},
      "histograms": {"db.put_ns": {"count", "sum", "min", "max",
                                   "mean", "p50", "p95", "p99"}, ...},
      "sources": {"device": {...}, "sync": {...}, ...},
      "breakdown_ns": {"device", "journal", "compaction", "stalls"},
      "spans": {"collected": N, "dropped": M, "roots": [...]}   # first K
    }

``layer_breakdown`` answers the paper's core question — *where did the
virtual time go?* — from well-known metric names: device busy time from
the device stats source, journal-commit time from the ``journal.commit``
span histogram, compaction time from the minor/major compaction span
histograms, and stall time from the store's attributed stall counters.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from repro.obs.metrics import MetricRegistry

SCHEMA = "repro.obs/1"

#: stall counters summed into the breakdown's "stalls" entry
STALL_COUNTERS = (
    "db.stall.l0_slowdown_ns",
    "db.stall.memtable_wait_ns",
    "db.stall.l0_stop_ns",
)

#: span histograms summed into the breakdown's "compaction" entry
COMPACTION_SPANS = ("span.db.compaction.minor_ns", "span.db.compaction.major_ns")


def layer_breakdown(registry: MetricRegistry) -> Dict[str, int]:
    """Virtual ns attributed to each layer of the stack.

    The layers overlap by design (a compaction's span includes its
    device time; an fsync stall includes a journal commit) — the
    breakdown answers "how busy was each layer", not "a partition of
    wall time".
    """
    snapshot = registry.snapshot()
    sources = snapshot.get("sources", {})
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {})

    device = int(sources.get("device", {}).get("busy_ns", 0))
    journal = int(histograms.get("span.journal.commit_ns", {}).get("sum", 0))
    compaction = sum(
        int(histograms.get(name, {}).get("sum", 0)) for name in COMPACTION_SPANS
    )
    stalls = sum(int(counters.get(name, 0)) for name in STALL_COUNTERS)
    return {
        "device": device,
        "journal": journal,
        "compaction": compaction,
        "stalls": stalls,
    }


def registry_document(
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
    max_spans: int = 1000,
) -> Dict[str, object]:
    """The full versioned export document for one registry."""
    snapshot = registry.snapshot()
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "meta": dict(meta) if meta else {},
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "histograms": snapshot.get("histograms", {}),
        "windowed": snapshot.get("windowed", {}),
        "sources": snapshot.get("sources", {}),
        "breakdown_ns": layer_breakdown(registry),
        "spans": {
            "collected": len(registry.spans),
            "dropped": registry.spans_dropped,
            "roots": [s.to_dict() for s in registry.spans[:max_spans]],
        },
    }
    if registry.io_log is not None:
        doc["io"] = {
            "events": len(registry.io_log.events),
            "dropped": registry.io_log.dropped,
            "totals": registry.io_log.totals(),
        }
    return doc


def to_json(
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
    indent: int = 2,
) -> str:
    return json.dumps(registry_document(registry, meta), indent=indent, sort_keys=True)


def write_document(path: str, doc: Union[str, Dict[str, object]]) -> None:
    """Write one document: JSON (indented, sorted keys) or text as-is.

    The single writer behind every ``--json`` output, so byte-for-byte
    comparisons between runs never depend on which command wrote a file.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def write_json(
    path: str,
    registry: MetricRegistry,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the export document to ``path``; returns the document."""
    doc = registry_document(registry, meta)
    write_document(path, doc)
    return doc
