"""Host-time spans around the calls into each layer of ``repro``.

The tracer wraps public methods of the layer classes listed in
:data:`LAYERS` with a recording shim, from outside the program: nothing
under ``src/`` changes, and :meth:`LayerTracer.uninstall` puts every
original function back. Wrappers are installed before the stack is
built (so bound methods cached by instances see them) but record only
between :meth:`LayerTracer.start` and :meth:`LayerTracer.stop`.

Each recorded span keeps its layer, parent span, client-op id, host
start/end and, where the call has them, the virtual ``at`` argument and
the virtual completion it returned. Spans live in flat arrays in memory
and are written out once, by :meth:`LayerTracer.write`.

Self time of a span is its duration minus the durations of its direct
children; because calls nest strictly (the simulator is single-threaded
and synchronous), the self times of all spans, the root ``bench`` span
included, add up to the root's duration exactly. A layer's ``calls``
counts entries into the layer from a different layer, so ``DB.put``
calling ``DB.write`` is one ``lsm.client`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

#: layer name -> (module, class, method names) whose calls are timed
LAYERS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "lsm.client": [("repro.lsm.db", "DB", ("put", "get", "write", "delete"))],
    "lsm.table_build": [("repro.lsm.sstable", "TableBuilder", ("add", "finish"))],
    "lsm.table_read": [
        ("repro.lsm.tablecache", "TableCache", ("get_table",)),
        ("repro.lsm.sstable", "Table", ("get", "all_entries")),
    ],
    "lsm.bg": [("repro.lsm.background", "LazyExecutor", ("execute",))],
    "fs": [
        (
            "repro.fs.ext4",
            "Ext4",
            (
                "create", "open", "unlink", "rename", "append",
                "append_zeros", "write_direct", "read", "fsync",
                "writeback_inode", "writeback_all",
            ),
        )
    ],
    "fs.journal": [
        (
            "repro.fs.jbd2",
            "Journal",
            ("join", "add_ns_op", "commit_async", "commit_sync",
             "wait_for_inode"),
        )
    ],
    "sim.ssd": [("repro.sim.ssd", "SSD", ("write", "read", "flush"))],
    "sim.events": [
        ("repro.sim.events", "EventQueue",
         ("run_until", "schedule", "schedule_after")),
    ],
    "core": [
        ("repro.core.noblsm", "NobLSM", ("reclaim",)),
        ("repro.fs.syscalls", "NobSyscalls", ("check_commit", "is_committed")),
    ],
    "serve": [
        ("repro.serve.cluster", "ServeCluster", ("serve",)),
        ("repro.serve.router", "Router", ("shard_of", "storage_key")),
        ("repro.serve.admission", "AdmissionController",
         ("decide", "note_completion")),
    ],
}

ROOT = "bench"
#: parameter names that carry a call's virtual start time
_AT_NAMES = ("at", "ready", "timestamp", "when")


class LayerTracer:
    """Installs the wrappers and keeps the spans of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT] + list(LAYERS)
        n = len(self.names)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: methods named in LAYERS that this program no longer has
        self.missing: List[str] = []
        self.active = False
        #: id of the client op being issued (-1: none)
        self.op = -1
        # span columns
        self.layer = array("H")
        self.parent = array("q")
        self.op_id = array("q")
        self.host_start = array("d")
        self.host_end = array("d")
        self.v_at = array("q")
        self.v_done = array("q")
        # open spans: index and accumulated child duration
        self._open: List[int] = []
        self._child: List[float] = []
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        for layer_id, layer in enumerate(self.names):
            for module_name, class_name, methods in LAYERS.get(layer, ()):
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__.get(method)
                    if original is None:
                        self.missing.append(f"{class_name}.{method}")
                        continue
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, layer_id))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, fn, layer_id: int):
        params = list(inspect.signature(fn).parameters)
        at_name = next((p for p in params if p in _AT_NAMES), None)
        at_index = params.index(at_name) if at_name is not None else -1
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if 0 <= at_index < len(args):
                v_at = args[at_index]
            else:
                v_at = kwargs.get(at_name, -1)
            index = enter(layer_id, v_at if type(v_at) is int else -1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(index, layer_id, result)

        return traced

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------

    def _enter(self, layer_id: int, v_at: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op_id.append(self.op)
        self.v_at.append(v_at)
        self.v_done.append(-1)
        self.host_end.append(0.0)
        self._open.append(index)
        self._child.append(0.0)
        self.host_start.append(perf_counter())
        return index

    def _leave(self, index: int, layer_id: int, result) -> None:
        end = perf_counter()
        self.host_end[index] = end
        duration = end - self.host_start[index]
        self._open.pop()
        self.self_s[layer_id] += duration - self._child.pop()
        parent = self.parent[index]
        if parent < 0 or self.layer[parent] != layer_id:
            self.calls[layer_id] += 1
        if self._child:
            self._child[-1] += duration
        if type(result) is tuple and result:
            result = result[-1]
        if type(result) is int:
            self.v_done[index] = result

    def start(self) -> None:
        """Open the root span and start recording."""
        self._root = self._enter(0, -1)
        self.active = True

    def stop(self) -> float:
        """Stop recording; returns the root span's host duration."""
        self.active = False
        self._leave(self._root, 0, None)
        return self.host_end[self._root] - self.host_start[self._root]

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer_id, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[layer_id]
            out[f"{name}.calls"] = self.calls[layer_id]
        return out

    def write(self, path_prefix: str) -> None:
        """Write the spans as raw column arrays plus a JSON header."""
        parent = os.path.dirname(path_prefix)
        if parent:
            os.makedirs(parent, exist_ok=True)
        columns = [
            ("layer", self.layer), ("parent", self.parent),
            ("op_id", self.op_id), ("host_start", self.host_start),
            ("host_end", self.host_end), ("v_at", self.v_at),
            ("v_done", self.v_done),
        ]
        with open(path_prefix + ".bin", "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {
            "spans": len(self.layer),
            "layers": self.names,
            "columns": [
                {"name": name, "typecode": column.typecode,
                 "itemsize": column.itemsize}
                for name, column in columns
            ],
            "layout": "column-major: each column's array in order",
            "missing_methods": self.missing,
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
