"""Host seconds scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed changes
in spells: the same run takes 4 s in one spell and 6 s in the next, and
a spell can end mid-run or last a minute. CPU time moves with wall time,
so it does not help. :class:`SpeedClock` therefore cuts a timed phase
into slices of about :data:`SLICE_S` host seconds and, between slices,
times a fixed reference kernel (:func:`reference`). Each slice's wall
time is scaled by ``REFERENCE_S / kernel time`` around it, so a slice
run while the host is slow counts for what it would have taken at the
reference speed.

The kernel is plain Python that does what the simulator does most:
small objects, dict and heap operations, sorting and slicing of bytes.
It imports nothing from the program, so a change to the program moves
the scaled time and leaves the kernel alone. Kernel time is not counted
in either the raw or the scaled figure.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: median kernel time on the host the benchmark was tuned on (Intel
#: Xeon, 2 vCPU, fast spell); scaled seconds are seconds at that speed
REFERENCE_S = 0.0006
#: host seconds per slice: short against a spell, long against a kernel
SLICE_S = 0.05
#: kernel calls per reference measurement (their median is taken)
KERNEL_CALLS = 3

_KEYS = [(i * 2654435761 % 1000003).to_bytes(8, "big") * 2 for i in range(400)]


class _Record:
    __slots__ = ("key", "seq", "value")

    def __init__(self, key: bytes, seq: int, value: bytes) -> None:
        self.key = key
        self.seq = seq
        self.value = value


def _kernel() -> int:
    table = {}
    heap = []
    seq = 0
    for key in _KEYS:
        seq += 1
        table[key] = _Record(key, seq, key[3:11] + key[:5])
        heapq.heappush(heap, (seq & 63, seq, key))
    out = []
    for key in sorted(table):
        record = table[key]
        if record.value[:2] != b"zz":
            out.append(record.key + record.value)
    while heap:
        heapq.heappop(heap)
    return len(b"".join(out))


def reference() -> float:
    """Host seconds the reference kernel takes right now (median)."""
    times = []
    for _ in range(KERNEL_CALLS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Raw and speed-scaled host seconds of a phase.

    Call :meth:`begin`, then :meth:`tick` (or set ``op``, so the clock
    can stand in for the workloads' op cursor) often during the phase,
    then :meth:`end`. ``raw_s`` and ``scaled_s`` accumulate over every
    phase measured with the clock.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._ref = 0.0
        self._start = 0.0

    def begin(self) -> None:
        self._ref = reference()
        self._start = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._start >= SLICE_S:
            self._close()
            self._start = time.perf_counter()

    def end(self) -> None:
        self._close()

    def _close(self) -> None:
        wall = time.perf_counter() - self._start
        ref = reference()
        self.raw_s += wall
        self.scaled_s += wall * REFERENCE_S / ((self._ref + ref) / 2)
        self._ref = ref

    def _set_op(self, index: int) -> None:
        self.tick()

    #: the workloads set ``op`` before each op, as they do on the tracer
    op = property(fset=_set_op)
