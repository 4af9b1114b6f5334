"""One benchmark run of one workload, in a fresh interpreter.

Usage (normally started by ``run.py``, from the repository root)::

    PYTHONPATH=src python3 perfbench/child.py --workload fill --seed 1 \
        --mode verify|time|trace

The run sets up its store(s) and generates every input from ``--seed``
(``setup_s``), runs the timed phase through the public API, then checks
outputs. Host seconds of both phases are measured with
:class:`hostspeed.SpeedClock`. It prints one JSON object as its last stdout line: host
figures, virtual-time figures, layer counters and check results.

Modes:

- ``time``: timed phase plus the checks that cost nothing extra (every
  get against the model, the cross-layer invariants);
- ``verify``: as ``time``, then reads back every key after the timed
  phase and, on ``fill``, power-fails the stack, reopens the store and
  applies the durability oracle;
- ``trace``: as ``time``, with host-time spans recorded around every
  call into a layer (:mod:`layertrace`); spans are written under
  ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from hostspeed import SpeedClock
from layertrace import LayerTracer

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.bench.workloads import ValueGenerator, fillrandom_indices, make_key
from repro.bench.ycsb import YCSBWorkload
from repro.crashtest.harness import _shadow_violations, _volatile_keys
from repro.crashtest.oracle import PUT, DurabilityOracle
from repro.fs.stack import StorageStack
from repro.lsm.format import CorruptionError
from repro.serve import ServeCluster, ServeConfig, fair_variant, open_loop

STORE = "noblsm"
#: set-up runs this many times per run (within SETUP_BUDGET_S host
#: seconds) and setup_s is their median; the last one is measured.
#: A cheap set-up (fill, serve: ~0.2 s) is too short to time once.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
#: fill: db_bench fillrandom at the scale whose 50 k ops leave writers
#: blocked ~93% of virtual time (compaction-bound, as in the paper)
FILL_SCALE = 200.0
FILL_OPS = 50_000
#: mixed: YCSB-B over a preloaded keyspace, page cache a quarter of it
MIXED_SCALE = 200.0
MIXED_RECORDS = 50_000
MIXED_OPS = 50_000
MIXED_CLIENTS = 4
MIXED_CHANNELS = 4
MIXED_THREADS = 2
#: serve: the cluster's placement seed is part of the system under
#: test, not of the workload, so it stays fixed across ``--seed``
SERVE_CLUSTER_SEED = 1234


class CheckedStore:
    """The benchmark's client in front of one store.

    Forwards ``put``/``get`` to the store, keeps a dict model of the
    acknowledged writes, counts every get whose value differs from the
    model and records per-op virtual latency. Anything else (such as
    ``write_pressure``) passes straight through.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.model: Dict[bytes, bytes] = {}
        #: user bytes written since the store was created (write_amp)
        self.user_written = 0
        #: key + value bytes of the model's live pairs (space_amp)
        self.live_bytes = 0
        self.reset()

    def reset(self) -> None:
        """Forget the samples of the set-up phase (the model stays)."""
        self.put_lat: List[int] = []
        self.get_lat: List[int] = []
        self.mismatches = 0
        self.user_read = 0

    def put(self, key: bytes, value: bytes, at: int) -> int:
        done = self.db.put(key, value, at)
        old = self.model.get(key)
        self.live_bytes += len(value) - (len(old) if old is not None else -len(key))
        self.model[key] = value
        self.put_lat.append(done - at)
        self.user_written += len(key) + len(value)
        return done

    def get(self, key: bytes, at: int):
        value, done = self.db.get(key, at)
        if value != self.model.get(key):
            self.mismatches += 1
        if value is not None:
            self.user_read += len(value)
        self.get_lat.append(done - at)
        return value, done

    def __getattr__(self, name):
        return getattr(self.db, name)


# ----------------------------------------------------------------------
# workloads: the constructor builds everything (timed as setup_s, ticking
# the clock between its steps) and timed(cursor) executes the measured
# phase, setting cursor.op to each op's index before issuing it
# ----------------------------------------------------------------------


class FillRun:
    """db_bench fillrandom, one closed-loop client, 1 channel x 1 thread."""

    def __init__(self, seed: int, clock: SpeedClock) -> None:
        self.config = ScaledConfig(scale=FILL_SCALE, num_ops=FILL_OPS, seed=seed)
        self.stack, db = self.config.build_store(STORE)
        self.clients = [CheckedStore(db)]
        clock.tick()
        values = ValueGenerator(self.config.value_size, seed=seed)
        self.ops = [
            (make_key(index, self.config.key_size), values.next())
            for index in fillrandom_indices(self.config.num_ops, seed)
        ]
        self.stacks = [self.stack]

    def timed(self, cursor) -> None:
        client = self.clients[0]
        t = self.start = self.stack.now
        for index, (key, value) in enumerate(self.ops):
            cursor.op = index
            t = client.put(key, value, t)
        self.end = t
        self.attempted = self.reached = len(self.ops)
        self.client_lat = {"client0": client.put_lat}

    def durability_check(self) -> "tuple[int, List[str]]":
        """Power-fail now, reopen, and apply the oracle's invariants.

        Returns (keys checked, violations). A read of the recovered
        store that raises counts the key as not found, plus one
        ``recovery-unreadable`` violation for the run.
        """
        oracle = DurabilityOracle()
        for key, value in self.ops:
            oracle.begin(PUT, key, value)
            oracle.ack()
        db = self.clients[0].db
        volatile = _volatile_keys(db, oracle.history)
        violations = [str(v) for v in _shadow_violations(db)]
        self.stack.crash()
        recovered = make_store(
            STORE, self.stack, db.dbname, options=self.config.build_options()
        )
        t = self.stack.now
        view = {}
        unreadable: List[str] = []
        for key in sorted(oracle.history):
            try:
                view[key], t = recovered.get(key, at=t)
            except CorruptionError as error:
                view[key] = None
                unreadable.append(str(error))
        scanned = []
        try:
            iterator = recovered.iterate(t)
            while iterator.valid:
                scanned.append((iterator.key, iterator.value))
                iterator.next()
        except CorruptionError as error:
            unreadable.append(f"scan: {error}")
        if unreadable:
            violations.append(
                f"[recovery-unreadable] {len(unreadable)} reads of the "
                f"recovered store raised, first: {unreadable[0]}"
            )
        found, _ = oracle.check(view, scanned, volatile)
        return len(view), violations + [str(v) for v in found]


class MixedRun:
    """YCSB-B, 4 closed-loop clients, 4 channels x 2 threads, 1/4 cache."""

    def __init__(self, seed: int, clock: SpeedClock) -> None:
        self.config = ScaledConfig(
            scale=MIXED_SCALE,
            num_ops=MIXED_RECORDS,
            seed=seed,
            num_channels=MIXED_CHANNELS,
            background_threads=MIXED_THREADS,
        )
        stack_config = replace(
            self.config.build_stack().config,
            pagecache_bytes=self.config.dataset_bytes() // 4,
        )
        self.stack = StorageStack(stack_config)
        db = make_store(
            STORE, self.stack, "db", options=self.config.build_options()
        )
        client = CheckedStore(db)
        self.clients = [client]
        self.stacks = [self.stack]
        t = self.stack.now
        load = YCSBWorkload(
            "load-a", MIXED_RECORDS, 0, self.config.value_size, seed
        )
        for op in load.operations():
            t = op(client, t)
            clock.tick()
        self.start = t
        self.ops = YCSBWorkload(
            "b", MIXED_RECORDS, MIXED_OPS, self.config.value_size, seed + 1
        ).operations()
        client.reset()

    def timed(self, cursor) -> None:
        client = self.clients[0]
        clocks = [self.start] * MIXED_CLIENTS
        lat: List[List[int]] = [[] for _ in range(MIXED_CLIENTS)]
        pick = range(MIXED_CLIENTS)
        for index, op in enumerate(self.ops):
            cursor.op = index
            c = min(pick, key=clocks.__getitem__)
            at = clocks[c]
            done = op(client, at)
            lat[c].append(done - at)
            clocks[c] = done
        self.end = max(clocks)
        self.attempted = self.reached = len(self.ops)
        self.client_lat = {f"client{c}": lat[c] for c in pick}


class ServeRun:
    """The serve-fair cluster: 4 shards, 6 tenants, open loop, admission."""

    def __init__(self, seed: int, clock: SpeedClock) -> None:
        config = fair_variant(ServeConfig(seed=SERVE_CLUSTER_SEED))
        self.cluster = ServeCluster(config.cluster_config())
        clock.tick()
        self.requests = list(open_loop(replace(config.load_config(), seed=seed)))
        self.clients = []
        for shard in self.cluster.shards:
            shard.db = CheckedStore(shard.db)
            self.clients.append(shard.db)
        self.stacks = [shard.stack for shard in self.cluster.shards]

    def timed(self, cursor) -> None:
        serve = self.cluster.serve
        lat: Dict[str, List[int]] = {}
        shed = 0
        end = 0
        for index, request in enumerate(self.requests):
            cursor.op = index
            done = serve(request)
            if done is None:
                shed += 1
                continue
            lat.setdefault(request.tenant, []).append(done - request.arrival)
            if done > end:
                end = done
        self.start = 0
        self.end = end
        self.shed = shed
        self.attempted = len(self.requests)
        self.reached = self.attempted - shed
        self.client_lat = lat


WORKLOADS = {"fill": FillRun, "mixed": MixedRun, "serve": ServeRun}


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def percentile_us(samples: List[int], q: float) -> float:
    """Nearest-rank percentile of virtual ns samples, in microseconds."""
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1] / 1000.0


def tail_mean_us(samples: List[int], slowest: float, skip: float = 0.0) -> float:
    """Mean of the slowest ``slowest`` share of virtual ns samples, less
    the slowest ``skip`` share, in us.

    Every single percentile of a ``fill`` run sits on a stall length
    that is the same on every seed (p99.9 is exactly one memtable-dump
    stall), so the gated tail is a mean over the slowest 1%, which also
    weighs how often and how long the stalls are. It leaves out the
    slowest 0.1%: on ``serve`` about one seed in three has a handful of
    requests held 170 to 230 us by one stall, which moved the mean of
    the whole slowest 1% by 30% across ten seeds.
    """
    ordered = sorted(samples)
    count = max(int(len(ordered) * slowest), 1)
    skipped = min(int(len(ordered) * skip), count - 1)
    return statistics.fmean(ordered[len(ordered) - count:len(ordered) - skipped]) / 1000.0


def counters(stack, db) -> Dict[str, object]:
    """Layer counters of one store, read from its public stats."""
    stats = db.stats
    dev = stack.ssd.stats
    block_cache = db.table_cache.block_cache
    return {
        "stall_ns": stats.stall_ns,
        "stall_memtable_ns": stats.stall_memtable_ns,
        "stall_l0_stop_ns": stats.stall_l0_stop_ns,
        "slowdown_ns": stats.slowdown_ns,
        "blocked_ns": stats.blocked_ns,
        "l0_stop_abandoned": stats.l0_stop_abandoned,
        "major_compactions": stats.major_compactions,
        "minor_compactions": stats.minor_compactions,
        "seek_compactions": stats.seek_compactions,
        "compacted_bytes": stats.bytes_compacted_out,
        "bg_jobs": db.bg.jobs,
        "bg_busy_ns": db.bg.busy_ns,
        "bg_throttle_ns": db.bg.throttle_ns,
        "ssd_bytes_written": dev.bytes_written,
        "ssd_bytes_read": dev.bytes_read,
        "ssd_write_ios": dev.write_ios,
        "ssd_read_ios": dev.read_ios,
        "ssd_flushes": dev.flushes,
        "ssd_busy_ns": dev.busy_ns,
        "ssd_channel_busy_ns": list(dev.channel_busy_ns) or [dev.busy_ns],
        "sync_calls": stack.sync_stats.sync_calls,
        "bytes_synced": stack.sync_stats.bytes_synced,
        "journal_commits": stack.journal.commits,
        "journal_forced_commits": stack.journal.forced_commits,
        "writeback_throttle_ns": stack.fs.throttle_ns,
        "block_cache_hits": block_cache.hits,
        "block_cache_misses": block_cache.misses,
        "pagecache_hits": stack.pagecache.hits,
        "pagecache_misses": stack.pagecache.misses,
        "pagecache_evictions": stack.pagecache.evictions,
        "is_committed_calls": stack.syscalls.is_committed_calls,
        "reclaim_runs": getattr(db, "reclaim_runs", 0),
        "shadows_deleted": getattr(db, "shadows_deleted", 0),
    }


def delta(after: Dict[str, object], before: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name, value in after.items():
        if isinstance(value, list):
            out[name] = [a - b for a, b in zip(value, before[name])]
        else:
            out[name] = value - before[name]
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def space_amp(run) -> float:
    """Bytes of every file (shadows, WAL, MANIFEST) per live user byte."""
    on_disk = 0
    for stack in run.stacks:
        fs = stack.fs
        on_disk += sum(fs.stat_size(path) for path in fs.list_dir(""))
    return ratio(on_disk, sum(c.live_bytes for c in run.clients))


def virtual_metrics(run, deltas, ends) -> Dict[str, object]:
    """Virtual-clock results (deterministic per seed).

    Latencies and rates cover the timed phase; ``write_amp`` covers the
    store's whole life, the ``mixed`` preload included, because the
    preload's compaction debt is paid off during the timed phase.
    """
    span = run.end - run.start
    everything = [x for lat in run.client_lat.values() for x in lat]
    puts = [x for c in run.clients for x in c.put_lat]
    gets = [x for c in run.clients for x in c.get_lat]
    written = sum(c.user_written for c in run.clients)
    read = sum(c.user_read for c in run.clients)
    ssd_written = sum(e["ssd_bytes_written"] for e in ends)
    ssd_read = sum(d["ssd_bytes_read"] for d in deltas)
    out: Dict[str, object] = {
        "virtual_ops_per_s": run.reached / span * 1e9,
        "req_p50_us": percentile_us(everything, 50),
        "req_p999_us": percentile_us(everything, 99.9),
        "req_tail_mean_us": tail_mean_us(everything, 0.01),
        "req_p99_p999_mean_us": tail_mean_us(everything, 0.01, 0.001),
        "worst_tenant_p99_us": max(
            percentile_us(lat, 99) for lat in run.client_lat.values() if lat
        ),
        "write_amp": ratio(ssd_written, written),
        "space_amp": space_amp(run),
        "samples": {
            "req": len(everything),
            "put": len(puts),
            "get": len(gets),
            "tenants": {k: len(v) for k, v in sorted(run.client_lat.items())},
        },
    }
    if puts:
        out["put_p50_us"] = percentile_us(puts, 50)
        out["put_p999_us"] = percentile_us(puts, 99.9)
    if gets:
        out["get_p50_us"] = percentile_us(gets, 50)
        out["get_p999_us"] = percentile_us(gets, 99.9)
    if read:
        out["read_amp"] = ratio(ssd_read, read)
    return out


def layer_counters(run, deltas) -> Dict[str, float]:
    """Per-layer counter metrics over the timed phase, summed over stores.

    Virtual waiting times are shares of the timed phase's virtual span
    (per store, or per background thread), so they compare across
    workloads and stores.
    """

    def total(name: str) -> float:
        return sum(d[name] for d in deltas)

    span = run.end - run.start
    stores = len(deltas)
    threads = sum(c.db.bg.num_threads for c in run.clients)
    channels = [d["ssd_channel_busy_ns"] for d in deltas]
    skew = max(ratio(max(ch), sum(ch) / len(ch)) for ch in channels)
    out = {
        "lsm.blocked_frac": ratio(total("blocked_ns"), span * stores),
        "lsm.stall_memtable_frac": ratio(
            total("stall_memtable_ns"), span * stores
        ),
        "lsm.stall_l0_stop_frac": ratio(total("stall_l0_stop_ns"), span * stores),
        "lsm.slowdown_frac": ratio(total("slowdown_ns"), span * stores),
        "lsm.l0_stop_abandoned": total("l0_stop_abandoned"),
        "lsm.bg.busy_frac": ratio(total("bg_busy_ns"), span * threads),
        "lsm.bg.jobs": total("bg_jobs"),
        "lsm.bg.throttle_frac": ratio(total("bg_throttle_ns"), span * threads),
        "lsm.major_compactions": total("major_compactions"),
        "lsm.minor_compactions": total("minor_compactions"),
        "lsm.seek_compactions": total("seek_compactions"),
        "lsm.compacted_bytes": total("compacted_bytes"),
        "lsm.block_cache.hit_rate": ratio(
            total("block_cache_hits"),
            total("block_cache_hits") + total("block_cache_misses"),
        ),
        "sim.ssd.busy_frac": ratio(
            total("ssd_busy_ns"), span * sum(len(ch) for ch in channels)
        ),
        "sim.ssd.bytes_written": total("ssd_bytes_written"),
        "sim.ssd.bytes_read": total("ssd_bytes_read"),
        "sim.ssd.write_ios": total("ssd_write_ios"),
        "sim.ssd.read_ios": total("ssd_read_ios"),
        "sim.ssd.flushes": total("ssd_flushes"),
        "sim.ssd.channel_skew": skew,
        "fs.sync_calls": total("sync_calls"),
        "fs.bytes_synced": total("bytes_synced"),
        "fs.journal.commits": total("journal_commits"),
        "fs.journal.forced_commits": total("journal_forced_commits"),
        "fs.writeback_throttle_frac": ratio(
            total("writeback_throttle_ns"), span * stores
        ),
        "fs.pagecache.hit_rate": ratio(
            total("pagecache_hits"),
            total("pagecache_hits") + total("pagecache_misses"),
        ),
        "fs.pagecache.evictions": total("pagecache_evictions"),
        "core.shadow_tables_end": sum(
            getattr(c.db, "shadow_count", 0) for c in run.clients
        ),
        "core.shadows_deleted": total("shadows_deleted"),
        "core.reclaim_runs": total("reclaim_runs"),
        "core.is_committed_calls": total("is_committed_calls"),
        "serve.shed": 0,
        "serve.queued": 0,
        "serve.hot_shard_share": 0.0,
        "serve.fairness_ratio": 0.0,
    }
    cluster = getattr(run, "cluster", None)
    if cluster is not None:
        served = [shard.served for shard in cluster.shards]
        out["serve.shed"] = run.shed
        out["serve.queued"] = sum(t.queued for t in cluster.tenants.values())
        out["serve.hot_shard_share"] = ratio(max(served), sum(served))
        p99 = [percentile_us(lat, 99) for lat in run.client_lat.values()]
        out["serve.fairness_ratio"] = ratio(max(p99), min(p99))
    return out


def invariants(run, ends) -> List[str]:
    """Cross-layer invariants; each broken one is a problem string."""
    problems = []
    for index, end in enumerate(ends):
        if end["stall_ns"] != end["stall_memtable_ns"] + end["stall_l0_stop_ns"]:
            problems.append(
                f"store {index}: stall_ns {end['stall_ns']} != memtable "
                f"{end['stall_memtable_ns']} + l0_stop {end['stall_l0_stop_ns']}"
            )
    cluster = getattr(run, "cluster", None)
    if cluster is not None:
        served = sum(t.served for t in cluster.tenants.values())
        shed = sum(t.shed for t in cluster.tenants.values())
        if run.attempted != served + shed:
            problems.append(
                f"serve: offered {run.attempted} != served {served} + shed {shed}"
            )
        if served != run.reached:
            problems.append(
                f"serve: cluster served {served}, client saw {run.reached}"
            )
    return problems


def readback(run) -> "tuple[int, int]":
    """Read every acknowledged key back (untimed); (attempted, failed)."""
    attempted = failed = 0
    for client, stack in zip(run.clients, run.stacks):
        t = stack.now
        for key, expected in client.model.items():
            value, t = client.db.get(key, at=t)
            attempted += 1
            failed += value != expected
    return attempted, failed


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def run_once(workload: str, seed: int, mode: str) -> Dict[str, object]:
    tracer: Optional[LayerTracer] = None
    if mode == "trace":
        tracer = LayerTracer()
        tracer.install()
    try:
        setups: List[SpeedClock] = []
        while True:
            run = None  # free the previous set-up before the next one
            clock = SpeedClock()
            clock.begin()
            run = WORKLOADS[workload](seed, clock)
            clock.end()
            setups.append(clock)
            raw = sum(c.raw_s for c in setups)
            if len(setups) == SETUP_REPEATS or raw > SETUP_BUDGET_S:
                break
        setup_s = statistics.median(c.scaled_s for c in setups)

        begins = [counters(s, c.db) for s, c in zip(run.stacks, run.clients)]
        if tracer is not None:
            tracer.start()
            timed_start = time.perf_counter()
            run.timed(tracer)
            timed_s = scaled_s = time.perf_counter() - timed_start
        else:
            clock = SpeedClock()
            clock.begin()
            run.timed(clock)
            clock.end()
            timed_s, scaled_s = clock.raw_s, clock.scaled_s
        traced_wall = tracer.stop() if tracer is not None else 0.0
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    ends = [counters(s, c.db) for s, c in zip(run.stacks, run.clients)]
    deltas = [delta(e, b) for e, b in zip(ends, begins)]
    problems = invariants(run, ends)
    wrong = sum(c.mismatches for c in run.clients)
    shed = getattr(run, "shed", 0)
    durability = 0
    attempted = run.attempted
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "host": {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "host_ops_per_s": run.attempted / scaled_s,
            "raw_ops_per_s": run.attempted / timed_s,
            "peak_rss_mib": rss_mib,
        },
        "virtual": virtual_metrics(run, deltas, ends),
        "layers": layer_counters(run, deltas),
    }
    if mode == "verify":
        read_attempted, read_failed = readback(run)
        attempted += read_attempted
        wrong += read_failed
        if workload == "fill":
            checked, violations = run.durability_check()
            attempted += checked
            durability = len(violations)
            result["durability_samples"] = [v[:200] for v in violations[:2]]
    if tracer is not None:
        per_layer = tracer.per_layer()
        tiled = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
        if abs(tiled - traced_wall) > 1e-6 * max(traced_wall, 1.0):
            problems.append(
                f"trace: self times sum to {tiled} s, wall is {traced_wall} s"
            )
        client_calls = per_layer["lsm.client.calls"]
        if client_calls != run.reached:
            problems.append(
                f"trace: lsm.client.calls {client_calls} != ops reaching "
                f"the stores {run.reached}"
            )
        per_layer["bench.calls"] = run.attempted
        result["trace"] = {
            "per_layer": per_layer,
            "wall_s": traced_wall,
            "spans": len(tracer.layer),
            "missing_methods": tracer.missing,
        }
        tracer.write(f".perfbench/spans-{workload}")
    result.update(
        attempted=attempted,
        failed=wrong + shed + durability,
        wrong_outputs=wrong,
        shed=shed,
        durability_violations=durability,
        problems=problems,
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("time", "verify", "trace"), default="time"
    )
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.mode)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
