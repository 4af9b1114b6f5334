"""Cross-commit golden for reads beside writes.

A small YCSB-B run on noblsm with 4 device channels, 2 background
compaction threads and a page cache a quarter of the data set: the
configuration where point gets, the parallel compaction picker and
device reads queued behind compaction all meet. Its virtual summary is
pinned to recorded values, so a change to the read path or the picker
that shifts any virtual result fails here even when two runs of the
same tree agree with each other.
"""

from dataclasses import replace

from repro.baselines.registry import make_store
from repro.bench.harness import ScaledConfig
from repro.bench.ycsb import YCSBWorkload
from repro.fs.stack import StorageStack

RECORDS = 8000
OPERATIONS = 8000
CLIENTS = 4
SEED = 11


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ycsb_b_summary():
    config = ScaledConfig(
        scale=2000,
        num_ops=RECORDS,
        seed=SEED,
        num_channels=4,
        background_threads=2,
    )
    stack = StorageStack(
        replace(
            config.build_stack().config,
            pagecache_bytes=config.dataset_bytes() // 4,
        )
    )
    db = make_store("noblsm", stack, "db", options=config.build_options())
    t = stack.now
    for op in YCSBWorkload("load-a", RECORDS, 0, config.value_size, SEED).operations():
        t = op(db, t)
    start = t
    ops = YCSBWorkload(
        "b", RECORDS, OPERATIONS, config.value_size, SEED + 1
    ).operations()
    # closed-loop clients: the least-advanced client issues the next op
    clocks = [start] * CLIENTS
    latencies = []
    for op in ops:
        client = min(range(CLIENTS), key=clocks.__getitem__)
        done = op(db, clocks[client])
        latencies.append(done - clocks[client])
        clocks[client] = done
    stats = db.stats
    return {
        "end_ns": max(clocks) - start,
        "p50_ns": _percentile(latencies, 0.50),
        "p99_ns": _percentile(latencies, 0.99),
        "p999_ns": _percentile(latencies, 0.999),
        "max_ns": max(latencies),
        "minor_compactions": stats.minor_compactions,
        "major_compactions": stats.major_compactions,
        "trivial_moves": stats.trivial_moves,
        "seek_compactions": stats.seek_compactions,
        "device_bytes_written": stack.ssd.stats.bytes_written,
        "device_bytes_read": stack.ssd.stats.bytes_read,
        "block_cache_hits": db.table_cache.block_cache.hits,
        "block_cache_misses": db.table_cache.block_cache.misses,
        "page_cache_hits": stack.pagecache.hits,
        "page_cache_misses": stack.pagecache.misses,
    }


#: recorded before the Version finalization and bisect lookups landed
GOLDEN = {
    "end_ns": 315961963,
    "p50_ns": 198427,
    "p99_ns": 895696,
    "p999_ns": 6854296,
    "max_ns": 7919995,
    "minor_compactions": 262,
    "major_compactions": 35,
    "trivial_moves": 572,
    "seek_compactions": 15,
    "device_bytes_written": 29893866,
    "device_bytes_read": 318373888,
    "block_cache_hits": 77,
    "block_cache_misses": 8294,
    "page_cache_hits": 5245,
    "page_cache_misses": 4858,
}


def test_ycsb_b_virtual_summary_matches_the_recorded_golden():
    assert ycsb_b_summary() == GOLDEN
