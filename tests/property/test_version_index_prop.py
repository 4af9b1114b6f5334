"""Property: a finalized Version answers exactly as a rescan of its files.

Random edit sequences — adds, deletes, trivial moves, multi-file
compactions and overlapping level-0 files — go through
``VersionSet.log_and_apply``. After every edit each answer the version
computed at construction (byte totals, live level-0 count, scores,
picker order, ``files_for_get``, ``overlapping_inputs`` at every level)
must equal a brute-force recomputation over its file lists.
"""

import bisect

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.stack import StorageStack
from repro.lsm.format import TYPE_VALUE, make_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, VersionEdit, VersionSet

NUM_LEVELS = 4
KEYSPACE = 40
#: a few keys hold NUL bytes: a level sorted by internal-key bytes can
#: then be out of user-key order, which the version must scan, not bisect
KEYS = [b"k%d" % n for n in range(KEYSPACE - 3)] + [b"k", b"k\x00", b"k1\x00"]
PROBES = [None] + sorted(set(KEYS) | {b"", b"k", b"z"})


def _options():
    return Options(
        num_levels=NUM_LEVELS,
        l0_compaction_trigger=3,
        max_bytes_for_level_base=3000,
        level_multiplier=2,
    )


# ----------------------------------------------------------------------
# brute force over the version's lists
# ----------------------------------------------------------------------


def brute_overlapping(files, level, begin, end):
    inputs = []
    user_begin, user_end = begin, end
    i = 0
    while i < len(files):
        f = files[i]
        f_begin, f_end = f.user_range()
        i += 1
        if user_end is not None and f_begin > user_end:
            continue
        if user_begin is not None and f_end < user_begin:
            continue
        inputs.append(f)
        if level == 0:
            if user_begin is not None and f_begin < user_begin:
                user_begin, inputs, i = f_begin, [], 0
            elif user_end is not None and f_end > user_end:
                user_end, inputs, i = f_end, [], 0
    return inputs


def brute_files_for_get(version, key):
    level0 = [
        f
        for f in version.files[0]
        if not f.shadow and f.smallest[:-8] <= key <= f.largest[:-8]
    ]
    level0.sort(key=lambda f: f.number, reverse=True)
    out = [(0, f) for f in level0]
    for level in range(1, len(version.files)):
        files = version.files[level]
        if not files:
            continue
        pos = bisect.bisect_left([f.largest[:-8] for f in files], key)
        if pos < len(files):
            f = files[pos]
            if not f.shadow and f.smallest[:-8] <= key:
                out.append((level, f))
    return out


def check_version(versions, ranges):
    version = versions.current
    options = versions.options
    sizes = [sum(f.file_size for f in level) for level in version.files]
    assert [version.level_bytes(level) for level in range(NUM_LEVELS)] == sizes
    live = [f for f in version.files[0] if not f.shadow]
    assert version.l0_live_count == len(live)
    assert version.l0_live_bytes == sum(f.file_size for f in live)
    scores = [len(live) / float(options.l0_compaction_trigger)] + [
        sizes[level] / options.max_bytes_for_level(level)
        for level in range(1, NUM_LEVELS - 1)
    ]
    assert list(version.scores) == scores
    order = sorted(
        (level for level in range(NUM_LEVELS - 1) if scores[level] > 0.999999),
        key=lambda level: (-scores[level], level),
    )
    assert list(version.compaction_levels) == order
    best = order[0] if order else None
    assert versions.pick_compaction_level()[0] == best
    for key in PROBES[1:]:
        assert version.files_for_get(key) == brute_files_for_get(version, key)
    for level in range(NUM_LEVELS):
        for begin, end in ranges:
            got = version.overlapping_inputs(level, begin, end)
            assert got == brute_overlapping(version.files[level], level, begin, end)


# ----------------------------------------------------------------------
# edit generation
# ----------------------------------------------------------------------


def _meta(number, lo, width, size):
    a, b = sorted((KEYS[lo], KEYS[min(lo + width, KEYSPACE - 1)]))
    return FileMetaData(
        number=number,
        file_size=size,
        smallest=make_internal_key(a, 100 + number, TYPE_VALUE),
        largest=make_internal_key(b, 100 + number, TYPE_VALUE),
    )


def _overlaps_any(files, meta):
    lo, hi = meta.user_range()
    return any(
        not (f.largest[:-8] < lo or f.smallest[:-8] > hi) for f in files
    )


step = st.tuples(
    st.sampled_from(["add", "add", "add", "delete", "move", "compact"]),
    st.integers(min_value=0, max_value=NUM_LEVELS - 1),
    st.integers(min_value=0, max_value=KEYSPACE - 1),
    st.integers(min_value=0, max_value=8),
    # coarse sizes make equal scores (picker ties) common
    st.sampled_from([250, 500, 1000, 1500]),
    st.booleans(),
)
key_range = st.tuples(st.sampled_from(PROBES), st.sampled_from(PROBES))


def build_edit(version, number, op):
    """One edit for ``op`` against ``version``, or None if inapplicable."""
    kind, level, a, width, size, overlap_ok = op
    files = version.files[level]
    edit = VersionEdit()
    if kind == "add":
        meta = _meta(number, a, width, size)
        # levels >= 1 stay disjoint unless the step asks for an
        # overlapping (fragmented, PebblesDB-style) level
        if level > 0 and not overlap_ok and _overlaps_any(files, meta):
            return None
        edit.add_file(level, meta)
    elif kind == "delete":
        if not files:
            return None
        edit.delete_file(level, files[a % len(files)].number)
    elif kind == "move":
        if not files or level + 1 >= NUM_LEVELS:
            return None
        meta = files[a % len(files)]
        if _overlaps_any(version.files[level + 1], meta):
            return None
        edit.delete_file(level, meta.number)
        edit.add_file(level + 1, meta)
    else:  # compact: one input plus its next-level overlaps, one output
        if not files or level + 1 >= NUM_LEVELS:
            return None
        seed = files[a % len(files)]
        lo, hi = seed.user_range()
        below = brute_overlapping(version.files[level + 1], level + 1, lo, hi)
        inputs = [seed] + below
        smallest = min(f.smallest for f in inputs)
        largest = max(f.largest for f in inputs)
        out = FileMetaData(
            number=number,
            file_size=sum(f.file_size for f in inputs),
            smallest=smallest,
            largest=largest,
        )
        rest = [f for f in version.files[level + 1] if f not in below]
        if not overlap_ok and _overlaps_any(rest, out):
            return None
        edit.delete_file(level, seed.number)
        for f in below:
            edit.delete_file(level + 1, f.number)
        edit.add_file(level + 1, out)
    return edit


@settings(max_examples=100, deadline=None)
@given(
    st.lists(step, min_size=1, max_size=40),
    st.lists(key_range, min_size=1, max_size=6),
)
# a fragmented level 1 (one file nested in another) and a level 2 whose
# NUL-byte keys put internal-key order out of user-key order: both
# scan; level 0 expands [k0, k1] to both of its files; levels 0 and 1
# tie at score 1.0
@example(
    [
        ("add", 1, 1, 8, 1500, True),
        ("add", 1, 4, 1, 1500, True),
        ("add", 2, KEYSPACE - 3, 0, 250, False),
        ("add", 2, KEYSPACE - 2, 0, 250, False),
        ("add", 0, 0, 5, 250, False),
        ("add", 0, 3, 5, 250, False),
        ("add", 0, 20, 2, 250, False),
    ],
    [(None, None), (b"k3", b"k5"), (b"k", b"k\x00"), (b"k0", b"k1")],
)
def test_finalized_version_matches_brute_force(ops, ranges):
    stack = StorageStack()
    versions = VersionSet(stack.fs, "db", _options())
    check_version(versions, ranges)
    t = 0
    for op in ops:
        edit = build_edit(versions.current, versions.next_file_number, op)
        if edit is None:
            continue
        versions.new_file_number()
        t = versions.log_and_apply(edit, at=t)
        check_version(versions, ranges)
