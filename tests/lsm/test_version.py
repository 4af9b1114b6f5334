"""Unit tests for versions, edits and MANIFEST persistence."""

import pytest

from repro.fs.stack import StorageStack
from repro.lsm.format import TYPE_VALUE, make_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version, VersionEdit, VersionSet


def ikey(user, seq=10):
    return make_internal_key(user, seq, TYPE_VALUE)


def meta(number, lo, hi, size=1000, ino=-1):
    return FileMetaData(
        number=number, file_size=size, smallest=ikey(lo), largest=ikey(hi), ino=ino
    )


@pytest.fixture()
def stack():
    return StorageStack()


# ----------------------------------------------------------------------
# VersionEdit encode/decode
# ----------------------------------------------------------------------

def test_edit_roundtrip():
    edit = VersionEdit(log_number=7, next_file_number=20, last_sequence=999)
    edit.add_file(2, meta(11, b"a", b"m", size=4096, ino=77))
    edit.delete_file(1, 5)
    edit.compact_pointers.append((3, b"pivot"))
    decoded = VersionEdit.decode(edit.encode())
    assert decoded.log_number == 7
    assert decoded.next_file_number == 20
    assert decoded.last_sequence == 999
    assert decoded.deleted_files == [(1, 5)]
    assert decoded.compact_pointers == [(3, b"pivot")]
    (level, new_meta), = decoded.new_files
    assert level == 2
    assert new_meta.number == 11
    assert new_meta.file_size == 4096
    assert new_meta.smallest == ikey(b"a")
    assert new_meta.largest == ikey(b"m")
    assert new_meta.ino == 77


def test_empty_edit_roundtrip():
    decoded = VersionEdit.decode(VersionEdit().encode())
    assert decoded.new_files == []
    assert decoded.deleted_files == []
    assert decoded.log_number is None


# ----------------------------------------------------------------------
# Version structure
# ----------------------------------------------------------------------

def test_overlapping_inputs_disjoint_level():
    version = Version(
        Options(),
        [[], [meta(1, b"a", b"c"), meta(2, b"d", b"f"), meta(3, b"g", b"i")]],
    )
    hits = version.overlapping_inputs(1, b"c", b"e")
    assert [f.number for f in hits] == [1, 2]
    assert version.overlapping_inputs(1, b"x", b"z") == []
    assert [f.number for f in version.overlapping_inputs(1, None, None)] == [1, 2, 3]


def test_overlapping_inputs_level0_expands():
    version = Version(
        Options(),
        [[meta(1, b"a", b"d"), meta(2, b"c", b"h"), meta(3, b"g", b"k")]],
    )
    # asking for [a, b] pulls in file 1; file 1 reaches d, which pulls in
    # file 2, which reaches h, which pulls in file 3 (fixed point)
    hits = version.overlapping_inputs(0, b"a", b"b")
    assert sorted(f.number for f in hits) == [1, 2, 3]


def test_files_for_get_level0_newest_first():
    version = Version(
        Options(),
        [[meta(1, b"a", b"z"), meta(5, b"a", b"z"), meta(3, b"a", b"z")]],
    )
    hits = version.files_for_get(b"m")
    assert [f.number for _, f in hits] == [5, 3, 1]


def test_files_for_get_skips_shadows():
    shadow = meta(2, b"a", b"z")
    shadow.shadow = True
    version = Version(Options(), [[meta(1, b"a", b"z"), shadow]])
    hits = version.files_for_get(b"m")
    assert [f.number for _, f in hits] == [1]


def test_files_for_get_one_candidate_per_deep_level():
    version = Version(
        Options(), [[], [], [meta(1, b"a", b"c"), meta(2, b"d", b"f")]]
    )
    hits = version.files_for_get(b"e")
    assert [(lvl, f.number) for lvl, f in hits] == [(2, 2)]
    assert version.files_for_get(b"zz") == []


def test_pick_level_for_memtable_output():
    options = Options()
    version = Version(options)
    # empty store: new table can be pushed to level 2
    assert version.pick_level_for_memtable_output(b"a", b"b", options) == 2
    # overlap at level 0 keeps it at level 0
    version = Version(options, [[meta(1, b"a", b"c")]])
    assert version.pick_level_for_memtable_output(b"b", b"d", options) == 0
    # overlap at level 1 stops the push-down at level 0->... level 0
    version = Version(options, [[], [meta(2, b"a", b"c")]])
    assert version.pick_level_for_memtable_output(b"b", b"d", options) == 0


# ----------------------------------------------------------------------
# VersionSet persistence
# ----------------------------------------------------------------------

def test_log_and_apply_then_recover(stack):
    options = Options()
    versions = VersionSet(stack.fs, "db", options)
    edit = VersionEdit(log_number=3)
    edit.add_file(1, meta(4, b"a", b"m", size=2222, ino=9))
    t = versions.log_and_apply(edit, at=0)
    versions.last_sequence = 55
    edit2 = VersionEdit()
    edit2.add_file(2, meta(6, b"n", b"z"))
    edit2.delete_file(1, 4)
    t = versions.log_and_apply(edit2, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    recovered.recover(at=t)
    assert recovered.log_number == 3
    assert recovered.last_sequence == 55
    assert recovered.current.num_files(1) == 0
    assert [f.number for f in recovered.current.files[2]] == [6]


def test_recover_ignores_torn_manifest_tail(stack):
    options = Options()
    options.sync.sync_manifest = False  # NobLSM-style async manifest
    versions = VersionSet(stack.fs, "db", options)
    edit = VersionEdit(log_number=3)
    edit.add_file(1, meta(4, b"a", b"m"))
    t = versions.log_and_apply(edit, at=0)
    t = stack.fs.fsync(versions._manifest, at=t)
    edit2 = VersionEdit()
    edit2.add_file(1, meta(9, b"n", b"z"))
    t = versions.log_and_apply(edit2, at=t)  # not synced
    stack.fs.crash()
    recovered = VersionSet(stack.fs, "db", options)
    recovered.recover(at=stack.now)
    numbers = [f.number for f in recovered.current.files[1]]
    assert numbers == [4]  # second edit lost with the volatile tail


def test_recover_with_validator_rolls_back_lost_outputs(stack):
    options = Options()
    options.sync.sync_manifest = False
    versions = VersionSet(stack.fs, "db", options)
    edit = VersionEdit()
    edit.add_file(1, meta(4, b"a", b"m"))
    edit.add_file(1, meta(5, b"n", b"z"))
    t = versions.log_and_apply(edit, at=0)
    # a compaction consumed 4 and 5, producing 8 — but 8 was lost
    edit2 = VersionEdit()
    edit2.delete_file(1, 4)
    edit2.delete_file(1, 5)
    edit2.add_file(2, meta(8, b"a", b"z"))
    t = versions.log_and_apply(edit2, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    recovered.validate_new_file = lambda m: m.number != 8
    recovered.recover(at=t)
    assert recovered.skipped_edits == 1
    assert [f.number for f in recovered.current.files[1]] == [4, 5]
    assert recovered.current.files[2] == []


def test_recover_validator_cascades_through_consumers(stack):
    options = Options()
    options.sync.sync_manifest = False
    versions = VersionSet(stack.fs, "db", options)
    base = VersionEdit()
    base.add_file(1, meta(4, b"a", b"z"))
    t = versions.log_and_apply(base, at=0)
    # the lost compaction produced 7 and 8; 8 is plainly missing after
    # the crash (so the edit must roll back), while 7 was consumed by a
    # later compaction that produced a durable 9 derived from half-lost
    # data — that consumer must roll back too
    lost = VersionEdit()
    lost.delete_file(1, 4)
    lost.add_file(2, meta(7, b"a", b"m"))
    lost.add_file(2, meta(8, b"n", b"z"))
    t = versions.log_and_apply(lost, at=t)
    consumer = VersionEdit()
    consumer.delete_file(2, 7)
    consumer.add_file(3, meta(9, b"a", b"m"))
    t = versions.log_and_apply(consumer, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    recovered.validate_new_file = lambda m: m.number != 8
    recovered.recover(at=t)
    # both the lost edit and its consumer are rolled back
    assert recovered.skipped_edits == 2
    assert [f.number for f in recovered.current.files[1]] == [4]
    assert recovered.current.files[2] == []
    assert recovered.current.files[3] == []


def test_recover_rolls_back_a_lost_output_consumed_by_a_rolled_back_edit(
    stack,
):
    """A consumer that is itself rolled back does not vouch for its input.

    Edit A turns 4 into 7, edit B turns 7 into 9, and neither 7 nor 9
    became durable. B rolls back because 9 is lost; that voids B's
    deletion of 7, so 7 must validate on its own, fails, and A rolls
    back too — leaving A's input 4 live.
    """
    options = Options()
    options.sync.sync_manifest = False
    versions = VersionSet(stack.fs, "db", options)
    base = VersionEdit()
    base.add_file(1, meta(4, b"a", b"z"))
    t = versions.log_and_apply(base, at=0)
    edit_a = VersionEdit()
    edit_a.delete_file(1, 4)
    edit_a.add_file(2, meta(7, b"a", b"z"))
    t = versions.log_and_apply(edit_a, at=t)
    edit_b = VersionEdit()
    edit_b.delete_file(2, 7)
    edit_b.add_file(3, meta(9, b"a", b"z"))
    t = versions.log_and_apply(edit_b, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    recovered.validate_new_file = lambda m: m.number not in (7, 9)
    recovered.recover(at=t)
    assert recovered.skipped_edits == 2
    assert [f.number for f in recovered.current.files[1]] == [4]
    assert recovered.current.files[2] == []
    assert recovered.current.files[3] == []


def test_recover_rolls_back_a_lost_output_that_was_trivially_moved(stack):
    """A trivial move re-adds the file it deletes: that is no consumption.

    A compaction turns 4 into 7, which never becomes durable; a trivial
    move then carries 7 from level 1 to level 2. The move's delete must
    not vouch for 7, so both edits roll back and 4 stays live.
    """
    options = Options()
    options.sync.sync_manifest = False
    versions = VersionSet(stack.fs, "db", options)
    base = VersionEdit()
    base.add_file(0, meta(4, b"a", b"z"))
    t = versions.log_and_apply(base, at=0)
    compaction = VersionEdit()
    compaction.delete_file(0, 4)
    lost = meta(7, b"a", b"z")
    compaction.add_file(1, lost)
    t = versions.log_and_apply(compaction, at=t)
    move = VersionEdit()
    move.delete_file(1, 7)
    move.add_file(2, lost)
    t = versions.log_and_apply(move, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    recovered.validate_new_file = lambda m: m.number != 7
    recovered.recover(at=t)
    assert recovered.skipped_edits == 2
    assert [f.number for f in recovered.current.files[0]] == [4]
    assert recovered.current.files[1] == []
    assert recovered.current.files[2] == []


def test_recover_validator_accepts_consumed_missing_files(stack):
    """A file deleted by a later edit may legitimately be gone from disk."""
    options = Options()
    options.sync.sync_manifest = False
    versions = VersionSet(stack.fs, "db", options)
    first = VersionEdit()
    first.add_file(1, meta(4, b"a", b"z"))
    t = versions.log_and_apply(first, at=0)
    second = VersionEdit()
    second.delete_file(1, 4)
    second.add_file(2, meta(8, b"a", b"z"))
    t = versions.log_and_apply(second, at=t)
    t = stack.fs.fsync(versions._manifest, at=t)

    recovered = VersionSet(stack.fs, "db", options)
    # 4 is gone from disk (consumed + reclaimed); 8 is durable
    recovered.validate_new_file = lambda m: m.number != 4
    recovered.recover(at=t)
    assert recovered.skipped_edits == 0
    assert [f.number for f in recovered.current.files[2]] == [8]


def test_level_scores(stack):
    options = Options(max_bytes_for_level_base=1000)
    versions = VersionSet(stack.fs, "db", options)
    version = Version(
        options,
        [
            [meta(i, b"a", b"z") for i in range(1, 5)],
            [meta(9, b"a", b"z", size=2500)],
        ],
    )
    versions.current = version
    assert versions.level_score(0) == pytest.approx(1.0)
    assert versions.level_score(1) == pytest.approx(2.5)
    level, score = versions.pick_compaction_level()
    assert level == 1
    assert score == pytest.approx(2.5)
