"""Versions, version edits and the MANIFEST.

A :class:`Version` is an immutable snapshot of which SSTable files make
up each level. Compactions produce :class:`VersionEdit` deltas which the
:class:`VersionSet` logs to the MANIFEST file and applies to produce the
next current version — exactly LevelDB's scheme. The MANIFEST append is
what makes a compaction's outcome durable; whether it is *synced* or left
to Ext4's asynchronous commit is the difference between LevelDB and
NobLSM.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.fs.ext4 import Ext4, File
from repro.lsm.filenames import current_file_name, manifest_file_name
from repro.lsm.format import (
    CorruptionError,
    crc32,
    get_fixed32,
    get_length_prefixed,
    get_varint,
    put_fixed32,
    put_length_prefixed,
    put_varint,
)
from repro.lsm.options import Options

# VersionEdit field tags (subset of LevelDB's)
_TAG_LOG_NUMBER = 2
_TAG_NEXT_FILE = 3
_TAG_LAST_SEQ = 4
_TAG_COMPACT_POINTER = 5
_TAG_DELETED_FILE = 6
_TAG_NEW_FILE = 7


@dataclass
class FileMetaData:
    """One SSTable file in some level."""

    number: int
    file_size: int
    smallest: bytes  # internal key
    largest: bytes  # internal key
    ino: int = -1  # simulated inode, used by NobLSM's check_commit
    allowed_seeks: int = 100
    shadow: bool = False  # NobLSM: compacted, retained as backup only

    def user_range(self) -> Tuple[bytes, bytes]:
        return self.smallest[:-8], self.largest[:-8]


@dataclass
class VersionEdit:
    """A delta between two versions."""

    log_number: Optional[int] = None
    next_file_number: Optional[int] = None
    last_sequence: Optional[int] = None
    compact_pointers: List[Tuple[int, bytes]] = field(default_factory=list)
    deleted_files: List[Tuple[int, int]] = field(default_factory=list)
    new_files: List[Tuple[int, FileMetaData]] = field(default_factory=list)

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.append((level, number))

    def encode(self) -> bytes:
        parts: List[bytes] = []
        if self.log_number is not None:
            parts.append(put_varint(_TAG_LOG_NUMBER))
            parts.append(put_varint(self.log_number))
        if self.next_file_number is not None:
            parts.append(put_varint(_TAG_NEXT_FILE))
            parts.append(put_varint(self.next_file_number))
        if self.last_sequence is not None:
            parts.append(put_varint(_TAG_LAST_SEQ))
            parts.append(put_varint(self.last_sequence))
        for level, key in self.compact_pointers:
            parts.append(put_varint(_TAG_COMPACT_POINTER))
            parts.append(put_varint(level))
            parts.append(put_length_prefixed(key))
        for level, number in self.deleted_files:
            parts.append(put_varint(_TAG_DELETED_FILE))
            parts.append(put_varint(level))
            parts.append(put_varint(number))
        for level, meta in self.new_files:
            parts.append(put_varint(_TAG_NEW_FILE))
            parts.append(put_varint(level))
            parts.append(put_varint(meta.number))
            parts.append(put_varint(meta.file_size))
            parts.append(put_length_prefixed(meta.smallest))
            parts.append(put_length_prefixed(meta.largest))
            parts.append(put_varint(max(meta.ino, 0)))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "VersionEdit":
        edit = cls()
        pos = 0
        while pos < len(data):
            tag, pos = get_varint(data, pos)
            if tag == _TAG_LOG_NUMBER:
                edit.log_number, pos = get_varint(data, pos)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, pos = get_varint(data, pos)
            elif tag == _TAG_LAST_SEQ:
                edit.last_sequence, pos = get_varint(data, pos)
            elif tag == _TAG_COMPACT_POINTER:
                level, pos = get_varint(data, pos)
                key, pos = get_length_prefixed(data, pos)
                edit.compact_pointers.append((level, key))
            elif tag == _TAG_DELETED_FILE:
                level, pos = get_varint(data, pos)
                number, pos = get_varint(data, pos)
                edit.deleted_files.append((level, number))
            elif tag == _TAG_NEW_FILE:
                level, pos = get_varint(data, pos)
                number, pos = get_varint(data, pos)
                size, pos = get_varint(data, pos)
                smallest, pos = get_length_prefixed(data, pos)
                largest, pos = get_length_prefixed(data, pos)
                ino, pos = get_varint(data, pos)
                edit.new_files.append(
                    (level, FileMetaData(number, size, smallest, largest, ino))
                )
            else:
                raise CorruptionError(f"unknown version-edit tag {tag}")
        return edit


_file_size = operator.attrgetter("file_size")


def _non_decreasing(keys: List[bytes]) -> bool:
    return all(map(operator.le, keys, keys[1:]))


class _LevelIndex(NamedTuple):
    """What a version computes once about one level's file list."""

    bytes: int
    smallest: List[bytes]  # user keys, in file order
    largest: List[bytes]
    #: both key arrays ascend, so a key range is one bisected slice
    bisectable: bool


def _index_level(level: int, files: List[FileMetaData]) -> _LevelIndex:
    smallest = [f.smallest[:-8] for f in files]
    largest = [f.largest[:-8] for f in files]
    # LevelDB's levels >= 1 are disjoint, so both key arrays ascend;
    # PebblesDB's fragmented levels overlap and keep the linear scan
    return _LevelIndex(
        sum(map(_file_size, files)),
        smallest,
        largest,
        level > 0 and _non_decreasing(smallest) and _non_decreasing(largest),
    )


class Version:
    """An immutable snapshot of each level's files, finalized once.

    The per-level file lists are taken at construction (levels missing
    from the end are empty) and never change afterwards; the version
    owns them, and versions share the lists of levels an edit did not
    touch. Level 0 is ordered by file number, deeper levels by smallest
    key. Everything the picker and point gets ask of a version is
    computed here, once — LevelDB's ``VersionSet::Finalize``:

    - per-level byte totals and the live (non-shadow) level-0 count;
    - each level's compaction score, and the compaction-worthy levels in
      picker order (best score first, ties by level);
    - per-level arrays of smallest and largest user keys, so lookups in
      a level whose ranges are sorted are a bisect (LevelDB's
      ``FindFile``).

    Given the version it was edited from as ``base``, a level whose list
    is shared with ``base`` takes its index from there instead of
    rebuilding it.

    A file's ``shadow`` flag is read here too. NobLSM sets it only on
    compaction inputs, after the edit that removes them is installed, so
    no file of the current version is ever a shadow.
    """

    __slots__ = (
        "files",
        "scores",
        "compaction_levels",
        "l0_live_count",
        "l0_live_bytes",
        "_index",
        "_l0_search",
        "_deep_search",
    )

    def __init__(
        self,
        options: Options,
        files: Sequence[List[FileMetaData]] = (),
        base: Optional["Version"] = None,
    ) -> None:
        levels = tuple(files) + tuple(
            [] for _ in range(options.num_levels - len(files))
        )
        self.files: Tuple[List[FileMetaData], ...] = levels
        index = self._index = [
            base._index[level]
            if base is not None and base.files[level] is level_files
            else _index_level(level, level_files)
            for level, level_files in enumerate(levels)
        ]
        live_l0 = [
            (f, lo, hi)
            for f, lo, hi in zip(levels[0], index[0].smallest, index[0].largest)
            if not f.shadow
        ]
        self.l0_live_count = len(live_l0)
        self.l0_live_bytes = sum(f.file_size for f, _, _ in live_l0)
        # point-get candidates: live level-0 files newest first, then
        # one bisect per populated deeper level
        live_l0.sort(key=lambda entry: entry[0].number, reverse=True)
        self._l0_search = live_l0
        self._deep_search = [
            (level, levels[level], index[level].smallest, index[level].largest)
            for level in range(1, len(levels))
            if levels[level]
        ]
        scores = [self.l0_live_count / float(options.l0_compaction_trigger)]
        scores.extend(
            index[level].bytes / options.max_bytes_for_level(level)
            for level in range(1, options.num_levels - 1)
        )
        self.scores: Tuple[float, ...] = tuple(scores)
        self.compaction_levels: Tuple[int, ...] = tuple(
            sorted(
                (level for level, score in enumerate(scores) if score > 0.999999),
                key=lambda level: (-scores[level], level),
            )
        )

    def level_bytes(self, level: int) -> int:
        return self._index[level].bytes

    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def all_file_numbers(self) -> List[int]:
        return [f.number for level in self.files for f in level]

    def overlapping_inputs(
        self, level: int, begin: Optional[bytes], end: Optional[bytes]
    ) -> List[FileMetaData]:
        """Files in ``level`` whose user-key range intersects [begin, end].

        ``None`` leaves that side unbounded. A level with sorted ranges
        maps the range to one bisected slice. Level 0 (overlapping
        files) is scanned and the range expanded until it is stable, as
        LevelDB does.
        """
        files = self.files[level]
        _, smallest, largest, bisectable = self._index[level]
        if bisectable:
            lo = 0 if begin is None else bisect.bisect_left(largest, begin)
            hi = (
                len(files) if end is None else bisect.bisect_right(smallest, end)
            )
            return files[lo:hi]
        inputs: List[FileMetaData] = []
        user_begin, user_end = begin, end
        i = 0
        while i < len(files):
            f_begin = smallest[i]
            f_end = largest[i]
            i += 1
            if user_end is not None and f_begin > user_end:
                continue
            if user_begin is not None and f_end < user_begin:
                continue
            inputs.append(files[i - 1])
            if level == 0:
                if user_begin is not None and f_begin < user_begin:
                    user_begin = f_begin
                    inputs = []
                    i = 0
                elif user_end is not None and f_end > user_end:
                    user_end = f_end
                    inputs = []
                    i = 0
        return inputs

    def pick_level_for_memtable_output(
        self, smallest_user: bytes, largest_user: bytes, options: Options
    ) -> int:
        """Push a new L0 table deeper when nothing overlaps (LevelDB)."""
        level = 0
        if not self._overlaps(0, smallest_user, largest_user):
            max_level = min(2, options.num_levels - 2)
            while level < max_level:
                if self._overlaps(level + 1, smallest_user, largest_user):
                    break
                overlaps = self.overlapping_inputs(
                    level + 2, smallest_user, largest_user
                ) if level + 2 < len(self.files) else []
                if sum(f.file_size for f in overlaps) > (
                    options.grandparent_overlap_limit()
                ):
                    break
                level += 1
        return level

    def _overlaps(self, level: int, begin: bytes, end: bytes) -> bool:
        return bool(self.overlapping_inputs(level, begin, end))

    def files_for_get(self, user_key: bytes) -> List[Tuple[int, FileMetaData]]:
        """Files that may hold ``user_key``, in LevelDB search order.

        Level-0 files newest-first, then one candidate per deeper level.
        Shadow files are skipped — they no longer serve reads
        (Section 4.3 of the paper).
        """
        candidates = [
            (0, f) for f, lo, hi in self._l0_search if lo <= user_key <= hi
        ]
        for level, files, smallest, largest in self._deep_search:
            pos = bisect.bisect_left(largest, user_key)
            if pos < len(files) and smallest[pos] <= user_key:
                f = files[pos]
                if not f.shadow:
                    candidates.append((level, f))
        return candidates


def _edited_levels(
    levels: Sequence[List[FileMetaData]], edit: VersionEdit
) -> List[List[FileMetaData]]:
    """The per-level file lists after ``edit``, ``levels`` left unchanged.

    Each level the edit touches is rebuilt once: its deletions filtered
    out, its additions appended and the level sorted once (level 0 by
    file number, deeper levels by smallest key). Untouched levels keep
    their list objects.
    """
    deleted: Dict[int, "set[int]"] = {}
    for level, number in edit.deleted_files:
        deleted.setdefault(level, set()).add(number)
    added: Dict[int, List[FileMetaData]] = {}
    for level, meta in edit.new_files:
        added.setdefault(level, []).append(meta)
    out = list(levels)
    for level in deleted.keys() | added.keys():
        gone = deleted.get(level, ())
        files = [f for f in out[level] if f.number not in gone]
        new = added.get(level)
        if new:
            files.extend(new)
            if level > 0:
                files.sort(key=lambda f: f.smallest)
            else:
                files.sort(key=lambda f: f.number)
        out[level] = files
    return out


class VersionSet:
    """Tracks the current version and logs edits to the MANIFEST."""

    def __init__(self, fs: Ext4, dbname: str, options: Options) -> None:
        self.fs = fs
        self.dbname = dbname
        self.options = options
        self.current = Version(options)
        self.next_file_number = 2
        self.last_sequence = 0
        self.log_number = 0
        self.manifest_file_number = 1
        self.compact_pointer: Dict[int, bytes] = {}
        self._manifest: Optional[File] = None
        self.manifest_writes = 0
        #: recovery hook: returns False for a referenced file that did not
        #: survive the crash (NobLSM's async-committed successors)
        self.validate_new_file: Optional[Callable[[FileMetaData], bool]] = None
        self.skipped_edits = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    def reuse_file_number(self, number: int) -> None:
        if number == self.next_file_number - 1:
            self.next_file_number = number

    # ------------------------------------------------------------------
    # manifest persistence
    # ------------------------------------------------------------------

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return put_fixed32(crc32(payload)) + put_fixed32(len(payload)) + payload

    def create_manifest(self, at: int) -> int:
        """Write a fresh MANIFEST holding a full snapshot, point CURRENT."""
        number = self.new_file_number()
        self.manifest_file_number = number
        path = manifest_file_name(self.dbname, number)
        handle, t = self.fs.create(path, at=at)
        self._manifest = handle
        snapshot = VersionEdit(
            log_number=self.log_number,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
        )
        for level, files in enumerate(self.current.files):
            for meta in files:
                snapshot.add_file(level, meta)
        for level, key in self.compact_pointer.items():
            snapshot.compact_pointers.append((level, key))
        t = handle.append(self._frame(snapshot.encode()), at=t)
        t = self._set_current(number, t)
        return t

    def _set_current(self, manifest_number: int, at: int) -> int:
        tmp_path = f"{self.dbname}/CURRENT.dbtmp"
        if self.fs.exists(tmp_path):
            self.fs.unlink(tmp_path, at=at)
        tmp, t = self.fs.create(tmp_path, at=at)
        t = tmp.append(
            f"MANIFEST-{manifest_number:06d}\n".encode(), at=t
        )
        if self.options.sync.sync_manifest:
            t = tmp.fsync(at=t, reason="current")
        current = current_file_name(self.dbname)
        if self.fs.exists(current):
            self.fs.unlink(current, at=t)
        return self.fs.rename(tmp_path, current, at=t)

    def log_and_apply(self, edit: VersionEdit, at: int) -> int:
        """LevelDB's LogAndApply: persist the edit, install the version."""
        if edit.log_number is None:
            edit.log_number = self.log_number
        else:
            self.log_number = edit.log_number
        edit.next_file_number = self.next_file_number
        edit.last_sequence = self.last_sequence
        t = at
        if self._manifest is None:
            t = self.create_manifest(t)
        for level, key in edit.compact_pointers:
            self.compact_pointer[level] = key
        t = self._manifest.append(self._frame(edit.encode()), at=t)
        if self.options.sync.sync_manifest:
            t = self._manifest.fsync(at=t, reason="manifest")
        self.manifest_writes += 1
        self.current = Version(
            self.options,
            _edited_levels(self.current.files, edit),
            base=self.current,
        )
        return t

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, at: int) -> int:
        """Rebuild state from CURRENT + MANIFEST after open/crash."""
        current_path = current_file_name(self.dbname)
        handle, t = self.fs.open(current_path, at=at)
        name, t2 = handle.read(0, handle.size, at=t)
        t = t2
        manifest_name = name.decode().strip()
        manifest_path = f"{self.dbname}/{manifest_name}"
        manifest, t = self.fs.open(manifest_path, at=t)
        self.manifest_file_number = int(manifest_name.split("-")[1])
        # First pass: decode every intact record.
        edits: List[VersionEdit] = []
        offset = 0
        size = manifest.size
        while offset + 8 <= size:
            header, t = manifest.read(offset, 8, at=t)
            expected = get_fixed32(header, 0)
            length = get_fixed32(header, 4)
            if offset + 8 + length > size:
                break  # torn tail: ignore, like LevelDB's reader
            payload, t = manifest.read(offset + 8, length, at=t)
            if crc32(payload) != expected:
                break
            edits.append(VersionEdit.decode(payload))
            offset += 8 + length

        # Second pass: apply, rolling back edits whose outputs were lost.
        invalid = self._invalid_edits(edits)
        levels: List[List[FileMetaData]] = [
            [] for _ in range(self.options.num_levels)
        ]
        for index, edit in enumerate(edits):
            # scalar metadata is always safe to absorb
            if edit.log_number is not None:
                self.log_number = edit.log_number
            if edit.next_file_number is not None:
                self.next_file_number = edit.next_file_number
            if edit.last_sequence is not None:
                self.last_sequence = edit.last_sequence
            for level, key in edit.compact_pointers:
                self.compact_pointer[level] = key
            if index in invalid:
                # This compaction's outputs did not survive the crash (or
                # it consumed outputs that didn't): skip it, keeping its
                # inputs live — they were retained on disk exactly for
                # this fallback (NobLSM Section 4.4).
                self.skipped_edits += 1
                continue
            levels = _edited_levels(levels, edit)
        self.current = Version(self.options, levels)
        # the recovered manifest's own number was allocated before some
        # of the edits recorded next_file_number (MarkFileNumberUsed)
        self.next_file_number = max(
            self.next_file_number, self.manifest_file_number + 1, self.log_number + 1
        )
        # LevelDB starts a fresh MANIFEST (full snapshot) on open rather
        # than appending to the recovered one; the old manifest becomes
        # obsolete once CURRENT points at the new file.
        self._manifest = None
        t = self.create_manifest(t)
        return t

    def _invalid_edits(self, edits: List[VersionEdit]) -> "set[int]":
        """Indices of the recovered edits that must be rolled back.

        An edit is invalid if any SSTable it adds fails validation (and
        was not legitimately consumed by a later edit), or — cascading —
        if it consumed a file added by an earlier invalid edit: its
        outputs were derived from data that never became durable, and
        applying it would let the restored inputs of the earlier edit
        shadow newer versions.

        A file deleted by a later edit was *consumed* by a further
        compaction; NobLSM only deletes consumed files after their
        successors committed, so its absence from disk is expected —
        but only if that consuming edit is itself applied. Rolling an
        edit back voids its deletions, which can expose a never-durable
        file it consumed, so the rollback iterates to a fixed point. A
        delete that the same edit re-adds is a trivial move, not a
        consumption: the moved file must still be on disk.
        """
        invalid: "set[int]" = set()
        if self.validate_new_file is None:
            return invalid
        while True:
            deleted_later = {
                number
                for index, edit in enumerate(edits)
                if index not in invalid
                for number in {n for _, n in edit.deleted_files}
                - {meta.number for _, meta in edit.new_files}
            }
            found: "set[int]" = set()
            invalid_numbers: "set[int]" = set()
            for index, edit in enumerate(edits):
                if any(
                    number in invalid_numbers
                    for _, number in edit.deleted_files
                ) or any(
                    meta.number not in deleted_later
                    and not self.validate_new_file(meta)
                    for _, meta in edit.new_files
                ):
                    found.add(index)
                    invalid_numbers.update(
                        meta.number for _, meta in edit.new_files
                    )
            if found == invalid:
                return invalid
            invalid = found

    def level_score(self, level: int) -> float:
        """LevelDB's compaction score (>= 1.0 means 'needs compaction')."""
        return self.current.scores[level]

    def pick_compaction_level(self) -> Tuple[Optional[int], float]:
        """The level with the highest score, if any reaches 1.0."""
        levels = self.current.compaction_levels
        if not levels:
            return None, 0.999999
        return levels[0], self.current.scores[levels[0]]
