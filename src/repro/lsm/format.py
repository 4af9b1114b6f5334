"""On-disk encodings shared by the WAL, blocks, SSTables and MANIFEST.

Follows LevelDB's conventions: little-endian fixed ints, varints, and
internal keys of the form ``user_key . (sequence << 8 | value_type)``.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

# Value types (low byte of the packed sequence tag).
TYPE_DELETION = 0x0
TYPE_VALUE = 0x1

MAX_SEQUENCE = (1 << 56) - 1

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")


class CorruptionError(Exception):
    """Raised when a decode fails a structural or CRC check."""


def put_fixed32(value: int) -> bytes:
    return _FIXED32.pack(value & 0xFFFFFFFF)


def get_fixed32(buf: bytes, offset: int = 0) -> int:
    return _FIXED32.unpack_from(buf, offset)[0]


def put_fixed64(value: int) -> bytes:
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def get_fixed64(buf: bytes, offset: int = 0) -> int:
    return _FIXED64.unpack_from(buf, offset)[0]


#: every one- and two-byte encoding (values < 16384), built at import:
#: key and value length prefixes all fall here, so encoding one is an
#: index into an immutable table
_VARINT_TABLE: Tuple[bytes, ...] = tuple(
    bytes((v,)) if v < 0x80 else bytes(((v & 0x7F) | 0x80, v >> 7))
    for v in range(1 << 14)
)


def put_varint(value: int) -> bytes:
    """Encode a non-negative int as a LEB128 varint."""
    if 0 <= value < 0x4000:
        return _VARINT_TABLE[value]
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    remaining = value
    out = bytearray()
    while True:
        byte = remaining & 0x7F
        remaining >>= 7
        if remaining:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    return bytes(out)


def get_varint(buf: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint; returns (value, next_offset)."""
    # fast path: single-byte varint (values < 128)
    if offset < len(buf):
        byte = buf[offset]
        if byte < 0x80:
            return byte, offset + 1
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise CorruptionError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long")


def put_length_prefixed(data: bytes) -> bytes:
    return put_varint(len(data)) + data


def get_length_prefixed(buf: bytes, offset: int = 0) -> Tuple[bytes, int]:
    length, pos = get_varint(buf, offset)
    end = pos + length
    if end > len(buf):
        raise CorruptionError("truncated length-prefixed slice")
    return bytes(buf[pos:end]), end


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# internal keys
# ----------------------------------------------------------------------


def pack_tag(sequence: int, value_type: int) -> int:
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence out of range: {sequence}")
    if value_type not in (TYPE_DELETION, TYPE_VALUE):
        raise ValueError(f"bad value type: {value_type}")
    return (sequence << 8) | value_type


def make_internal_key(user_key: bytes, sequence: int, value_type: int) -> bytes:
    """user_key followed by the 8-byte packed (sequence, type) tag."""
    return user_key + put_fixed64(pack_tag(sequence, value_type))


def parse_internal_key(internal_key: bytes) -> Tuple[bytes, int, int]:
    """Returns (user_key, sequence, value_type)."""
    if len(internal_key) < 8:
        raise CorruptionError("internal key shorter than its tag")
    tag = get_fixed64(internal_key, len(internal_key) - 8)
    return internal_key[:-8], tag >> 8, tag & 0xFF


def internal_key_user_part(internal_key: bytes) -> bytes:
    return internal_key[:-8]


def internal_compare(a: bytes, b: bytes) -> int:
    """LevelDB's internal comparator.

    Orders by user key ascending, then by sequence *descending* so the
    newest version of a key sorts first.
    """
    ua, ub = a[:-8], b[:-8]
    if ua < ub:
        return -1
    if ua > ub:
        return 1
    ta = get_fixed64(a, len(a) - 8)
    tb = get_fixed64(b, len(b) - 8)
    if ta > tb:
        return -1
    if ta < tb:
        return 1
    return 0
