"""Data and index blocks.

A block is a flat sequence of ``[klen varint | vlen varint | key | value]``
entries in key order, followed by a fixed32 entry count. (LevelDB adds
prefix compression and restart points; flat entries keep decode simple
while preserving sizes to within a few percent, which is all the device
model consumes.)

Hot-path note — the decode bypass cache: compactions read back blocks
the simulation itself just built, so :meth:`BlockBuilder.finish`
registers its (encoded bytes -> decoded lists) pair in a bounded
content-keyed cache and :meth:`Block.decode` consults it before parsing.
The key is the full encoded payload, so a hit is correct by *content
equality* regardless of which file the bytes came from; virtual-time
charges (``block_decode_ns``, device reads) are made by the callers and
are identical on hit and miss. Misses (WAL-replayed blocks, recovery
reads, corrupt data) fall through to the real parser.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.lsm.format import (
    CorruptionError,
    get_fixed32,
    get_varint,
    put_fixed32,
    put_varint,
)

#: encoded block bytes -> decoded Block; bounded FIFO (recently built
#: blocks are the ones compactions read back)
_DECODE_CACHE: "OrderedDict[bytes, Block]" = OrderedDict()
_DECODE_CACHE_CAPACITY = 8192


class BlockBuilder:
    """Accumulates sorted (key, value) entries into one block.

    Entries are encoded as they arrive — ``add`` appends the varint
    length prefixes alongside key and value, so ``finish`` is a single
    ``join`` instead of a second pass over every entry.
    """

    __slots__ = ("_keys", "_values", "_parts", "_bytes")

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._values: List[bytes] = []
        self._parts: List[bytes] = []
        self._bytes = 0

    @property
    def empty(self) -> bool:
        return not self._keys

    @property
    def _count(self) -> int:
        return len(self._keys)

    @property
    def size_estimate(self) -> int:
        return self._bytes + 4

    @property
    def last_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def add(self, key: bytes, value: bytes) -> int:
        """Append an entry; returns the new :attr:`size_estimate`.

        Ordering is the caller's contract: data blocks hold *internal*
        keys, whose order (user key asc, sequence desc) differs from raw
        byte order, so the table builder validates with the internal
        comparator before calling here. The returned size lets hot
        callers check their block-cut condition without a second call.
        """
        klen_enc = put_varint(len(key))
        vlen_enc = put_varint(len(value))
        self._keys.append(key)
        self._values.append(value)
        parts = self._parts
        parts.append(klen_enc)
        parts.append(vlen_enc)
        parts.append(key)
        parts.append(value)
        size = (
            self._bytes
            + len(klen_enc) + len(vlen_enc) + len(key) + len(value)
        )
        self._bytes = size
        return size + 4

    def finish(self) -> bytes:
        keys = self._keys
        self._parts.append(put_fixed32(len(keys)))
        block = b"".join(self._parts)
        # register the decode bypass: the simulation will read this very
        # payload back during compaction
        cache = _DECODE_CACHE
        cache[block] = Block(keys, self._values)
        if len(cache) > _DECODE_CACHE_CAPACITY:
            cache.popitem(last=False)
        self.reset()
        return block

    def reset(self) -> None:
        self._keys = []
        self._values = []
        self._parts = []
        self._bytes = 0


class Block:
    """A decoded block: parallel key/value lists, binary-searchable."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: List[bytes], values: List[bytes]) -> None:
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        cached = _DECODE_CACHE.get(data)
        if cached is not None:
            return cached
        data_len = len(data)
        if data_len < 4:
            raise CorruptionError("block shorter than its trailer")
        count = get_fixed32(data, data_len - 4)
        body_len = data_len - 4
        keys: List[bytes] = []
        values: List[bytes] = []
        append_key = keys.append
        append_value = values.append
        pos = 0
        for _ in range(count):
            # inline varint decode: one- and two-byte lengths (every key,
            # and every value under 16 KiB) never leave this loop
            if pos < body_len:
                klen = data[pos]
                if klen < 0x80:
                    pos += 1
                elif pos + 1 < body_len and data[pos + 1] < 0x80:
                    klen = (klen & 0x7F) | (data[pos + 1] << 7)
                    pos += 2
                else:
                    klen, pos = get_varint(data, pos)
            else:
                raise CorruptionError("block entry truncated")
            if pos < body_len:
                vlen = data[pos]
                if vlen < 0x80:
                    pos += 1
                elif pos + 1 < body_len and data[pos + 1] < 0x80:
                    vlen = (vlen & 0x7F) | (data[pos + 1] << 7)
                    pos += 2
                else:
                    vlen, pos = get_varint(data, pos)
            else:
                raise CorruptionError("block entry truncated")
            end_key = pos + klen
            end_val = end_key + vlen
            if end_val > body_len:
                raise CorruptionError("block entry truncated")
            append_key(data[pos:end_key])
            append_value(data[end_key:end_val])
            pos = end_val
        if pos != body_len:
            raise CorruptionError("trailing garbage in block")
        return cls(keys, values)

    def entries(self) -> List[Tuple[bytes, bytes]]:
        return list(zip(self.keys, self.values))


def clear_decode_cache() -> None:
    """Drop every cached (bytes -> Block) pair (tests, memory pressure)."""
    _DECODE_CACHE.clear()
