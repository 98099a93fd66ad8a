"""Fixed-size page images.

A page holds a small sorted set of key/value records plus the LSN of the
last update applied to it.  Serialization is exact:

    u64 page_id | u64 page_lsn | u16 record_count |
    record_count * (u32 key, VALUE_LEN value bytes), keys ascending |
    zero padding | u32 crc32 (last 4 bytes, over everything before them)

so an image is always exactly page_size bytes and round-trips bit-for-bit.

A Page in memory holds its records in one array('I'): its n keys in
ascending order, then its n 20-byte (key, value) entries, 5 items each,
exactly as the image stores them.  get, set and delete bisect the first
n items in place; set overwrites a value in place or inserts one key and
one entry.  Encoding is the header, the entries (a view of the array's
tail), the zero pad and the CRC, with no step per record; decoding
checks the CRC, copies the entries into an array sized exactly and
gathers the keys from them with four strided copies.  The entries keep
the image's byte order and the keys the host's, so a big-endian host
swaps only the keys.  Every empty page shares one immutable empty tuple
of records, so it costs only its Page object.
Page.records is a read-only map built on each call, not a second store.
"""

import functools
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from types import MappingProxyType

from .errors import ChecksumError, PageFullError, StorageError

VALUE_LEN = 16

_HEADER = struct.Struct("<QQH")
_ENTRY = struct.Struct(f"<I{VALUE_LEN}s")
_CRC = struct.Struct("<I")
_VALUE = struct.Struct(f"{VALUE_LEN}s")
_KEY_LEN = 4

# A page's records are one array('I'), which must hold a u32 per item:
# its n keys, then its n entries of _ENTRY_WORDS items each.
if array("I").itemsize != _KEY_LEN:
    raise ImportError("segstore.pages needs array('I') items of 4 bytes")
_ENTRY_WORDS = _ENTRY.size // _KEY_LEN
_VALUE_WORDS = VALUE_LEN // _KEY_LEN
_REC_WORDS = 1 + _ENTRY_WORDS
_ZERO = array("I", (0,))

# The records of every empty page: immutable, so an insert must replace
# them rather than grow them.
_NO_RECORDS: tuple = ()


def page_capacity(page_size: int) -> int:
    """Maximum number of records a page of the given size can hold."""
    usable = page_size - _HEADER.size - _CRC.size
    if usable < _ENTRY.size:
        raise StorageError(f"page_size {page_size} too small")
    return usable // _ENTRY.size


@functools.lru_cache(maxsize=8)
def _empty_page_crcs(page_size: int) -> tuple[int, tuple]:
    """The CRC of an empty page with id 0, and 8 tables of 256 values.

    An empty page's image is all zeros but its 8 page-id bytes, and a CRC
    is affine over messages of one length, so the CRC of page pid is
    base ^ tables[0][byte 0 of pid] ^ ... ^ tables[7][byte 7].  Each table
    is linear in its byte and is built from the CRCs of its 8 bits."""
    image = bytearray(page_size - _CRC.size)
    base = zlib.crc32(image)
    tables = []
    for k in range(8):
        bits = []
        for bit in range(8):
            image[k] = 1 << bit
            bits.append(zlib.crc32(image) ^ base)
        image[k] = 0
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ bits[low.bit_length() - 1]
        tables.append(tuple(table))
    return base, tuple(tables)


def empty_page_images(first: int, end: int, page_size: int) -> bytearray:
    """Images of the empty pages [first, end), byte-equal to
    Page(pid).to_bytes(page_size) for each: only the page id and the CRC
    differ from page to page, so they are written into a zeroed buffer
    and the CRC comes from per-byte tables instead of a pass over it."""
    page_capacity(page_size)  # rejects a page too small, as to_bytes does
    base, (t0, t1, t2, t3, t4, t5, t6, t7) = _empty_page_crcs(page_size)
    buf = bytearray((end - first) * page_size)
    crc_at = page_size - _CRC.size
    off = 0
    for pid in range(first, end):
        _HEADER.pack_into(buf, off, pid, 0, 0)
        _CRC.pack_into(buf, off + crc_at,
                       base ^ t0[pid & 0xFF] ^ t1[pid >> 8 & 0xFF] ^ t2[pid >> 16 & 0xFF]
                       ^ t3[pid >> 24 & 0xFF] ^ t4[pid >> 32 & 0xFF] ^ t5[pid >> 40 & 0xFF]
                       ^ t6[pid >> 48 & 0xFF] ^ t7[pid >> 56])
        off += page_size
    return buf


class Page:
    """One page: its id, the LSN of its last update, and its records held
    as the image stores them (see the module docstring)."""

    __slots__ = ("page_id", "page_lsn", "_rec")

    def __init__(self, page_id: int, page_lsn: int = 0, records: Mapping[int, bytes] | None = None):
        self.page_id = page_id
        self.page_lsn = page_lsn
        self._rec = _NO_RECORDS
        if records:
            for key in sorted(records):
                self.set(key, records[key])

    @property
    def records(self) -> Mapping[int, bytes]:
        """A read-only key -> value map of the records, built on each call."""
        rec = self._rec
        n = len(rec) // _REC_WORDS
        entries = rec[n:].tobytes() if n else b""
        return MappingProxyType({key: entries[off:off + VALUE_LEN] for key, off
                                 in zip(rec[:n], range(_KEY_LEN, len(entries), _ENTRY.size))})

    def __len__(self) -> int:
        return len(self._rec) // _REC_WORDS

    def get(self, key: int) -> bytes | None:
        rec = self._rec
        n = len(rec) // _REC_WORDS
        i = bisect_left(rec, key, 0, n)
        if i < n and rec[i] == key:
            at = n + i * _ENTRY_WORDS + 1
            return rec[at:at + _VALUE_WORDS].tobytes()
        return None

    def set(self, key: int, value: bytes, capacity: int | None = None) -> None:
        """Insert or overwrite one record.  An insert beyond capacity
        records raises PageFullError; without a capacity the bound is
        checked when the page is encoded."""
        if len(value) != VALUE_LEN:
            raise StorageError(f"value must be exactly {VALUE_LEN} bytes")
        rec = self._rec
        n = len(rec) // _REC_WORDS
        i = bisect_left(rec, key, 0, n)
        if i < n and rec[i] == key:
            _VALUE.pack_into(rec, (n + i * _ENTRY_WORDS + 1) * _KEY_LEN, value)
            return
        if capacity is not None and n >= capacity:
            raise PageFullError(f"page {self.page_id} full at {capacity} records")
        if not n:  # maybe the shared empty records: replace, never grow them
            self._rec = rec = _ZERO * _REC_WORDS
            rec[0] = key
            _ENTRY.pack_into(rec, _KEY_LEN, key, value)
            return
        at = n + i * _ENTRY_WORDS
        rec[at:at] = array("I", _ENTRY.pack(key, value))
        rec.insert(i, key)

    def delete(self, key: int) -> None:
        rec = self._rec
        n = len(rec) // _REC_WORDS
        i = bisect_left(rec, key, 0, n)
        if i < n and rec[i] == key:
            if n == 1:
                self._rec = _NO_RECORDS
                return
            at = n + i * _ENTRY_WORDS
            del rec[at:at + _ENTRY_WORDS]
            del rec[i]

    def copy(self) -> "Page":
        page = Page(self.page_id, self.page_lsn)
        page._rec = self._rec[:]
        return page

    def to_bytes(self, page_size: int) -> bytes:
        rec = self._rec
        count = len(rec) // _REC_WORDS
        if count > page_capacity(page_size):
            raise PageFullError(f"page {self.page_id} exceeds capacity")
        header = _HEADER.pack(self.page_id, self.page_lsn, count)
        entries = memoryview(rec)[count:] if count else b""
        pad = bytes(page_size - _CRC.size - _HEADER.size - count * _ENTRY.size)
        crc = zlib.crc32(pad, zlib.crc32(entries, zlib.crc32(header)))
        return b"".join((header, entries, pad, _CRC.pack(crc)))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        crc_at = len(data) - _CRC.size
        (stored_crc,) = _CRC.unpack_from(data, crc_at)
        if stored_crc != zlib.crc32(memoryview(data)[:crc_at]):
            page_id = _HEADER.unpack_from(data, 0)[0]
            raise ChecksumError(f"page {page_id} checksum mismatch")
        page_id, page_lsn, count = _HEADER.unpack_from(data, 0)
        page = cls(page_id, page_lsn)
        if count:
            end = _HEADER.size + count * _ENTRY.size
            if end > crc_at:
                raise StorageError(f"page {page_id} holds {count} records, more than fit")
            # Sized exactly, unlike an array grown from bytes.
            page._rec = rec = _ZERO * (count * _REC_WORDS)
            keys_end = count * _KEY_LEN
            raw = memoryview(rec).cast("B")
            raw[keys_end:] = memoryview(data)[_HEADER.size:end]
            for b in range(_KEY_LEN):
                raw[b:keys_end:_KEY_LEN] = data[_HEADER.size + b:end:_ENTRY.size]
            raw.release()
            if sys.byteorder == "big":
                keys = rec[:count]
                keys.byteswap()
                rec[:count] = keys
        return page

    def __eq__(self, other) -> bool:
        return (isinstance(other, Page) and self.page_id == other.page_id
                and self.page_lsn == other.page_lsn and self._rec == other._rec)

    def __repr__(self) -> str:
        return f"Page(id={self.page_id}, lsn={self.page_lsn}, nrec={len(self)})"
