"""Fixed-size page images.

A page holds a small sorted set of key/value records plus the LSN of the
last update applied to it.  Serialization is exact:

    u64 page_id | u64 page_lsn | u16 record_count |
    record_count * (u32 key, VALUE_LEN value bytes), keys ascending |
    zero padding | u32 crc32 (last 4 bytes, over everything before them)

so an image is always exactly page_size bytes and round-trips bit-for-bit.
"""

import functools
import struct
import zlib

from .errors import ChecksumError, PageFullError, StorageError

VALUE_LEN = 16

_HEADER = struct.Struct("<QQH")
_ENTRY = struct.Struct(f"<I{VALUE_LEN}s")
_CRC = struct.Struct("<I")


def page_capacity(page_size: int) -> int:
    """Maximum number of records a page of the given size can hold."""
    usable = page_size - _HEADER.size - _CRC.size
    if usable < _ENTRY.size:
        raise StorageError(f"page_size {page_size} too small")
    return usable // _ENTRY.size


def segment_of(page_id: int, pages_per_segment: int) -> int:
    return page_id // pages_per_segment


def segment_count(page_count: int, pages_per_segment: int) -> int:
    return -(-page_count // pages_per_segment)


def segment_page_span(segment_id: int, pages_per_segment: int, page_count: int) -> tuple[int, int]:
    """Half-open page-id range [first, end) of a segment; the last segment may be short."""
    first = segment_id * pages_per_segment
    if first >= page_count:
        raise StorageError(f"segment {segment_id} out of range")
    return first, min(first + pages_per_segment, page_count)


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
    __slots__ = ("page_id", "page_lsn", "records")

    def __init__(self, page_id: int, page_lsn: int = 0, records: dict[int, bytes] | None = None):
        self.page_id = page_id
        self.page_lsn = page_lsn
        self.records = records if records is not None else {}

    def get(self, key: int) -> bytes | None:
        return self.records.get(key)

    def set(self, key: int, value: bytes, capacity: int) -> None:
        if len(value) != VALUE_LEN:
            raise StorageError(f"value must be exactly {VALUE_LEN} bytes")
        if key not in self.records and len(self.records) >= capacity:
            raise PageFullError(f"page {self.page_id} full at {capacity} records")
        self.records[key] = value

    def delete(self, key: int) -> None:
        self.records.pop(key, None)

    def copy(self) -> "Page":
        return Page(self.page_id, self.page_lsn, dict(self.records))

    def to_bytes(self, page_size: int) -> bytes:
        if len(self.records) > page_capacity(page_size):
            raise PageFullError(f"page {self.page_id} exceeds capacity")
        buf = bytearray(page_size)
        _HEADER.pack_into(buf, 0, self.page_id, self.page_lsn, len(self.records))
        off = _HEADER.size
        for key in sorted(self.records):
            _ENTRY.pack_into(buf, off, key, self.records[key])
            off += _ENTRY.size
        _CRC.pack_into(buf, page_size - _CRC.size, zlib.crc32(bytes(buf[: page_size - _CRC.size])))
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        page_size = len(data)
        (stored_crc,) = _CRC.unpack_from(data, page_size - _CRC.size)
        if stored_crc != zlib.crc32(data[: page_size - _CRC.size]):
            page_id = _HEADER.unpack_from(data, 0)[0]
            raise ChecksumError(f"page {page_id} checksum mismatch")
        page_id, page_lsn, count = _HEADER.unpack_from(data, 0)
        records = {}
        off = _HEADER.size
        for _ in range(count):
            key, value = _ENTRY.unpack_from(data, off)
            records[key] = value
            off += _ENTRY.size
        return cls(page_id, page_lsn, records)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Page) and self.page_id == other.page_id
                and self.page_lsn == other.page_lsn and self.records == other.records)

    def __repr__(self) -> str:
        return f"Page(id={self.page_id}, lsn={self.page_lsn}, nrec={len(self.records)})"
