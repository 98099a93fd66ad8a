"""Fixed-size page images.

A page holds a small sorted set of key/value records plus the LSN of the
last update applied to it.  Serialization is exact:

    u64 page_id | u64 page_lsn | u16 record_count |
    record_count * (u32 key, VALUE_LEN value bytes), keys ascending |
    zero padding | u32 crc32 (last 4 bytes, over everything before them)

so an image is always exactly page_size bytes and round-trips bit-for-bit.
"""

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


def empty_page_images(first: int, end: int, page_size: int) -> bytes:
    """Images of the empty pages [first, end), byte-equal to
    Page(pid).to_bytes(page_size) for each: only the header and the CRC
    differ from page to page, so the zero body is built once."""
    page_capacity(page_size)  # rejects a page too small, as to_bytes does
    body = bytes(page_size - _HEADER.size - _CRC.size)
    parts = []
    for pid in range(first, end):
        head = _HEADER.pack(pid, 0, 0)
        parts += (head, body, _CRC.pack(zlib.crc32(body, zlib.crc32(head))))
    return b"".join(parts)


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
