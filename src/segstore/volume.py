"""On-disk volume format and segment-wise page I/O.

A volume file is a 21-byte header followed by page_count raw page images:

    magic "SGRV1" | u32 page_size | u64 page_count | u32 pages_per_segment

all little-endian.  Both the database volume and its replacement use this
format; segment reads and writes are single contiguous transfers so the
device cost model charges one fixed delay for the whole segment.  A
replacement starts blank: the header, then zeros that fail every page's
checksum until restore writes the page.
"""

import struct
from dataclasses import dataclass

from .device import Device, DeviceRole, LatencyModel
from .errors import InvalidPageIdError, StorageError
from .pages import Page, empty_page_images

MAGIC = b"SGRV1"
_HEADER = struct.Struct("<5sIQI")
HEADER_SIZE = _HEADER.size
# Volume.create formats at most this many bytes of pages per write.  A
# multi-MiB buffer, once freed, raises glibc's dynamic mmap threshold, and
# later buffers of about 1 MiB (segment reads) then stay on the heap.
FORMAT_SPAN_BYTES = 128 * 1024


@dataclass(frozen=True)
class Geometry:
    page_size: int
    page_count: int
    pages_per_segment: int

    def __post_init__(self):
        if self.page_size <= 0 or self.page_count <= 0 or self.pages_per_segment <= 0:
            raise StorageError("geometry fields must be positive")

    @property
    def segment_count(self) -> int:
        return -(-self.page_count // self.pages_per_segment)

    def segment_of(self, page_id: int) -> int:
        return page_id // self.pages_per_segment

    def segment_span(self, segment_id: int) -> tuple[int, int]:
        """Half-open page-id range [first, end); the last segment may be short."""
        first = segment_id * self.pages_per_segment
        if first >= self.page_count:
            raise StorageError(f"segment {segment_id} out of range")
        return first, min(first + self.pages_per_segment, self.page_count)

    def page_offset(self, page_id: int) -> int:
        return HEADER_SIZE + page_id * self.page_size

    def header_bytes(self) -> bytes:
        return _HEADER.pack(MAGIC, self.page_size, self.page_count, self.pages_per_segment)

    @classmethod
    def from_header(cls, data: bytes) -> "Geometry":
        if len(data) < HEADER_SIZE:
            raise StorageError(f"volume header cut short: {len(data)} < {HEADER_SIZE} bytes")
        magic, page_size, page_count, pps = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise StorageError(f"bad volume magic {magic!r}")
        return cls(page_size, page_count, pps)


def _check_placed(page: Page, page_id: int) -> None:
    """Refuse a page at another page's offset: read back, it would pass
    for the wrong page; written, it would overwrite one."""
    if page.page_id != page_id:
        raise StorageError(f"page {page.page_id} misplaced at page {page_id}")


class Volume:
    def __init__(self, device: Device, geometry: Geometry):
        self.device = device
        self.geometry = geometry

    @classmethod
    def create(cls, path: str, geometry: Geometry, role: DeviceRole = DeviceRole.DATABASE,
               latency: LatencyModel = LatencyModel()) -> "Volume":
        # Fresh pages are serialized empty pages, not raw zeros, so checksums
        # validate from the first read on; set-up, so no device is charged.
        span = max(1, FORMAT_SPAN_BYTES // geometry.page_size)
        with open(path, "wb") as f:
            f.write(geometry.header_bytes())
            for first in range(0, geometry.page_count, span):
                end = min(first + span, geometry.page_count)
                f.write(empty_page_images(first, end, geometry.page_size))
        return cls(Device(role, path, latency), geometry)

    @classmethod
    def blank(cls, path: str, geometry: Geometry,
              latency: LatencyModel = LatencyModel()) -> "Volume":
        """A replacement volume of full length whose pages are all zeros:
        only the header is written, and no page reads as valid until it is
        written.  Restore fills it segment by segment."""
        with open(path, "wb") as f:
            f.write(geometry.header_bytes())
            f.truncate(geometry.page_offset(geometry.page_count))
        return cls(Device(DeviceRole.REPLACEMENT, path, latency), geometry)

    @classmethod
    def open(cls, path: str, role: DeviceRole = DeviceRole.DATABASE,
             latency: LatencyModel = LatencyModel()) -> "Volume":
        with open(path, "rb") as f:
            geometry = Geometry.from_header(f.read(HEADER_SIZE))
        return cls(Device(role, path, latency), geometry)

    def _check_page(self, page_id: int) -> None:
        if not 0 <= page_id < self.geometry.page_count:
            raise InvalidPageIdError(f"page {page_id} out of range")

    def read_page(self, page_id: int, now: float = 0.0) -> tuple[Page, float]:
        self._check_page(page_id)
        data, t = self.device.read(self.geometry.page_offset(page_id), self.geometry.page_size, now)
        page = Page.from_bytes(data)
        _check_placed(page, page_id)
        page.page_id = page_id  # the caller's int, not a second one
        return page, t

    def write_page(self, page: Page, now: float = 0.0) -> float:
        self._check_page(page.page_id)
        return self.device.write(self.geometry.page_offset(page.page_id),
                                 page.to_bytes(self.geometry.page_size), now)

    def read_page_span(self, first: int, end: int, now: float = 0.0) -> tuple[list[Page], float]:
        """Contiguous multi-page read, one transfer."""
        self._check_page(first)
        self._check_page(end - 1)
        ps = self.geometry.page_size
        data, t = self.device.read(self.geometry.page_offset(first), (end - first) * ps, now)
        pages = [Page.from_bytes(data[i * ps:(i + 1) * ps]) for i in range(end - first)]
        for i, page in enumerate(pages):
            _check_placed(page, first + i)
        return pages, t

    def write_page_span(self, first: int, pages: list[Page], now: float = 0.0) -> float:
        self._check_page(first)
        self._check_page(first + len(pages) - 1)
        for i, page in enumerate(pages):
            _check_placed(page, first + i)
        blob = b"".join(p.to_bytes(self.geometry.page_size) for p in pages)
        return self.device.write(self.geometry.page_offset(first), blob, now)

    def close(self) -> None:
        self.device.close()
