"""Full backups: a copy of the volume file plus a trailer.

A backup image is the volume file byte for byte - the SGRV1 header and
the raw page images - followed by a 13-byte trailer:

    magic "SGBK1" | u64 min_lsn

little-endian, named backup_<min_lsn>.img.  min_lsn is the replay start
point: every update with lsn >= min_lsn is missing from the image,
everything below is in it.  Since pages sit where the volume format puts
them, a BackupImage is a Volume on the backup device, and restore reads
segments straight out of the file with one contiguous read each; it never
stages the whole backup anywhere.

Backups are taken at a quiescent point (the harness pauses the workload
and flushes dirty pages first) and published with failpoints.publish.
The kernel copies the volume file into the shadow file
(os.copy_file_range), so the image's bytes never pass through Python; the
volume device is still charged one read per segment, the transfers a
segment-wise copy would make.

publish fsyncs the shadow file before it renames it.  After a copy of the
whole image that fsync would write every byte of it to disk at once, so
Device.copy_into starts the writeback of each chunk it copies as soon as
it is copied, without waiting for it; the disk writes overlap the rest
of the copy, and the fsync waits only for the last chunk.  Pages still
being written stay in the page cache, so the image is read back from
memory.  How the bytes reach the disk changes no virtual charge.
"""

import os
import struct

from . import failpoints
from .device import Device, DeviceRole, LatencyModel
from .errors import StorageError
from .pages import Page
from .volume import HEADER_SIZE, Geometry, Volume
from .wal import WriteAheadLog

MAGIC = b"SGBK1"
_TRAILER = struct.Struct("<5sQ")


def backup_name(min_lsn: int) -> str:
    return f"backup_{min_lsn}.img"


class BackupImage(Volume):
    def __init__(self, path: str, latency: LatencyModel = LatencyModel()):
        with open(path, "rb") as f:
            geometry = Geometry.from_header(f.read(HEADER_SIZE))
            f.seek(geometry.page_offset(geometry.page_count))
            trailer = f.read(_TRAILER.size)
        if len(trailer) < _TRAILER.size:
            raise StorageError(f"backup trailer cut short: {len(trailer)} < {_TRAILER.size} bytes")
        magic, self.min_lsn = _TRAILER.unpack(trailer)
        if magic != MAGIC:
            raise StorageError(f"bad backup magic {magic!r}")
        super().__init__(Device(DeviceRole.BACKUP, path, latency), geometry)
        self.path = path

    @classmethod
    def create(cls, dir_path: str, volume: Volume, wal: WriteAheadLog,
               latency: LatencyModel = LatencyModel(), now: float = 0.0) -> tuple["BackupImage", float]:
        """Copy every page of the volume; min_lsn is the WAL end at the
        start of the copy.  Caller guarantees quiescence."""
        geo = volume.geometry
        min_lsn = wal.end_lsn()
        # These charges are the set-up carry-over that perfbench's warm
        # window reads; they must not change with how the bytes move.
        t = now
        for seg in range(geo.segment_count):
            first, end = geo.segment_span(seg)
            t = volume.device.charge_read((end - first) * geo.page_size, t)
        size = geo.page_offset(geo.page_count)

        def write(f):
            volume.device.copy_into(f.fileno(), size)
            f.seek(size)
            f.write(_TRAILER.pack(MAGIC, min_lsn))

        path = os.path.join(dir_path, backup_name(min_lsn))
        failpoints.publish(path, write, "backup:pre_rename")
        image = cls(path, latency)
        # Creation read through the volume device, not this one; charge
        # the backup device once for the whole image write.
        t = image.device.charge_write(geo.page_count * geo.page_size, t)
        return image, t

    # Kept in this class body rather than inherited: restore calls it, the
    # benchmark's tracer patches BackupImage.__dict__["fetch_page_span"]
    # by name, and tests inject transfer faults through it.
    def fetch_page_span(self, first: int, end: int, now: float = 0.0) -> tuple[list[Page], float]:
        return self.read_page_span(first, end, now)
