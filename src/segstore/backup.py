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
        device = Device(DeviceRole.BACKUP, path, latency)
        try:
            header, _ = device.read(0, HEADER_SIZE)
            super().__init__(device, Geometry.from_header(header))
            trailer, _ = device.read(self.geometry.page_offset(self.geometry.page_count),
                                     _TRAILER.size)
            magic, self.min_lsn = _TRAILER.unpack(trailer)
            if magic != MAGIC:
                raise StorageError(f"bad backup magic {magic!r}")
        except StorageError:
            device.close()
            raise
        self.path = path
        device.reset_accounting()

    @classmethod
    def create(cls, dir_path: str, volume: Volume, wal: WriteAheadLog,
               latency: LatencyModel = LatencyModel(), now: float = 0.0) -> tuple["BackupImage", float]:
        """Copy every page of the volume; min_lsn is the durable WAL end at
        the start of the copy.  Caller guarantees quiescence."""
        geo = volume.geometry
        min_lsn = wal.durable_lsn()
        if min_lsn != wal.end_lsn():
            raise StorageError("backup requires a fully flushed WAL")
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
