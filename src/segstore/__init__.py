"""segstore: a page store with write-ahead logging, online log archiving
into indexed sorted runs, and segment-granular on-demand media recovery,
plus a failure-injecting benchmark harness."""

from .archive import ArchiveDirectory, LogArchiver
from .backup import BackupImage
from .bench import measure_archiving_overhead, run_benchmark, verify_equivalence
from .bufferpool import BufferPool
from .device import Device, DeviceRole, LatencyModel
from .errors import StorageError
from .pages import Page
from .restore import Policy, RestoreManager, replay
from .volume import Geometry, Volume
from .wal import LogRecord, WriteAheadLog
from .workload import WorkloadConfig, ZipfianGenerator

__version__ = "0.1.0"

__all__ = [
    "ArchiveDirectory", "BackupImage", "BufferPool", "Device", "DeviceRole",
    "Geometry", "LatencyModel", "LogArchiver", "LogRecord", "Page", "Policy",
    "RestoreManager", "StorageError", "Volume",
    "WorkloadConfig", "WriteAheadLog", "ZipfianGenerator",
    "measure_archiving_overhead", "replay", "run_benchmark", "verify_equivalence",
]
