"""Exception hierarchy shared across the engine."""


class StorageError(Exception):
    """Base class for every error raised by this package."""


class MediaFailureError(StorageError):
    """Read or write attempted against a failed device."""


class ChecksumError(StorageError):
    """A page or record image failed checksum validation."""


class InvalidPageIdError(StorageError):
    pass


class PageFullError(StorageError):
    pass


class WalError(StorageError):
    pass


class CorruptRecordError(WalError):
    def __init__(self, offset: int, detail: str = ""):
        self.offset = offset
        msg = f"corrupt log record at offset {offset}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ArchiveError(StorageError):
    pass


class CorruptRunError(ArchiveError):
    def __init__(self, run_name: str, detail: str = ""):
        self.run_name = run_name
        msg = f"corrupt archive run {run_name}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class RestoreError(StorageError):
    pass


class CrashInjected(StorageError):
    """Raised by an armed failpoint to simulate a crash mid-operation."""
