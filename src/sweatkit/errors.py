"""Exception hierarchy shared by all sweatkit modules.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, OSError -> 3.
"""

from contextlib import contextmanager


class SweatKitError(Exception):
    """Base class for all sweatkit errors."""


class ConfigError(SweatKitError):
    """Invalid run configuration. Carries every validation error found."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DataError(SweatKitError):
    """Bad input data: malformed files, degenerate statistics, etc."""


class FormatError(DataError):
    """A data file violates its declared format."""


class VocabularyError(DataError):
    """Required words are missing from a vocabulary or frequency table."""

    def __init__(self, message, missing=()):
        self.missing = sorted(missing)
        super().__init__(message)


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text. Bytes that are not UTF-8,
    met anywhere while reading, raise a FormatError naming the file. A
    reader of bytes reads ``fh.buffer`` and decodes them itself, strictly:
    its ``UnicodeDecodeError`` is mapped the same way."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
