"""Exception hierarchy shared by all sweatkit modules, and how they open files.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, OSError -> 3.
"""

import json
import os
import stat
from contextlib import contextmanager, suppress
from itertools import count


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
    """Open ``path`` for reading as UTF-8 text. One UTF-8 byte order mark
    at the start of the file is skipped. Bytes that are not UTF-8, met
    anywhere while reading, raise a FormatError naming the file. A reader
    of bytes reads ``fh.buffer`` and decodes them itself, strictly: a
    ``UnicodeDecodeError`` it lets pass is mapped the same way."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.buffer.peek(3)[:3] == b"\xef\xbb\xbf":
                fh.buffer.read(3)
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def read_json(path, parse_float=None):
    """The JSON document in ``path``, read through ``open_text``. Malformed
    JSON, a number past int()'s digit limit, and JSON nested too deeply to
    decode raise a FormatError naming the file."""
    try:
        with open_text(path) as fh:
            return json.load(fh, parse_float=parse_float)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


@contextmanager
def _replacing(path: str):
    """A binary file to write ``path`` through.

    When ``path`` is absent or a regular file, the bytes go to a new file
    beside it, with its permission bits, that replaces it when the block
    ends and is removed if the block raises. A symbolic link is followed:
    the file it names is replaced. Anything else at ``path`` (a device, a
    FIFO, ``/dev/stdout``), or a directory that takes no new file, is
    written in place. A process killed outright cannot remove its new
    file, ``.<name>.<pid>-<n>.tmp``, but leaves ``path`` whole.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    except (OSError, ValueError):
        mode = 0  # of no file type: open raises the error, naming path
    created = None
    if mode is None or stat.S_ISREG(mode):
        real = os.path.realpath(path)
        created = _create_beside(real)
    if created is None:
        with open(path, "wb") as fh:
            yield fh
        return
    fd, tmp = created
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, real)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _create_beside(real: str):
    """``(fd, name)`` of a new empty file in the directory of ``real``,
    named after it, or None if none can be made there."""
    head, tail = os.path.split(real)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for n in count():
        tmp = os.path.join(head, f".{tail}.{os.getpid()}-{n}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:  # left by another process: take the next
            continue
        except OSError:
            return None
