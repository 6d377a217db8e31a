"""Word-embedding spaces, the cosine kernel, and exact nearest-neighbor search."""

from __future__ import annotations

import math
import os
import pickle
import stat
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError, FormatError, VocabularyError, open_text

# Cosine may exceed [-1, 1] by rounding noise only; anything larger means
# broken inputs rather than float overshoot.
_COSINE_OVERSHOOT = 1e-9

# Norms below this have a sum of squares below the smallest normal float.
_SMALL_NORM = math.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class EmbeddingSpace:
    """Immutable word -> vector map with a label and a fixed dimension.

    Vectors are stored as float64 rows of ``matrix`` in vocabulary order;
    ``words`` gives the row order. All vectors are finite with strictly
    positive norm (enforced at construction).
    """

    label: str
    words: tuple[str, ...]
    matrix: np.ndarray
    _index: dict = field(repr=False)
    _unit: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, label: str, words, matrix) -> "EmbeddingSpace":
        # Always a copy, so the caller's array can never change the space.
        matrix = np.array(matrix, dtype=np.float64, order="C")
        words = tuple(words)
        if matrix.ndim != 2 or matrix.shape[0] != len(words):
            raise DataError(
                f"matrix shape {matrix.shape} does not match {len(words)} words"
            )
        if matrix.shape[1] == 0:
            raise DataError("embedding dimension must be positive")
        if len(set(words)) != len(words):
            raise DataError("duplicate words in vocabulary")
        if not np.all(np.isfinite(matrix)):
            raise DataError(f"space '{label}' contains non-finite components")
        return cls._adopt(label, words, matrix)

    @classmethod
    def _adopt(cls, label: str, words, matrix: np.ndarray) -> "EmbeddingSpace":
        """Space owning ``matrix``, which is not copied: a fresh C-ordered
        float64 array of finite rows, one per word of ``words``, all
        distinct, that no one else writes. Rows whose norm reads 0 or inf
        are rejected; ``matrix`` and the unit rows are made read-only."""
        words = tuple(words)
        # A finite row can still square past the float range; its norm reads
        # inf and its unit row would be all zeros. A nonzero row whose
        # squares all underflow reads 0.
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(matrix, axis=1)
        zero = norms == 0.0
        underflow = zero & matrix.any(axis=1) if zero.any() else zero
        for broken, what in ((zero & ~underflow, "zero-norm vector"),
                             (underflow, "vector norm underflows"),
                             (np.isinf(norms), "vector norm overflows")):
            if broken.any():
                bad = sorted(words[i] for i in np.flatnonzero(broken))
                raise DataError(f"{what} for words: {', '.join(bad)}")
        matrix.flags.writeable = False
        unit = _unit_rows(matrix, norms)
        unit.flags.writeable = False
        index = {w: i for i, w in enumerate(words)}
        return cls(label, words, matrix, index, unit)

    @classmethod
    def from_dict(cls, label: str, vectors: dict) -> "EmbeddingSpace":
        words = list(vectors.keys())
        return cls.from_rows(label, words, np.array([vectors[w] for w in words]))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        """Row vector for ``word``; absence is an error, never a default."""
        try:
            return self.matrix[self._index[word]]
        except KeyError:
            raise VocabularyError(
                f"word '{word}' not in vocabulary of space '{self.label}'",
                missing=[word],
            ) from None

    def rows(self, words) -> np.ndarray:
        """Row vectors of ``words`` stacked in order, gathered in one step."""
        try:
            idx = [self._index[w] for w in words]
        except KeyError:
            self.require(words)  # raises, naming every missing word
        return self.matrix[idx]

    def missing(self, words) -> list[str]:
        """Subset of ``words`` absent from this vocabulary, in input order."""
        return [w for w in words if w not in self._index]

    def require(self, words, context: str = "") -> None:
        missing = self.missing(words)
        if missing:
            where = f" ({context})" if context else ""
            raise VocabularyError(
                f"space '{self.label}'{where} is missing words: "
                + ", ".join(sorted(missing)),
                missing=missing,
            )


def _unit_rows(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` divided by its nonzero norm in ``norms``.

    Squares in the subnormal range lose bits, so a norm below
    ``_SMALL_NORM`` is inexact; those rows are normalized again from a copy
    scaled to a largest component of 1.
    """
    unit = rows / norms[:, None]
    small = np.flatnonzero(norms < _SMALL_NORM)
    if len(small):
        scaled = rows[small] / np.abs(rows[small]).max(axis=1)[:, None]
        unit[small] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, clamped only against fp overshoot."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DataError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DataError("cosine undefined for zero-norm vector")
    if np.array_equal(u, v):
        return 1.0
    if min(nu, nv) < _SMALL_NORM:
        u, v = _unit_rows(np.stack([u.ravel(), v.ravel()]),
                          np.array([nu, nv]))
        nu = nv = 1.0
    c = float(np.dot(u, v) / (nu * nv))
    if not math.isfinite(c):
        raise DataError("cosine produced a non-finite value")
    if abs(c) > 1.0:
        if abs(c) > 1.0 + _COSINE_OVERSHOOT:
            raise DataError(f"cosine {c!r} exceeds [-1, 1] beyond fp tolerance")
        c = math.copysign(1.0, c)
    return c


def cosines(space: EmbeddingSpace, words, others) -> np.ndarray:
    """|words| x |others| block of cosine similarities within ``space``.

    Dot products of unit rows, clipped to [-1, 1]. Words whose raw rows are
    identical read exactly 1.0, as they do in ``cosine``.
    """
    space.require([*words, *others])
    i = [space._index[w] for w in words]
    j = [space._index[w] for w in others]
    block = space._unit[i] @ space._unit[j].T
    np.clip(block, -1.0, 1.0, out=block)
    # Identical raw rows have identical unit rows, so only pairs within
    # rounding noise of 1 can be identical.
    for a, b in zip(*np.nonzero(block > 1.0 - _COSINE_OVERSHOOT)):
        if np.array_equal(space.matrix[i[a]], space.matrix[j[b]]):
            block[a, b] = 1.0
    return block


# Largest block of similarities ``nearest_neighbors`` holds at once, in
# bytes: query rows x vocabulary columns of float64. Larger blocks save
# little time and add their size to peak memory.
_NN_BLOCK_BYTES = 1 << 21


def nearest_neighbor(space: EmbeddingSpace, query) -> str:
    """Vocabulary word maximizing cosine with ``query``: the one-query case
    of ``nearest_neighbors``."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise DataError(f"query must be one vector, got shape {query.shape}")
    return nearest_neighbors(space, query[None, :])[0]


def nearest_neighbors(space: EmbeddingSpace, queries) -> list[str]:
    """For each row of ``queries``, the vocabulary word maximizing cosine
    with it.

    Exact scan over the whole vocabulary; ties break to the
    lexicographically smallest word so results are deterministic. The unit
    queries are scored in blocks, one product with the unit rows per block,
    and no block of similarities exceeds ``_NN_BLOCK_BYTES``. Each block
    holds one query per row, so every reduction runs along contiguous
    memory.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != space.dimension:
        raise DataError(
            f"query dimension {queries.shape[1:]} does not match space "
            f"dimension {space.dimension}"
        )
    if len(queries) and len(space) == 0:
        raise DataError("nearest_neighbor on empty space")
    norms = np.linalg.norm(queries, axis=1)
    if np.any(norms == 0.0):
        raise DataError("nearest_neighbor undefined for zero-norm query")
    if not np.isfinite(norms).all():
        raise DataError("nearest_neighbor undefined for query of non-finite norm")
    unit = queries / norms[:, None]
    # Vocabularies of more than one block's floats are scanned in blocks of
    # vocabulary rows too, one query at a time.
    cols = max(1, min(len(space), _NN_BLOCK_BYTES // 8))
    rows = max(1, _NN_BLOCK_BYTES // 8 // cols)
    picks = []
    for r in range(0, len(unit), rows):
        block = unit[r:r + rows]
        best = np.full(len(block), -np.inf)
        pick = np.zeros(len(block), dtype=np.intp)
        for lo in range(0, len(space), cols):
            top, at = _row_best(space, lo, _similarities(
                space._unit[lo:lo + cols], block))
            take = top > best
            for j in np.flatnonzero(top == best):
                take[j] = space.words[at[j]] < space.words[pick[j]]
            best = np.where(take, top, best)
            pick = np.where(take, at, pick)
        picks.extend(pick.tolist())
    return [space.words[i] for i in picks]


def _similarities(unit_rows: np.ndarray, unit_queries: np.ndarray) -> np.ndarray:
    """Queries x rows block of cosines between unit vectors."""
    return unit_queries @ unit_rows.T


def _row_best(space: EmbeddingSpace, lo: int, sims: np.ndarray):
    """Each row's maximum in a block of similarities whose first column is
    vocabulary row ``lo``, and the vocabulary row holding it; among exact
    maxima, the row of the lexicographically smallest word."""
    top = sims.max(axis=1)
    at = sims.argmax(axis=1)
    is_top = sims == top[:, None]
    for j in np.flatnonzero(np.count_nonzero(is_top, axis=1) > 1):
        at[j] = min(np.flatnonzero(is_top[j]),
                    key=lambda i: space.words[lo + i])
    return top, at + lo


# Characters per bulk-parse chunk: large enough to amortize one loadtxt call,
# small enough that the chunk's text adds only a few MB to peak memory.
_CHUNK_CHARS = 1 << 20

# ASCII separators that numpy's float parser strips as whitespace but
# float() rejects; a body holding one is left to the row validator.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def load_word2vec_text(path: str, label: str | None = None) -> EmbeddingSpace:
    """Load a text-format word2vec file.

    First line is ``<vocab_size> <dimension>``; each following line is a word
    and ``dimension`` space-separated components, optionally followed by one
    trailing space (as the original word2vec tool writes). Any malformed row
    aborts the load with its line number.

    The input is read once, files and pipes alike, a chunk of lines at a
    time. Each chunk is parsed in bulk, and the matrix grows with the rows
    read. From the first chunk the bulk parse does not accept, the row-by-row
    validator reads on; it alone raises the ``FormatError`` of a row. One
    UTF-8 byte order mark before the header is skipped.
    """
    # Both parsers checked the shape, the words and every value.
    words, rows = _read_word2vec_text(path)
    return EmbeddingSpace._adopt(_label(path, label), words, rows)


def _label(path: str, label: str | None) -> str:
    if label is None:
        return os.path.splitext(os.path.basename(path))[0]
    return label


def _read_word2vec_text(path: str) -> tuple[dict, np.ndarray]:
    """The words of a word2vec text file, in row order as the keys of a
    dict, and its rows as a fresh C-ordered matrix."""
    with open_text(path) as fh:
        vocab_size, dim = _read_header(fh, path)
        # Words in row order, held as dict keys so a repeat is one lookup.
        words: dict[str, None] = {}
        rows = np.empty((0, dim))
        lineno = 2
        while lines := fh.readlines(_CHUNK_CHARS):
            block = _parse_bulk(lines, dim, words, vocab_size)
            if block is None:
                break
            _append(rows, block)
            lineno += len(lines)
        # Lines are left only after a rejected chunk; from it on, or when
        # rows are missing, the validator reads on and names the defect.
        if lines or len(words) != vocab_size:
            _append(rows, _parse_rows(chain(lines, fh), path, vocab_size, dim,
                                      words, lineno))
    return words, rows


# Smallest file, in bytes, whose parse is worth a second process: a pair of
# spaces is read concurrently only when both files are at least this large.
# Measured with pairs of equal 100-dimension files of 5-decimal components
# (the benchmark's format), each pair loaded by load_word2vec_pair with this
# constant set to 0 and to more than the files, alternately, median of 9 to
# 11 loads, 2 vCPU, BLAS on one thread; three series. At 4.3 MB the fork
# won one series and lost two (0.115-0.206 s against 0.116-0.166 s); at
# 6.4 MB it won both series run (0.16 s against 0.23 s), at 8.6 MB every
# series (0.19-0.25 s against 0.26-0.32 s), and at 17 MB every series
# (0.40-0.49 s against 0.54-0.67 s). The bound sits above the largest size
# without a steady gain.
_CONCURRENT_BYTES = 8 << 20


def load_word2vec_pair(first: tuple, second: tuple) -> tuple:
    """Load two word2vec text files, each given as ``(path, label)``, as
    two ``load_word2vec_text`` calls would, with the same spaces and the
    same first error.

    When this process may use two CPUs, ``os.fork`` exists and both paths
    are distinct regular files of at least ``_CONCURRENT_BYTES``, a forked
    child reads the second file while this process loads the first. The
    child sends back a pickled header, the words and the matrix shape or
    the exception it raised, then the raw matrix bytes, through a pipe.
    Otherwise, or if the fork fails, the two files are loaded here, one
    after the other.
    """
    if not _concurrent(first[0], second[0]):
        return load_word2vec_text(*first), load_word2vec_text(*second)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: both files are read here
        os.close(read_fd)
        os.close(write_fd)
        return load_word2vec_text(*first), load_word2vec_text(*second)
    if pid == 0:
        # The child parses text and calls no BLAS, so threads the parent's
        # BLAS may have started hold nothing it needs; it leaves by
        # os._exit, running none of the parent's exit handlers.
        os.close(read_fd)
        _send_read(write_fd, second[0])  # never returns
    os.close(write_fd)
    try:
        with open(read_fd, "rb", buffering=0) as pipe:
            # The first file is read and adopted before the second is
            # collected, so its error is the one raised, as in a serial load.
            space1 = load_word2vec_text(*first)
            words, rows = _receive_read(pipe, second[0])
    except BaseException:
        import signal  # only here, so that no successful run imports it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    return space1, EmbeddingSpace._adopt(_label(*second), words, rows)


def _concurrent(path1: str, path2: str) -> bool:
    """Whether ``load_word2vec_pair`` reads the second file in a child.

    Each file must be a regular file, so that reading it in another process
    reads the same bytes (a pipe can be read only once), and they must be
    two files (``/dev/stdin`` twice keeps its serial meaning everywhere).
    """
    if _usable_cpus() < 2 or not hasattr(os, "fork"):
        return False
    try:
        st1, st2 = os.stat(path1), os.stat(path2)
    except (OSError, ValueError):  # the serial load raises it in order
        return False
    return (stat.S_ISREG(st1.st_mode) and stat.S_ISREG(st2.st_mode)
            and not os.path.samestat(st1, st2)
            and min(st1.st_size, st2.st_size) >= _CONCURRENT_BYTES)


def _send_read(fd: int, path: str) -> None:
    """Body of the forked reader: reads ``path`` and writes to ``fd`` the
    length of a pickled header, the header, and the matrix bytes; then
    exits the process without unwinding the parent's stack."""
    code = 1
    try:
        try:
            words, rows = _read_word2vec_text(path)
            header = (tuple(words), rows.shape)
        except Exception as exc:
            header, rows = exc, None
        blob = pickle.dumps(header)
        with open(fd, "wb") as out:
            out.write(len(blob).to_bytes(8, "little"))
            out.write(blob)
            if rows is not None:
                out.write(rows.reshape(-1).view(np.uint8))
        code = 0
    finally:
        os._exit(code)


def _receive_read(pipe, path: str) -> tuple[tuple, np.ndarray]:
    """The words and matrix ``_send_read`` wrote for ``path``, or the
    exception it sent, raised here; a reader that ended before sending all
    of it is an ``OSError`` naming ``path``."""
    size = bytearray(8)
    if _fill(pipe, size):
        blob = bytearray(int.from_bytes(size, "little"))
        if _fill(pipe, blob):
            header = pickle.loads(blob)
            if isinstance(header, BaseException):
                raise header
            words, shape = header
            rows = np.empty(shape)
            if _fill(pipe, rows.reshape(-1).view(np.uint8)):
                return words, rows
    raise OSError(f"{path}: the process reading it ended without a result")


def _fill(pipe, buf) -> bool:
    """Whether ``buf`` was filled from ``pipe`` before its end."""
    view = memoryview(buf)
    while view:
        n = pipe.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _read_header(fh, path: str) -> tuple[int, int]:
    parts = fh.readline().removeprefix("\ufeff").split()
    if len(parts) != 2:
        raise FormatError(f"{path}:1: header must be '<vocab_size> <dimension>'")
    try:
        vocab_size, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}:1: non-integer header fields") from None
    # A dimension whose float64 row numpy cannot address is out of range,
    # even with no rows.
    if vocab_size < 0 or not 0 < dim <= sys.maxsize // 8:
        raise FormatError(f"{path}:1: header values out of range")
    return vocab_size, dim


def _parse_bulk(lines: list[str], dim: int, words: dict, vocab_size: int):
    """The rows of ``lines`` as a matrix, their words added to ``words``; or
    None, with ``words`` unchanged, if any row is not plainly well-formed or
    repeats a word, or the rows would exceed ``vocab_size``.

    Accepts only what ``_parse_rows`` accepts, with bit-identical values:
    numpy's loadtxt converts through the same ``PyOS_string_to_double`` as
    ``float()``, strips the same whitespace except ``_SEPARATORS``, and
    rejects what only ``float()`` reads (underscores, non-ASCII digits).
    """
    if len(words) + len(lines) > vocab_size:
        return None
    new: dict[str, None] = {}
    bodies = []
    for line in lines:
        word, _, body = line.rstrip("\n").partition(" ")
        if body.endswith(" "):
            body = body[:-1]
        if not body:
            return None  # loadtxt would skip the row, and warn
        new[word] = None
        bodies.append(body)
    if len(new) != len(lines) or not words.keys().isdisjoint(new):
        return None
    text = "\n".join(bodies)
    if any(c in text for c in _SEPARATORS):
        return None
    try:
        block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ",
                           comments=None, ndmin=2)
    except ValueError:
        return None
    if (block.shape != (len(lines), dim) or not np.isfinite(block).all()
            or not block.any(axis=1).all()):
        return None
    words.update(new)
    return block


def _append(rows: np.ndarray, block) -> None:
    """Extend ``rows`` in place by the rows of ``block``. The buffer is
    reallocated, so the rows read are never held twice."""
    n = len(rows)
    rows.resize((n + len(block), rows.shape[1]), refcheck=False)
    rows[n:] = block


def _parse_rows(lines, path: str, vocab_size: int, dim: int, words: dict,
                start: int) -> np.ndarray:
    """Row-by-row validator for ``lines``, numbered from ``start`` and read
    after the rows of ``words``: the first malformed row raises a
    ``FormatError`` naming its line. Returns the rows read as a matrix and
    adds their words to ``words``."""
    rows: list = []
    for lineno, line in enumerate(lines, start=start):
        if line.strip() == "":
            continue
        fields = line.rstrip("\n").split(" ")
        if len(fields) == dim + 2 and fields[-1] == "" and fields[-2] != "":
            del fields[-1]  # exactly one trailing space
        if len(fields) != dim + 1:
            raise FormatError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}"
            )
        word = fields[0]
        if word in words:
            raise FormatError(f"{path}:{lineno}: duplicate word '{word}'")
        try:
            vec = np.fromiter(map(float, fields[1:]), dtype=np.float64, count=dim)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric component") from None
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{lineno}: non-finite component")
        if not np.any(vec):
            raise FormatError(f"{path}:{lineno}: zero-norm vector for '{word}'")
        if len(words) >= vocab_size:
            raise FormatError(
                f"{path}:{lineno}: row count exceeds declared vocab size "
                f"{vocab_size}"
            )
        words[word] = None
        rows.append(vec)
    if len(words) != vocab_size:
        raise FormatError(
            f"{path}: row count mismatch: header declares {vocab_size}, "
            f"found {len(words)}"
        )
    return np.array(rows, dtype=np.float64).reshape(-1, dim)


# Components per formatting block, about 2 MB of text. The parallel write
# holds at most 2 blocks per worker at once, whatever the vocabulary size.
_BLOCK_FLOATS = 100_000

# The space being saved, set in each forked writer process.
_inherited = None


def save_word2vec_text(space: EmbeddingSpace, path: str) -> None:
    """Write a space in text word2vec format; floats round-trip exactly.

    Blocks of rows are formatted on every CPU this process may use, in
    forked processes that read the space from inherited memory, and written
    in row order, so the file is the same however many CPUs made it.
    """
    step = max(1, _BLOCK_FLOATS // space.dimension)
    blocks = [(lo, min(lo + step, len(space)))
              for lo in range(0, len(space), step)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dimension}\n")
        workers = min(_usable_cpus(), len(blocks))
        if workers < 2 or not hasattr(os, "fork"):
            for lo, hi in blocks:
                fh.write(_format_block(space, lo, hi))
            return
        # Imported here, not at module import, so that no other command
        # pays for it. Forked workers get the space without pickling it and
        # without importing numpy again; they only format floats, call no
        # BLAS, and are forked before the pool starts its own threads.
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        pool = fork.Pool(workers, _inherit, (space,))
        try:
            pending = deque()
            for lo, hi in blocks:
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().get())
                pending.append(pool.apply_async(_format_inherited, (lo, hi)))
            for result in pending:
                fh.write(result.get())
        finally:
            # Closed and joined, never terminated: terminate() races the
            # pool's worker-handler thread, which can fork replacements for
            # workers it sees exit. The at most 2 blocks per worker still
            # queued after a failed write are formatted and dropped.
            pool.close()
            pool.join()


def _format_block(space: EmbeddingSpace, lo: int, hi: int) -> str:
    """Rows ``lo`` to ``hi - 1`` of ``space`` as word2vec text lines."""
    return "".join(
        word + " " + " ".join(repr(c) for c in row) + "\n"
        for word, row in zip(space.words[lo:hi], space.matrix[lo:hi].tolist())
    )


def _inherit(space: EmbeddingSpace) -> None:
    global _inherited
    _inherited = space


def _format_inherited(lo: int, hi: int) -> str:
    return _format_block(_inherited, lo, hi)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1
