"""Word-embedding spaces, the cosine kernel, and exact nearest-neighbor search."""

from __future__ import annotations

import math
import os
import pickle
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (DataError, FormatError, VocabularyError, _replacing,
                     open_text)

# Cosines of unit rows exceed [-1, 1] by rounding noise only, far below this.
_COSINE_OVERSHOOT = 1e-9

# Norms below this have a sum of squares below the smallest normal float.
_SMALL_NORM = math.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class EmbeddingSpace:
    """Immutable word -> vector map with a label and a fixed dimension.

    Vectors are stored as float64 rows of ``matrix`` in vocabulary order;
    ``words`` gives the row order, and ``_norms`` holds each row's norm. All
    vectors are finite with strictly positive norm (enforced at
    construction).
    """

    label: str
    words: tuple[str, ...]
    matrix: np.ndarray
    _index: dict = field(repr=False)
    _norms: np.ndarray = field(repr=False)

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
        are rejected; ``matrix`` and the norms are made read-only."""
        words = tuple(words)
        # A finite row can still square past the float range; its norm reads
        # inf and its unit row would be all zeros. A nonzero row whose
        # squares all underflow reads 0. Taken a vocabulary block at a time,
        # so the squares never fill a second matrix.
        norms = np.empty(len(matrix))
        step = _block_rows(matrix.shape[1])
        with np.errstate(over="ignore"):
            for lo in range(0, len(matrix), step):
                norms[lo:lo + step] = np.linalg.norm(matrix[lo:lo + step],
                                                     axis=1)
        zero = norms == 0.0
        underflow = zero & matrix.any(axis=1) if zero.any() else zero
        for broken, what in ((zero & ~underflow, "zero-norm vector"),
                             (underflow, "vector norm underflows"),
                             (np.isinf(norms), "vector norm overflows")):
            if broken.any():
                bad = sorted(words[i] for i in np.flatnonzero(broken))
                raise DataError(f"{what} for words: {', '.join(bad)}")
        matrix.flags.writeable = False
        norms.flags.writeable = False
        index = dict(zip(words, range(len(words))))
        return cls(label, words, matrix, index, norms)

    @classmethod
    def from_dict(cls, label: str, vectors: dict) -> "EmbeddingSpace":
        words = list(vectors.keys())
        return cls.from_rows(label, words, np.array([vectors[w] for w in words]))

    @property
    def _unit(self) -> np.ndarray:
        """Every row divided by its norm: a read-only array made on each
        read, for checks; the searches normalize only the rows they use."""
        unit = _unit_rows(self.matrix, self._norms)
        unit.flags.writeable = False
        return unit

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


def _cosine_block(rows_i, norms_i, rows_j, norms_j) -> np.ndarray:
    """Cosines of each of ``rows_i`` to each of ``rows_j``, given their
    nonzero norms: dot products of unit rows by ``einsum``, which uses no
    BLAS and sums each pair in one order, so a pair has the same bits in any
    block, at any position. Clipped to [-1, 1]; identical rows read 1.0."""
    block = np.einsum("id,jd->ij", _unit_rows(rows_i, norms_i),
                      _unit_rows(rows_j, norms_j))
    np.clip(block, -1.0, 1.0, out=block)
    # Identical raw rows have identical unit rows, so only pairs within
    # rounding noise of 1 can be identical.
    for a, b in zip(*np.nonzero(block > 1.0 - _COSINE_OVERSHOOT)):
        if np.array_equal(rows_i[a], rows_j[b]):
            block[a, b] = 1.0
    return block


def cosine(u, v) -> float:
    """Cosine similarity of two vectors: the one-pair block of
    ``_cosine_block``, so it matches the pair's entry in ``cosines``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DataError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (u.any() and v.any()):
        raise DataError("cosine undefined for zero-norm vector")
    rows = np.stack([u.ravel(), v.ravel()])
    # Along rows, as a space's norms are: a 1-D norm is a BLAS dot.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        raise DataError("cosine undefined: vector norm underflows")
    if not np.isfinite(norms).all():
        raise DataError("cosine produced a non-finite value")
    return float(_cosine_block(rows[:1], norms[:1], rows[1:], norms[1:])[0, 0])


def cosines(space: EmbeddingSpace, words, others) -> np.ndarray:
    """|words| x |others| block of cosine similarities within ``space``,
    from the rows gathered and their stored norms by ``_cosine_block``."""
    space.require([*words, *others])
    i = [space._index[w] for w in words]
    j = [space._index[w] for w in others]
    return _cosine_block(space.matrix[i], space._norms[i],
                         space.matrix[j], space._norms[j])


# Largest block of similarities ``nearest_neighbors`` holds at once, in
# bytes: query rows x vocabulary columns of float64. Larger blocks save
# little time and add their size to peak memory. A block of vocabulary rows,
# normalized for the search or squared for the norms, is no larger.
_NN_BLOCK_BYTES = 1 << 21


def _block_rows(dim: int) -> int:
    """Rows of ``dim`` floats in one vocabulary block (at least one)."""
    return max(1, _NN_BLOCK_BYTES // (8 * dim))


def nearest_neighbors(space: EmbeddingSpace, queries) -> list[str]:
    """For each row of ``queries``, the vocabulary word maximizing cosine
    with it.

    Exact scan over the whole vocabulary; ties break to the
    lexicographically smallest word so results are deterministic. The
    vocabulary is scanned in blocks of at most ``_NN_BLOCK_BYTES`` of rows,
    each normalized once; every block of unit queries is scored against
    it in one product, and no block of similarities exceeds
    ``_NN_BLOCK_BYTES``. Each block of similarities holds one query per
    row, so every reduction runs along contiguous memory.
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
    if not queries.any(axis=1).all():
        raise DataError("nearest_neighbor undefined for zero-norm query")
    if np.any(norms == 0.0):
        raise DataError("nearest_neighbor undefined: vector norm underflows")
    if not np.isfinite(norms).all():
        raise DataError("nearest_neighbor undefined for query of non-finite norm")
    if not len(queries):
        return []
    unit = queries / norms[:, None]
    # Vocabulary blocks of ``cols`` rows, query blocks of ``rows`` queries:
    # no block of similarities exceeds the cap.
    cols = min(len(space), _block_rows(space.dimension))
    rows = max(1, _NN_BLOCK_BYTES // 8 // cols)
    best = np.full(len(unit), -np.inf)
    pick = np.zeros(len(unit), dtype=np.intp)
    for lo in range(0, len(space), cols):
        vocab = _unit_rows(space.matrix[lo:lo + cols],
                           space._norms[lo:lo + cols])
        for r in range(0, len(unit), rows):
            sims = _similarities(vocab, unit[r:r + rows])
            top, at = _row_best(space, lo, sims)
            # Ties with an earlier block go to the smaller word.
            held, was = best[r:r + rows], pick[r:r + rows]
            take = top > held
            for j in np.flatnonzero(top == held):
                take[j] = space.words[at[j]] < space.words[was[j]]
            held[take] = top[take]
            was[take] = at[take]
    return [space.words[i] for i in pick.tolist()]


def _similarities(unit_rows: np.ndarray, unit_queries: np.ndarray) -> np.ndarray:
    """Queries x rows block of cosines between unit vectors."""
    return unit_queries @ unit_rows.T


def _row_best(space: EmbeddingSpace, lo: int, sims: np.ndarray):
    """Each row's maximum in a block of similarities whose first column is
    vocabulary row ``lo``, and the vocabulary row holding it; among exact
    maxima, the row of the lexicographically smallest word."""
    at = sims.argmax(axis=1)
    top = sims[np.arange(len(sims)), at]
    is_top = sims == top[:, None]
    # Exact ties are rare: one count over the block rules them out.
    if np.count_nonzero(is_top) > len(top):
        for j in np.flatnonzero(np.count_nonzero(is_top, axis=1) > 1):
            at[j] = min(np.flatnonzero(is_top[j]),
                        key=lambda i: space.words[lo + i])
    return top, at + lo


# Bytes per chunk, plus the rest of the line it ends in: large enough to
# amortize the numpy calls that index and read a chunk, small enough that
# the chunk and its index add only a few MB to peak memory.
_CHUNK_CHARS = 1 << 20

# Most digits of a field that ``_fixed_point`` reads: its digits m are below
# 10**15 < 2**53, so m and 10**k are exact doubles.
_FIXED_DIGITS = 15

# Most significant digits of a field that ``_read_decimal`` reads: its
# digits w are below 10**19 < 2**64, a uint64.
_DECIMAL_DIGITS = 19

# Bytes below "-" are structural in ``_line_index``: every separator and
# line end, and any such byte that a word holds.
_STRUCTURAL = ord("-")
# Bytes below this are structural in a word2vec body: the space and the
# control bytes. "+" and the other punctuation below "-" are read as part
# of a field or a word.
_BLANK = ord(" ") + 1
_NEWLINE, _CR, _TAB, _SPACE, _POINT, _MINUS, _PLUS, _E = b"\n\r\t .-+e"
_ZERO = np.uint8(ord("0"))
# ORed into a letter's byte, this makes an ASCII capital lower case.
_LOWER = np.uint8(0x20)


def load_word2vec_text(path: str, label: str | None = None) -> EmbeddingSpace:
    """Load a text-format word2vec file.

    First line is ``<vocab_size> <dimension>``; each following line is a word
    and ``dimension`` space-separated components, optionally followed by one
    trailing space (as the original word2vec tool writes). Any malformed row
    aborts the load with its line number.

    The input is read once as bytes, files and pipes alike, a chunk of
    whole lines at a time, into a matrix allocated once (see
    ``_read_word2vec_text``). Each chunk is read by an exact decimal kernel
    from a structural index of its bytes (``_parse_decimal``), every field
    bit for bit as ``float()`` reads it. A chunk the kernel declines, for a
    defect of its structure or a field that is not a finite number (a blank
    line, say), is decoded and read by the row-by-row validator alone, which
    raises the ``FormatError`` of a row; the next chunk goes to the kernel
    again. Line ends are those of text mode: ``\\n``,
    ``\\r\\n`` and a lone ``\\r``. Components and header fields are ASCII:
    ``_`` and the digits of other scripts, which ``float()`` and ``int()``
    read, are errors. One UTF-8 byte order mark before the header is
    skipped.
    """
    # The kernel and the validator checked the shape, the words and every
    # value.
    words, rows = _read_word2vec_text(path)
    return EmbeddingSpace._adopt(_label(path, label), words, rows)


def _label(path: str, label: str | None) -> str:
    if label is None:
        return os.path.splitext(os.path.basename(path))[0]
    return label


def _read_word2vec_text(path: str) -> tuple[dict, np.ndarray]:
    """The words of a word2vec text file, in row order as the keys of a
    dict, and its rows as a fresh C-ordered matrix.

    The matrix is allocated once, for the smaller of the header's row count
    and the most rows the file's size allows, and filled in place. A pipe
    has no size: its matrix grows as rows arrive, by the same rule
    (``_reserve``)."""
    with open_text(path) as fh:
        raw = fh.buffer
        head = _rest_of_line(raw)
        chunks = _chunks(raw)
        try:
            vocab_size, dim = _read_header(head, path)
        except FormatError as exc:
            # A byte of the first chunk that is not UTF-8 is named first,
            # as when the header was read as text.
            first = next(chunks, np.zeros(0, np.uint8))
            raise _lines(first, path, 2)[1] or exc from None
        # Words in row order, held as dict keys so a repeat is one lookup.
        words: dict[str, None] = {}
        most = _most_rows(_bytes_left(raw, len(head)), dim)
        rows = np.empty((min(vocab_size, most), dim))
        lineno = 2
        for buf in chunks:
            read = _parse_bytes(buf, dim, words, vocab_size, rows)
            if read is None:  # the validator reads it, or names its defect
                lines, bad = _lines(buf, path, lineno)
                block = _parse_rows(lines, path, vocab_size, dim, words, lineno)
                if bad:
                    raise bad
                filled = len(words) - len(block)
                _reserve(rows, len(words), vocab_size)
                rows[filled:len(words)] = block
                read = len(lines)
            lineno += read
    if len(words) != vocab_size:
        raise FormatError(f"{path}: row count mismatch: header declares "
                          f"{vocab_size}, found {len(words)}")
    return words, rows


def _bytes_left(raw, read: int) -> int:
    """Bytes of the regular file open as ``raw`` after its first ``read``;
    0 for a pipe or any other file without a size."""
    st = os.fstat(raw.fileno())
    return max(0, st.st_size - read) if stat.S_ISREG(st.st_mode) else 0


def _most_rows(size: int, dim: int) -> int:
    """The most rows of ``dim`` components that ``size`` bytes can hold. A
    row takes at least ``2 * dim + 1`` bytes: a word's separator, ``dim``
    one-digit fields, the spaces between them and a line end, which the
    last line may lack."""
    return (size + 1) // (2 * dim + 1)


def _reserve(rows: np.ndarray, need: int, limit: int) -> None:
    """Grow ``rows`` in place, if it has fewer than ``need`` rows, to twice
    its rows or ``need`` if more, but at most ``limit``. Rows already
    written stay; the buffer is reallocated, so they are never held
    twice."""
    if need > len(rows):
        rows.resize((min(limit, max(need, 2 * len(rows))), rows.shape[1]),
                    refcheck=False)


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

    For two large regular files, when this process may fork (see
    ``_concurrent``), a forked child reads the second file while this
    process loads the first. It sends back a frame of its pickled words and
    matrix shape, or of the exception it raised, then the raw matrix bytes.
    Otherwise, or if the fork fails, both are loaded here, one by one.
    """
    with _reaped() as children:
        child = (_concurrent(first[0], second[0])
                 and _fork(children, _send_read, second[0]))
        if not child:
            return load_word2vec_text(*first), load_word2vec_text(*second)
        # The first file is read and adopted before the second is
        # collected, so its error is the one raised, as in a serial load.
        space1 = load_word2vec_text(*first)
        header = pickle.loads(_frame(child[1], second[0], "reading"))
        if isinstance(header, BaseException):
            raise header
        words, shape = header
        rows = np.empty(shape)
        _fill(child[1], rows.reshape(-1).view(np.uint8), second[0], "reading")
    return space1, EmbeddingSpace._adopt(_label(*second), words, rows)


def _concurrent(path1: str, path2: str) -> bool:
    """Whether ``load_word2vec_pair`` reads the second file in a child.

    Each file must be a regular file, so that reading it in another process
    reads the same bytes (a pipe can be read only once), and they must be
    two files (``/dev/stdin`` twice keeps its serial meaning everywhere).
    """
    try:
        st1, st2 = os.stat(path1), os.stat(path2)
    except (OSError, ValueError):  # the serial load raises it in order
        return False
    return (_may_fork() and not os.path.samestat(st1, st2)
            and stat.S_ISREG(st1.st_mode) and stat.S_ISREG(st2.st_mode)
            and min(st1.st_size, st2.st_size) >= _CONCURRENT_BYTES)


def _send_read(out, path: str) -> None:
    try:
        words, rows = _read_word2vec_text(path)
        header = (tuple(words), rows.shape)
    except Exception as exc:
        header, rows = exc, None
    _send(out, pickle.dumps(header))
    if rows is not None:
        out.write(rows.reshape(-1).view(np.uint8))


@contextmanager
def _reaped():
    """A list for ``_fork`` to add children to. Leaving the block closes
    each child's pipe and waits for the child; leaving it by an exception
    first kills every child."""
    children: list = []
    try:
        yield children
    except BaseException:
        import signal  # only here, so that no successful run imports it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _fork(children: list, work, *args):
    """``(pid, read end)`` of a child, also added to ``children``, that runs
    ``work(out, *args)`` on the pipe's write end and exits; None if the fork
    fails. The child closes the earlier children's read ends, so if this
    process dies, every child's next write fails. Children call no BLAS,
    whose threads in this process do not exist in a forked child."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller works alone
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            for _, pipe in children:
                pipe.close()
            with open(write_fd, "wb") as out:
                work(out, *args)
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    children.append((pid, open(read_fd, "rb", buffering=0)))
    return children[-1]


def _send(out, payload) -> None:
    """Write one frame: the length of ``payload`` in 8 bytes, then it."""
    out.write(len(payload).to_bytes(8, "little"))
    out.write(payload)


def _frame(pipe, path: str, doing: str) -> bytearray:
    """The payload of the next frame ``_send`` wrote to ``pipe``."""
    size = _fill(pipe, bytearray(8), path, doing)
    return _fill(pipe, bytearray(int.from_bytes(size, "little")), path, doing)


def _fill(pipe, buf, path: str, doing: str):
    """``buf``, filled from ``pipe``. A pipe that ends first means its child,
    ``doing`` its work on ``path``, ended: an ``OSError`` naming ``path``."""
    view = memoryview(buf)
    while view:
        n = pipe.readinto(view)
        if not n:
            raise OSError(
                f"{path}: the process {doing} it ended without a result")
        view = view[n:]
    return buf


def _read_header(line: bytes, path: str) -> tuple[int, int]:
    parts = line.decode("utf-8").split()
    if len(parts) != 2:
        raise FormatError(f"{path}:1: header must be '<vocab_size> <dimension>'")
    # int() would also take "+", "_" between digits and the digits of other
    # scripts; a "-" is read, so that a negative field is out of range.
    try:
        if not all(p.removeprefix("-").isdigit() and p.isascii() for p in parts):
            raise ValueError(parts)
        vocab_size, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}:1: non-integer header fields") from None
    # A dimension whose float64 row numpy cannot address is out of range,
    # even with no rows.
    if vocab_size < 0 or not 0 < dim <= sys.maxsize // 8:
        raise FormatError(f"{path}:1: header values out of range")
    return vocab_size, dim


def _translate(data: bytes) -> bytes:
    """``data`` with each ``\\r\\n`` and lone ``\\r`` as ``\\n``, the line
    ends text mode reads."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _chunks(raw):
    """Chunks of whole lines of the binary stream ``raw``: uint8 arrays of
    the lines up to the first that ends past ``_CHUNK_CHARS`` bytes, as
    ``readlines(_CHUNK_CHARS)`` cuts them in text mode, with line ends
    translated (``_translate``). Each chunk ends in ``\\n``, but the last if
    the stream does not. Every chunk is a view of one buffer, which the next
    overwrites."""
    store = bytearray()
    while True:
        size = _CHUNK_CHARS + 1
        if len(store) < size:
            store = bytearray(size + (size >> 4))  # room for a line or two
        view = memoryview(store)
        n = raw.readinto(view[:size])
        if not n:
            return
        if store[n - 1] != _NEWLINE:
            line = _rest_of_line(raw, store[n - 1] == _CR)
            if n + len(line) > len(store):
                grown = bytearray(2 * (n + len(line)))
                grown[:n] = view[:n]
                store, view = grown, memoryview(grown)
            view[n:n + len(line)] = line
            n += len(line)
        if store.find(b"\r", 0, n) >= 0:
            text = _translate(bytes(view[:n]))
            n = len(text)
            view[:n] = text
        yield np.frombuffer(store, np.uint8, n)


def _rest_of_line(raw, after_cr: bool = False) -> bytearray:
    """The bytes of the buffered binary stream ``raw`` up to the end of the
    line they are in, which text mode ends at ``\\n``, ``\\r\\n`` or a lone
    ``\\r``: found in the bytes ``raw`` holds, so none past it are read.
    ``after_cr`` tells that the bytes before ended in ``\\r``, which a
    ``\\n`` completes."""
    line = bytearray()
    while held := raw.peek(1):
        if after_cr:
            if held[0] == _NEWLINE:
                line += raw.read(1)
            break
        nl, cr = held.find(b"\n"), held.find(b"\r")
        if nl < 0 and cr < 0:
            line += raw.read(len(held))
            continue
        end = nl if cr < 0 or 0 <= nl < cr else cr
        line += raw.read(end + 1)
        if end == nl:
            break
        after_cr = True
    return line


def _line_index(buf: np.ndarray, sep: int, below: int = _STRUCTURAL):
    """Structural index of ``buf``, a chunk of whole lines: ``(low, first,
    last)``, or None if a line holds no ``sep`` byte.

    ``low`` holds the position of every byte below ``below``: the
    separators and line ends, and any such byte that a word holds. ``last``
    is the index in ``low`` of each line's end, the chunk's end for a last
    line without ``\\n``; ``first`` is that of the line's first ``sep``,
    which ends its word. The fields after the word end at the entries of
    ``low`` after ``first`` up to ``last``. This is the structural index of
    simdjson (Langdale and Lemire, "Parsing Gigabytes of JSON per Second",
    VLDB Journal 2019) for lines of fields.
    """
    # A slice at a time, so that the comparison's temporaries stay small and
    # come from memory the allocator reuses (see ``_PASS_VALUES``): a whole
    # chunk's took about 10,000 page faults per 42 MB file.
    step = 8 * _PASS_VALUES
    low = np.concatenate([np.flatnonzero(buf[at:at + step] < below) + at
                          for at in range(0, len(buf), step)])
    kinds = buf[low]
    if buf[-1] != _NEWLINE:
        low = np.append(low, len(buf))
        kinds = np.append(kinds, np.uint8(_NEWLINE))
    last = np.flatnonzero(kinds == _NEWLINE)
    first = np.empty_like(last)
    first[0] = 0
    first[1:] = last[:-1] + 1
    # Lines whose word holds a byte below ``below``, or that hold no sep.
    for i in np.flatnonzero(kinds[first] != sep).tolist():
        seps = np.flatnonzero(kinds[first[i]:last[i]] == sep)
        if not len(seps):
            return None
        first[i] += seps[0]
    return low, first, last


def _words(buf: np.ndarray, low, first, last, sep: str) -> list[str]:
    """The word of each line of a chunk indexed by ``_line_index``: the
    bytes before each line's first ``sep``, gathered with it into one
    buffer, decoded once as strict UTF-8 and split at ``sep``."""
    starts = np.empty_like(last)
    starts[0] = 0
    starts[1:] = low[last[:-1]] + 1
    sizes = low[first] - starts + 1
    # Positions of 4 bytes gather a table's many short words twice as fast.
    kind = np.int32 if len(buf) <= np.iinfo(np.int32).max else np.intp
    at = np.repeat((starts - (np.cumsum(sizes) - sizes)).astype(kind), sizes)
    at += np.arange(len(at), dtype=kind)
    return buf[at].tobytes().decode("utf-8").split(sep)[:-1]


def _lines(buf: np.ndarray, path: str, start: int) -> tuple:
    """``(lines, None)``: the lines of a chunk, decoded as strict UTF-8,
    without their line ends: split at ``\\n`` alone, as text mode splits
    translated text, never at the other breaks ``str.splitlines`` knows.
    If a byte is not UTF-8, ``(lines, error)``: the lines before the byte's
    line, which the caller reads first, so that an earlier defect is named
    at any chunk size, and a FormatError naming that line, numbered from
    ``start``, to raise after them."""
    try:
        return str(buf, "utf-8").removesuffix("\n").split("\n"), None
    except UnicodeDecodeError as exc:
        head, reason = buf[:exc.start].tobytes(), exc.reason
    lines = str(head[:head.rfind(b"\n") + 1], "utf-8").split("\n")[:-1]
    return lines, FormatError(
        f"{path}:{start + len(lines)}: not valid UTF-8 ({reason})")


def _parse_bytes(buf: np.ndarray, dim: int, words: dict, vocab_size: int,
                 rows: np.ndarray):
    """The number of lines of the chunk ``buf``, every one a row, written to
    ``rows`` after the ``len(words)`` rows read before, their words added to
    ``words``; or None, with ``words`` unchanged, for the validator to read
    the chunk: if a line holds no space, a word repeats, the rows would
    exceed ``vocab_size``, ``_parse_decimal`` declines the chunk or a row is
    all zeros.

    ``rows`` grows to hold the rows the chunk's bytes can (``_reserve``),
    and the kernel writes them in place.
    """
    index = _line_index(buf, _SPACE, _BLANK)
    if index is None:  # a line with no space has no body
        return None
    n = len(index[2])
    filled = len(words)
    if filled + n > vocab_size:
        return None
    try:
        new = dict.fromkeys(_words(buf, *index, " "))
    except UnicodeDecodeError:  # the validator names the byte's line
        return None
    if len(new) != n or not words.keys().isdisjoint(new):
        return None
    _reserve(rows, filled + min(n, _most_rows(len(buf), dim)), vocab_size)
    block = _parse_decimal(buf, index, rows[filled:filled + n])
    if block is None or not block.any(axis=1).all():
        return None
    words.update(new)
    return n


def _parse_decimal(buf: np.ndarray, index, out: np.ndarray):
    """``out``, holding the fields after each line's word in the chunk
    ``buf`` indexed by ``_line_index`` below ``_BLANK``, if every line holds
    ``out``'s number of columns of fields joined by single spaces, with at
    most one trailing space, and every field is a finite number that
    ``float()`` reads, spelled in ASCII without "_"; None otherwise, when
    some of ``out`` may have been written. An ``out`` of fewer rows than
    ``buf`` has lines, which its bytes cannot hold as rows, is declined.

    Each value equals ``float(field)`` bit for bit. The bytes are read in
    place, in passes of about ``_PASS_VALUES`` fields, as ``_format_block``
    writes them, so that the temporaries come from memory the allocator
    reuses, and each pass is read by ``_read_decimal``.
    """
    low, first, last = index
    rows, dim = out.shape
    # After the word come dim field ends, the last of them the line end or
    # a trailing space just before it.
    extra = last - first - dim
    if rows != len(last) or not ((extra == 0) | (extra == 1)).all():
        return None
    spaced = np.flatnonzero(extra)
    if not ((low[last[spaced] - 1] + 1 == low[last[spaced]])
            & (buf[low[last[spaced] - 1]] == _SPACE)).all():
        return None
    columns = np.arange(dim + 1)
    step = max(1, _PASS_VALUES // dim)
    for lo in range(0, rows, step):
        # Each field starts after the byte that ends the one before it, or
        # the word.
        bounds = low[first[lo:lo + step, None] + columns]
        starts, ends = (bounds[:, :-1] + 1).ravel(), bounds[:, 1:].ravel()
        if not ((buf[bounds[:, 1:-1]] == _SPACE).all()
                and (ends > starts).all()):
            return None
        values = out[lo:lo + step].reshape(-1)
        if not _read_decimal(buf, starts, ends, values):
            return None
    return out


def _read_decimal(buf: np.ndarray, starts, ends, values: np.ndarray) -> bool:
    """Whether every field of ``buf`` from ``starts`` to ``ends`` is a
    finite number that ``float()`` reads, in ASCII without "_"; if so,
    ``values`` holds each bit for bit as ``float()`` reads it. Otherwise
    some of ``values`` may have been written.

    A pass of fixed-point fields is read by one division each
    (``_fixed_point``). Otherwise a field ``[+-]D+[.D+][(e|E)[+-]D+]``, with
    at most 4 bytes after the ``e`` and ``_DECIMAL_DIGITS`` digits before
    it, leading zeros of a zero whole part aside, is read in place as its
    digits w times 10**q. Where w <= 2**53 and |q| <= 22, both are exact
    doubles and one multiply or divide rounds their product correctly
    (Clinger); the rest go to ``_eisel_lemire``. A field of another
    spelling (``.5``, ``5.``, ``1e00005``, more digits), and one that
    Eisel-Lemire leaves, goes to ``float()`` on its own (``_read_each``).
    """
    lead = buf[starts]
    neg = lead == _MINUS
    begin = starts + (neg | (lead == _PLUS))  # the first digit
    if _fixed_point(buf, begin, ends, values):
        values *= 1.0 - 2.0 * neg
        return True
    mark, exponent, marked = _exponent(buf, begin, ends)
    w, frac, ok = _mantissa(buf, begin, mark)
    ok &= marked
    q = exponent - frac
    reach = np.abs(q)
    # Clinger's exact case, for every field: the others are written over.
    scale = _POW10_EXACT[np.minimum(reach, len(_POW10_EXACT) - 1)]
    magnitude = w.astype(np.float64)
    np.multiply(magnitude, scale, out=values)
    np.divide(magnitude, scale, out=values, where=q < 0)
    rest = np.flatnonzero(ok & (w != 0) & (
        (w > _EXACT_INT) | (reach >= len(_POW10_EXACT))))
    if rest.size:
        at = q[rest]
        inside = (at >= _LEAST_Q) & (at <= _MOST_Q)
        found, decided = _eisel_lemire(w[rest],
                                       np.clip(at, _LEAST_Q, _MOST_Q))
        decided &= inside
        values[rest[decided]] = found[decided]
        ok[rest[~decided]] = False
    values *= 1.0 - 2.0 * neg  # sets the sign, of a zero too
    left = np.flatnonzero(~ok)
    if left.size:
        each = _read_each(buf, starts[left], ends[left])
        if each is None:
            return False
        values[left] = each
    return True


def _fixed_point(buf: np.ndarray, begin, ends, values: np.ndarray) -> bool:
    """Whether every field of ``buf`` from ``begin``, after its sign, to
    ``ends`` is spelled ``D+.D{k}`` with the first one's k >= 1 decimals and
    at most ``_FIXED_DIGITS`` digits. If so, ``values`` holds their
    magnitudes; otherwise some of ``values`` may have been written.

    A field's digits m and 10**k are exact doubles, so one division gives
    m / 10**k correctly rounded, equal to ``float()`` bit for bit
    (Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990).
    """
    head = bytes(buf[begin[0]:ends[0]])
    k = len(head) - 1 - head.find(b".")
    whole = ends - begin - (k + 1)  # digits before the point
    if not (head.replace(b".", b"", 1).isdigit() and k >= 1
            and whole.min() >= 1 and whole.max() + k <= _FIXED_DIGITS
            and (buf[ends - k - 1] == _POINT).all()):
        return False
    values[:] = 0.0
    if (_digit_faults(buf, ends, k, values).any()
            or _digit_faults(buf, ends - k - 1, whole, values, k).any()):
        return False
    values /= float(10 ** k)
    return True


def _mantissa(buf: np.ndarray, begin, end):
    """``(w, frac, ok)`` for the mantissas of ``buf`` from ``begin`` to
    ``end``: where ``ok``, a mantissa is ``D+[.D+]`` and w, as uint64, is
    its digits, frac of them after the point."""
    # The point: the mantissa's first ".", most often its second byte.
    point = end.copy()  # a mantissa without a point is all whole digits
    np.copyto(point, begin + 1, where=(end - begin > 1) & (
        buf.take(begin + 1, mode="clip") == _POINT))
    todo = np.flatnonzero(point == end)
    at = begin[todo]
    while todo.size:
        inside = at < end[todo]
        todo, at = todo[inside], at[inside]
        hit = buf[at] == _POINT
        point[todo[hit]] = at[hit]
        todo, at = todo[~hit], at[~hit] + 1
    whole = point - begin
    frac = np.maximum(end - point - 1, 0)
    ok = ((whole >= 1) & (whole <= _DECIMAL_DIGITS)
          & ((point == end) | (frac >= 1)))
    w = np.zeros(len(begin), dtype=np.uint64)
    ok &= ~_digit_faults(buf, point, (whole * ok).astype(np.uint8), w)
    # The whole part's digits and the fraction's fit w if there are at most
    # _DECIMAL_DIGITS of them, or the whole part is zero.
    ok &= (whole + frac <= _DECIMAL_DIGITS) | (
        (w == 0) & (frac <= _DECIMAL_DIGITS))
    frac *= ok
    w *= _POW10_U64[frac]
    ok &= ~_digit_faults(buf, end, frac.astype(np.uint8), w)
    return w, frac, ok


def _exponent(buf: np.ndarray, begin, ends):
    """``(mark, power, ok)`` for the fields of ``buf`` from ``begin`` to
    ``ends``, given in the order of their bytes. A field's mark is its last
    e or E after its first byte: where ``ok``, what follows the mark is an
    exponent ``[+-]D+`` of at most 4 bytes, and ``power`` is its value. A
    field without a mark has its end as ``mark``, power 0 and ``ok``.

    The bytes are searched for marks in one step, so that a pass with few
    exponents, as "%g" and repr text hold, costs little more than one with
    none.
    """
    mark = ends.copy()
    power = np.zeros(len(ends), dtype=np.int64)
    ok = np.ones(len(ends), dtype=bool)
    lo = begin[0]
    hit = lo + np.flatnonzero((buf[lo:ends[-1]] | _LOWER) == _E)
    field = np.searchsorted(ends, hit)
    # Each field's last mark, so that each is written once; a word's bytes
    # lie before its line's first field.
    last = hit > begin[field]
    last[:-1] &= field[1:] != field[:-1]
    at, hit = field[last], hit[last]
    sign = buf.take(hit + 1, mode="clip")
    eneg = sign == _MINUS
    width = ends[at] - hit - 1 - (eneg | (sign == _PLUS))
    found = np.zeros(len(at), dtype=np.int64)
    ok[at] = (width >= 1) & (width <= 4) & ~_digit_faults(
        buf, ends[at], np.minimum(width, 4), found)
    mark[at] = hit
    power[at] = found * (1 - 2 * eneg.astype(np.int64))
    return mark, power, ok


def _read_each(buf: np.ndarray, starts, ends):
    """The fields of ``buf`` from ``starts`` to ``ends``, each read by
    ``float()``; None if one is not ASCII, holds "_", is not a number or is
    not finite, for the validator to name."""
    values = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        field = buf[a:b].tobytes()
        if not field.isascii() or b"_" in field:
            return None
        try:
            value = float(field)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        values.append(value)
    return values


def _digit_faults(buf: np.ndarray, ends, width, total: np.ndarray,
                  scale: int = 0) -> np.ndarray:
    """Add to ``total`` the number that the ``width`` ASCII digits just
    before each of ``ends`` spell, times 10**``scale``, in the dtype of
    ``total``, which must hold every sum exactly; return where a byte read
    is not a digit, and the number added means nothing.

    The digits are read a column at a time, from the first, into groups of
    8 in uint32, and each group is added to ``total`` in one step.
    """
    fewest = int(np.min(width, initial=255))
    most = int(np.max(width, initial=0))
    largest = np.zeros(len(ends), dtype=np.uint8)  # of the digits read
    group = np.zeros(len(ends), dtype=np.uint32)
    at = ends - most
    for j in range(most - 1, -1, -1):  # the column of 10**j
        # The bytes below "0" wrap around to 208 and more; a field with
        # fewer digits may read outside the chunk here.
        digit = buf.take(at, mode="clip") - _ZERO
        at += 1
        if j >= fewest:  # fields with fewer digits read 0 here
            digit *= width > j
        np.maximum(largest, digit, out=largest)
        group *= np.uint32(10)
        group += digit
        if j % 8 == 0:
            power = 10 ** (j + scale)
            total += group * total.dtype.type(power) if power > 1 else group
            group[:] = 0
    return largest > 9


# The decimal exponents of Eisel-Lemire's table: any w * 10**q outside them,
# with w below 10**19, rounds to 0 or overflows.
_LEAST_Q, _MOST_Q = -342, 308


@cache
def _pow5_tables():
    """The high and low 64 bits of 5**q for each q from ``_LEAST_Q`` to
    ``_MOST_Q``, scaled by a power of two to 128 bits with the top bit set:
    truncated for q >= 0, and for q < 0 a reciprocal one unit above its
    truncation. These are the tables of Eisel-Lemire (Lemire, "Number
    Parsing at a Gigabyte per Second", Software: Practice and Experience
    2021), made as its reference code makes them, on first use."""
    high, low = [], []
    for q in range(_LEAST_Q, _MOST_Q + 1):
        power = 5 ** abs(q)
        if q < 0:
            z = (power - 1).bit_length()  # 2**(z - 1) < 5**-q <= 2**z
            power = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
        shift = power.bit_length() - 128
        power = power >> shift if shift > 0 else power << -shift
        high.append(power >> 64)
        low.append(power & (2 ** 64 - 1))
    tables = np.array([high, low], dtype=np.uint64)
    tables.flags.writeable = False  # one copy, for every caller
    return tables


# 10**k as uint64 for w, and as the exact doubles of Clinger's case.
_POW10_U64 = np.array([10 ** k for k in range(_DECIMAL_DIGITS + 1)],
                      dtype=np.uint64)
_POW10_EXACT = np.array([float(10 ** k) for k in range(23)])
_EXACT_INT = np.uint64(1 << 53)
_NINE_BITS = np.uint64(0x1FF)
_ALL_ONES = np.uint64(2 ** 64 - 1)
_FRACTION, _TOP = np.uint64(52), np.uint64(63)
_FRACTION_BITS = np.uint64((1 << 52) - 1)
# The leading zeros of a nonzero uint64 are this, 63 + 1023, less the biased
# exponent of the double nearest it.
_LEADING = np.uint64(1086)
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _product(a: np.ndarray, b: np.ndarray):
    """``(hi, lo)``: the uint64 arrays ``a`` times ``b`` as
    hi * 2**64 + lo, exactly, from four products of 32-bit halves. uint64
    arrays wrap without warning; every sum here but lo stays below 2**64."""
    a0, a1 = a & _LOW32, a >> _HALF
    b0, b1 = b & _LOW32, b >> _HALF
    cross = a1 * b0 + (a0 * b0 >> _HALF)
    middle = (cross & _LOW32) + a0 * b1
    return a1 * b1 + (cross >> _HALF) + (middle >> _HALF), a * b


def _eisel_lemire(w: np.ndarray, q: np.ndarray):
    """``(values, decided)`` for the nonzero uint64 digits ``w``, below
    10**19, and the int64 decimal exponents ``q``, from ``_LEAST_Q`` to
    ``_MOST_Q``. Where ``decided`` holds, ``values`` is the double nearest
    w * 10**q, ties to even, as ``float()`` reads it; elsewhere the value is
    left to ``float()``.

    This is Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per
    Second", SPE 2021) on whole arrays. w, shifted to a top bit of 1, times
    the 128-bit table entry of 5**q gives the leading bits of w * 10**q; the
    entry's low half is added only where the bits kept could change.
    Undecided: a product still in doubt, one that may lie exactly halfway
    between two doubles, and a result in the subnormal or overflow range.
    """
    # w's leading zeros, from the exponent of the double nearest it: one
    # too few where that rounded up to a power of two.
    zeros = _LEADING - (w.astype(np.float64).view(np.uint64) >> _FRACTION)
    zeros += ((w << zeros) >> _TOP) == 0
    w = w << zeros
    at = q - _LEAST_Q
    high, low = _pow5_tables()
    hi, lo = _product(w, high[at])
    # Only where hi ends in 9 ones can the entry's low half change the bits
    # kept: its product is added there.
    near = np.flatnonzero((hi & _NINE_BITS) == _NINE_BITS)
    if near.size:
        top = _product(w[near], low[at[near]])[0]
        added = lo[near] + top
        hi[near] += added < top
        lo[near] = added
    upper = hi >> _TOP
    shift = upper + np.uint64(9)
    mantissa = hi >> shift  # 54 bits: the double's 53 and one to round by
    # floor(q * log2(10)) + 63, and the bias of a double's exponent.
    power2 = ((217706 * q) >> 16) + (63 + 1023 + upper.view(np.int64)
                                     - zeros.view(np.int64))
    decided = power2 > 0
    # Undecided too: a product still in doubt, and one that may lie exactly
    # halfway between two doubles (only zeros shifted out, and the 54th bit
    # set).
    decided[near[lo[near] == _ALL_ONES]] = False
    tie = np.flatnonzero(lo <= 1)
    decided[tie[((mantissa[tie] & np.uint64(3)) == 1)
                & ((mantissa[tie] << shift[tie]) == hi[tie])]] = False
    mantissa += mantissa & np.uint64(1)
    mantissa >>= np.uint64(1)
    carry = mantissa >> np.uint64(53)  # 1 where rounding made 2**53
    mantissa >>= carry
    power2 += carry.view(np.int64)
    decided &= power2 < 2047
    bits = (power2.astype(np.uint64) << _FRACTION) | (mantissa & _FRACTION_BITS)
    return bits.view(np.float64), decided


def _parse_rows(lines, path: str, vocab_size: int, dim: int, words: dict,
                start: int) -> np.ndarray:
    """Row-by-row validator for the chunk ``lines``, numbered from
    ``start`` and read after the rows of ``words``: the first malformed row
    raises a ``FormatError`` naming its line. Returns the rows read as a
    matrix and adds their words to ``words``."""
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
        # float() also reads "_" between digits and the digits and spaces
        # of other scripts; the decimal kernel reads neither, nor does this.
        spelled = "".join(fields[1:])
        try:
            if "_" in spelled or not spelled.isascii():
                raise ValueError(spelled)
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
    return np.array(rows, dtype=np.float64).reshape(-1, dim)


# Components per formatting block, about 2 MB of text. A forked worker holds
# one block at a time, the parent one frame, whatever the vocabulary size.
_BLOCK_FLOATS = 100_000


def save_word2vec_text(space: EmbeddingSpace, path: str) -> None:
    """Write a space in text word2vec format; floats round-trip exactly.

    When ``_may_fork``, workers forked one per usable CPU format blocks of
    rows from inherited memory: worker k of W sends blocks k, k + W, ... as
    frames of UTF-8 text. Blocks are written in row order, so the file is
    the same however many CPUs made it; lines end in ``\\n`` everywhere. A
    worker that cannot be forked leaves its blocks to this process.

    The file is written whole, as every output is (see ``_replacing``).

    A word holding a space, ``\n`` or ``\r`` would not read back as one
    word: such words are a ``DataError`` before anything is written.
    """
    broken = sorted(w for w in space.words
                    if " " in w or "\n" in w or "\r" in w)
    if broken:
        raise DataError("words holding a space or a line break cannot be "
                        "written as word2vec text: "
                        + ", ".join(map(repr, broken)))
    step = max(1, _BLOCK_FLOATS // space.dimension)
    blocks = [(lo, min(lo + step, len(space)))
              for lo in range(0, len(space), step)]
    workers = min(_usable_cpus(), len(blocks)) if _may_fork() else 1
    with _replacing(path) as fh, _reaped() as children:
        fh.write(f"{len(space)} {space.dimension}\n".encode("utf-8"))
        for k in range(workers if workers > 1 else 0):
            if not _fork(children, _send_blocks, space, blocks[k::workers]):
                break
        for i, (lo, hi) in enumerate(blocks):
            if i % workers < len(children):
                fh.write(_frame(children[i % workers][1], path, "formatting"))
            else:
                fh.write(_format_block(space, lo, hi))


def _send_blocks(out, space: EmbeddingSpace, blocks) -> None:
    for lo, hi in blocks:
        _send(out, _format_block(space, lo, hi))


# Values per pass of ``_format_rows``. Its temporaries, a few dozen arrays of
# 8 bytes a value, then come from memory the allocator reuses; passes over a
# whole 100,000-value block mapped each one afresh and took its page faults,
# which made the write about 1.4 times slower.
_PASS_VALUES = 1 << 14


def _format_block(space: EmbeddingSpace, lo: int, hi: int) -> bytes:
    """Rows ``lo`` to ``hi - 1`` of ``space`` as word2vec text lines in
    UTF-8, each component written as ``repr`` writes it."""
    step = max(1, _PASS_VALUES // space.dimension)
    return b"".join(
        _format_rows(space.words[a:min(a + step, hi)],
                     space.matrix[a:min(a + step, hi)])
        for a in range(lo, hi, step))


def _shortest_tables():
    """Per biased exponent: whether ``_shortest`` takes it, and its q,
    5**i and decimal exponent e10 (the names of Ryū's e2 < 0 path)."""
    biased = np.arange(2048)
    e2 = biased - 1077  # the exponent of 4 * m2, as Ryū's mv
    q = ((np.maximum(-e2, 0) * 732923) >> 20) - (-e2 > 1)  # log10(5**-e2)
    # 5**i fits 63 bits up to i = 27, which holds down to e2 = -86, and
    # q >= 2 holds up to e2 = -5. Zero, subnormals and the smallest normals
    # (biased 1, whose lower gap Ryū takes as a subnormal's) are left out.
    taken = (biased > 1) & (e2 >= -86) & (q > 1)
    q = np.where(taken, q, 2)
    pow5 = np.array([5 ** i for i in range(28)], dtype=np.uint64)
    return (taken, q.astype(np.uint64), pow5[np.where(taken, -e2 - q, 0)],
            q + e2)


_TAKEN, _Q, _POW5, _E10 = _shortest_tables()
_POW10 = np.array([10 ** k for k in range(19)], dtype=np.int64)
# The two ASCII digits of 0 to 99, as one little-endian 16-bit word each.
_PAIRS = np.array([ord(str(k // 10)) | ord(str(k % 10)) << 8
                   for k in range(100)], dtype=np.uint16)
# Bytes a value takes in ``_format_rows``'s grid: the longest repr of a
# float, 24 bytes ("-2.2250738585072014e-308"), its separator, and one more
# to keep each row's digit pairs aligned.
_CELL = 26
# For each column k of a cell, the columns left of it and the others.
_LEFT_OF = np.arange(_CELL) < np.arange(_CELL)[:, None]
_FROM = ~_LEFT_OF


def _shortest(values: np.ndarray):
    """``(digits, count, point, taken)`` for the float64 array ``values``.

    Where ``taken`` holds, the integer ``digits`` has ``count`` digits and
    is the shortest decimal that reads back as the value's magnitude, the
    closest to it if several are that short: the digits ``repr`` writes.
    The value's magnitude is ``0.<digits> * 10**point``, with the point
    inside repr's fixed notation (-4 < point <= 16). Elsewhere the figures
    mean nothing, and the caller writes the value with ``repr``.

    This is the e2 < 0 path of Ryū (Adams, "Ryū: Fast Float-to-String
    Conversion", PLDI 2018) on whole arrays. A value is mv * 2**e2, with mv
    four times its 53-bit mantissa; vr = mv * 5**i >> q are its decimal
    digits at 10**e10, and vp and vm those of the midpoints to its
    neighbours. Inside fixed notation i <= 27, so 5**i fits 63 bits and one
    exact 55 x 63-bit product from 32-bit halves (``_product``) replaces
    Ryū's 125-bit table. Digits are then removed while vp and vm still differ, and the
    last one removed rounds the rest. ``repr`` is left every value that
    would need Ryū's other paths: an exponent outside ``_TAKEN``, an mv
    with q trailing zero bits (vr exact, so ties and exact bounds count),
    a point outside fixed notation, and digits ending in 0.
    """
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    mantissa = bits & np.uint64((1 << 52) - 1)
    mv = (mantissa | np.uint64(1 << 52)) << np.uint64(2)
    q, pow5 = _Q[biased], _POW5[biased]
    below_q = (np.uint64(1) << q) - np.uint64(1)
    taken = _TAKEN[biased] & ((mv & below_q) != 0)
    hi, lo = _product(mv, pow5)
    # vr, and vp and vm from the q bits shifted out: the upper midpoint is
    # mv + 2, the lower mv - 2 for a nonzero mantissa and mv - 1 for 2**k.
    rest = lo & below_q
    vr = (lo >> q) | (hi << (np.uint64(64) - q))
    vp = vr + ((rest + (pow5 << np.uint64(1))) >> q)
    vm = vr - (((pow5 << (mantissa != 0).astype(np.uint64)) + below_q - rest)
               >> q)
    # All three are below 2**62, and int64 divides faster than uint64.
    vr, vp, vm = vr.view(np.int64), vp.view(np.int64), vm.view(np.int64)
    # Most values lose two digits: one whole-array step removes them, and
    # the steps after it take only the values still shortening.
    vp_100, vm_100 = vp // 100, vm // 100
    two = vp_100 > vm_100
    vr_100 = vr // 100
    up = two & (vr - vr_100 * 100 >= 50)
    vr = np.where(two, vr_100, vr)
    vp = np.where(two, vp_100, vp)
    vm = np.where(two, vm_100, vm)
    removed = two * 2
    at = np.flatnonzero(taken)
    while at.size:
        vp_10, vm_10 = vp[at] // 10, vm[at] // 10
        more = vp_10 > vm_10
        at, vp_10, vm_10 = at[more], vp_10[more], vm_10[more]
        vr_10 = vr[at] // 10
        up[at] = vr[at] - vr_10 * 10 >= 5
        vr[at], vp[at], vm[at] = vr_10, vp_10, vm_10
        removed[at] += 1
    # vm itself lies outside the interval, so a vr equal to it rounds up.
    digits = vr + ((vr == vm) | up)
    count = np.searchsorted(_POW10, digits, side="right")
    point = count + _E10[biased] + removed
    taken &= (point > -4) & (point <= 16) & (digits % 10 != 0)
    return digits, count, point, taken


def _format_rows(words, rows: np.ndarray) -> bytes:
    """``words`` and the float64 ``rows`` as word2vec text lines in UTF-8,
    each component as ``repr`` writes it.

    Each value gets a cell of ``_CELL`` bytes, its text right-aligned after
    a space. The digits go in two at a time; the whole part is moved one
    column left to make room for the point; values ``_shortest`` leaves
    are written by ``repr``. The cells' texts are then packed, and each
    row's word and newline inserted.
    """
    values = rows.reshape(-1)
    digits, count, point, taken = _shortest(values)
    # Cells of values left to repr get a layout in range, written over below.
    point = np.where(taken, point, 0)
    count = np.where(taken, count, 1)
    # A whole number is written with ".0": add zeros to its digits, one of
    # them past the point, so that the point falls inside them.
    whole = point >= count
    digits = np.where(whole, digits * _POW10[np.where(whole, point - count + 1,
                                                       0)], digits)
    count = np.where(whole, point + 1, count)
    # The digits, right-aligned after leading zeros: a point at or below 0
    # finds its "0." and the zeros after it already in place.
    cells = np.empty((len(values), _CELL // 2), dtype=np.uint16)
    cells[:, :4] = _PAIRS[0]
    # The low 8 digits fill the last 4 words of a cell, the high 10 (the
    # first always 0, as digits < 10**17) the 5 before them.
    upper = (digits // 10 ** 8).astype(np.uint32)
    lower = (digits - upper.astype(np.int64) * 10 ** 8).astype(np.uint32)
    for part, columns in ((lower, range(12, 8, -1)), (upper, range(8, 3, -1))):
        for column in columns:
            rest = part // 100
            cells[:, column] = _PAIRS[part - rest * 100]
            part = rest
    flat = cells.view(np.uint8).reshape(-1)
    # The fraction's digits end the cell; the point's column goes to the
    # whole part's last digit, and every column left of it takes the one
    # to its right.
    dot = (_CELL - 1) - (count - point)
    step = flat[1:] - flat[:-1]
    step *= _LEFT_OF[dot].reshape(-1)[:-1]
    flat[:-1] += step
    base = np.arange(0, len(flat), _CELL)
    flat[base + dot] = ord(".")
    start = dot - np.maximum(point, 1) - 1  # the separator's column
    negative = np.flatnonzero(values.view(np.int64) < 0)
    flat[base[negative] + start[negative]] = ord("-")
    start[negative] -= 1
    left = np.flatnonzero(~taken)
    if left.size:
        texts = [repr(v) for v in values[left].tolist()]
        flat.reshape(-1, _CELL)[left] = np.frombuffer(
            "".join(t.rjust(_CELL) for t in texts).encode("ascii"),
            dtype=np.uint8).reshape(-1, _CELL)
        start[left] = [_CELL - 1 - len(t) for t in texts]
    flat[base + start] = ord(" ")
    packed = flat[_FROM[start].reshape(-1)]
    # Before each row's first cell, whose space ends the word, go the
    # newline that ends the row before and the word; the last newline ends
    # the text.
    ends = np.cumsum((_CELL - start).reshape(len(rows), -1).sum(axis=1))
    names = [word.encode("utf-8") for word in words]
    sizes = np.array([len(name) for name in names] + [0])
    sizes[1:] += 1
    return np.insert(packed, np.repeat(np.concatenate(([0], ends)), sizes),
                     np.frombuffer(b"\n".join(names) + b"\n", dtype=np.uint8)
                     ).tobytes()


def _may_fork() -> bool:
    """Whether this process may use two CPUs and ``os.fork`` exists."""
    return _usable_cpus() >= 2 and hasattr(os, "fork")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1
