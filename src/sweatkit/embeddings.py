"""Word-embedding spaces, the cosine kernel, and exact nearest-neighbor search."""

from __future__ import annotations

import math
import os
import pickle
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .errors import DataError, FormatError, VocabularyError, open_text

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


# Characters per bulk-parse chunk: large enough to amortize one loadtxt call,
# small enough that the chunk's text adds only a few MB to peak memory.
_CHUNK_CHARS = 1 << 20

# ASCII separators that numpy's float parser strips as whitespace but
# float() rejects; a body holding one is left to the row validator.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Most digits of a field that ``_parse_fixed`` reads: its digits m are below
# 10**15 < 2**53, so m and 10**k are exact doubles.
_FIXED_DIGITS = 15


def load_word2vec_text(path: str, label: str | None = None) -> EmbeddingSpace:
    """Load a text-format word2vec file.

    First line is ``<vocab_size> <dimension>``; each following line is a word
    and ``dimension`` space-separated components, optionally followed by one
    trailing space (as the original word2vec tool writes). Any malformed row
    aborts the load with its line number.

    The input is read once, files and pipes alike, a chunk of lines at a
    time. Each chunk is parsed in bulk, fixed-point text by an exact decimal
    kernel, and the matrix grows with the rows read. From the first chunk
    the bulk parse does not accept, the row-by-row validator reads on; it
    alone raises the ``FormatError`` of a row. One UTF-8 byte order mark
    before the header is skipped.
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
        fixed = True  # until a chunk is not fixed-point text
        while lines := fh.readlines(_CHUNK_CHARS):
            block, fixed = _parse_bulk(lines, dim, words, vocab_size, fixed)
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


def _parse_bulk(lines: list[str], dim: int, words: dict, vocab_size: int,
                fixed: bool):
    """``(block, fixed)``. ``block`` is the rows of ``lines`` as a matrix,
    their words added to ``words``; or None, with ``words`` unchanged, if any
    row is not plainly well-formed or repeats a word, or the rows would
    exceed ``vocab_size``. When ``fixed`` is true, ``_parse_fixed`` reads the
    rows first; once it declines, the ``fixed`` returned is False, and the
    rest of the file goes straight to loadtxt.

    Accepts only what ``_parse_rows`` accepts, with bit-identical values:
    numpy's loadtxt converts through the same ``PyOS_string_to_double`` as
    ``float()``, strips the same whitespace except ``_SEPARATORS``, and
    rejects what only ``float()`` reads (underscores, non-ASCII digits).
    """
    if len(words) + len(lines) > vocab_size:
        return None, fixed
    new: dict[str, None] = {}
    bodies = []
    for line in lines:
        word, _, body = line.rstrip("\n").partition(" ")
        if body.endswith(" "):
            body = body[:-1]
        if not body:
            return None, fixed  # loadtxt would skip the row, and warn
        new[word] = None
        bodies.append(body)
    if len(new) != len(lines) or not words.keys().isdisjoint(new):
        return None, fixed
    text = "\n".join(bodies)
    block = _parse_fixed(text, len(bodies), dim) if fixed else None
    if block is None:
        fixed = False
        if any(c in text for c in _SEPARATORS):
            return None, fixed
        try:
            block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ",
                               comments=None, ndmin=2)
        except ValueError:
            return None, fixed
        if block.shape != (len(lines), dim) or not np.isfinite(block).all():
            return None, fixed
    if not block.any(axis=1).all():
        return None, fixed
    words.update(new)
    return block, fixed


def _parse_fixed(text: str, rows: int, dim: int):
    """The ``rows`` lines of ``text`` as a matrix, if every line is ``dim``
    fields joined by single spaces, and every field is ``-?D+.D{k}`` with
    one k >= 1 for all of them and at most ``_FIXED_DIGITS`` digits; None
    otherwise.

    A field's digits m and 10**k are exact doubles, so one division gives
    m / 10**k correctly rounded, and each value equals ``float(field)`` bit
    for bit, ``-0.0`` included (Clinger, "How to Read Floating Point Numbers
    Accurately", PLDI 1990). Digits are gathered a column at a time,
    counted from the end of each field.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii") + b"\n", dtype=np.uint8)
    # Every byte below "-" ends a field: it must be a space inside a row and
    # a newline after the row's last field.
    ends = np.flatnonzero(buf < ord("-"))
    if len(ends) != rows * dim:
        return None
    kinds = buf[ends].reshape(rows, dim)
    if not ((kinds[:, :-1] == ord(" ")).all()
            and (kinds[:, -1] == ord("\n")).all()):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    k = ends[0] - text.find(".", 0, ends[0]) - 1
    neg = buf[starts] == ord("-")
    whole = ends - starts - neg - (k + 1)  # digits before the point
    fewest, most = int(whole.min()), int(whole.max())
    if not (0 < k < ends[0] and fewest >= 1 and most + k <= _FIXED_DIGITS):
        return None
    if not (buf[ends - k - 1] == ord(".")).all():
        return None
    # With the point and any sign in place, every other byte must be a
    # digit: the only bytes that read below 10 once "0" is subtracted, as
    # the bytes below "0" wrap around.
    zero = np.uint8(ord("0"))
    if (np.count_nonzero(buf - zero < 10)
            != len(buf) - 2 * len(ends) - np.count_nonzero(neg)):
        return None
    m = np.zeros(len(ends))
    at = ends.copy()
    for j in range(k + most):
        at -= 2 if j == k else 1  # the digit of weight 10**j, past the point
        column = (buf[at] - zero) * float(10 ** j)
        if j - k >= fewest:  # fields with fewer digits read 0 here
            column[whole <= j - k] = 0.0
        m += column
    values = m / float(10 ** k)
    values *= 1.0 - 2.0 * neg  # sets the sign, of a zero too
    return values.reshape(rows, dim)


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

    A regular file at ``path``, or none, is replaced only once the whole
    text is written (see ``_replacing``), so a write that fails leaves the
    old file or none, never part of the new one.

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
    exact 55 x 63-bit product from 32-bit halves replaces Ryū's 125-bit
    table. Digits are then removed while vp and vm still differ, and the
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
    # mv * 5**i as hi * 2**64 + lo. Every sum here stays below 2**64 but
    # lo's, whose carry is added to hi; uint64 arrays wrap without warning.
    half = np.uint64(32)
    a0, a1 = mv & np.uint64(0xFFFFFFFF), mv >> half
    b0, b1 = pow5 & np.uint64(0xFFFFFFFF), pow5 >> half
    low = a0 * b0
    middle = a0 * b1 + a1 * b0
    lo = low + (middle << half)
    hi = a1 * b1 + (middle >> half) + (lo < low)
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
