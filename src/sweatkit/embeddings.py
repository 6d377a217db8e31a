"""Word-embedding spaces, the cosine kernel, and exact nearest-neighbor search."""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, VocabularyError, open_text

# Cosine may exceed [-1, 1] by rounding noise only; anything larger means
# broken inputs rather than float overshoot.
_COSINE_OVERSHOOT = 1e-9


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
        matrix = np.asarray(matrix, dtype=np.float64)
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
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0.0):
            bad = [w for w, n in zip(words, norms) if n == 0.0]
            raise DataError(f"zero-norm vector for words: {', '.join(sorted(bad))}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        unit = matrix / norms[:, None]
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
        """Subset of ``words`` absent from this vocabulary, input order kept."""
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


def nearest_neighbor(space: EmbeddingSpace, query) -> str:
    """Vocabulary word maximizing cosine with ``query``.

    Exact scan over the whole vocabulary; ties break to the
    lexicographically smallest word so results are deterministic.
    """
    if len(space) == 0:
        raise DataError("nearest_neighbor on empty space")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dimension,):
        raise DataError(
            f"query dimension {query.shape} does not match space "
            f"dimension {space.dimension}"
        )
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise DataError("nearest_neighbor undefined for zero-norm query")
    sims = space._unit @ (query / qn)
    best = sims.max()
    candidates = np.flatnonzero(sims == best)
    if len(candidates) == 1:
        return space.words[candidates[0]]
    return min(space.words[i] for i in candidates)


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

    Well-formed files are parsed in bulk, a chunk of rows per numpy call.
    Anything the bulk parse does not accept is re-read by the row-by-row
    validator, which alone raises the ``FormatError``.
    """
    if label is None:
        label = os.path.splitext(os.path.basename(path))[0]
    with open_text(path) as fh:
        vocab_size, dim = _read_header(fh, path)
        parsed = _parse_bulk(fh, vocab_size, dim)
    if parsed is None:
        with open_text(path) as fh:
            fh.readline()
            parsed = _parse_rows(fh, path, vocab_size, dim)
    words, rows = parsed
    return EmbeddingSpace.from_rows(label, words, rows)


def _read_header(fh, path: str) -> tuple[int, int]:
    parts = fh.readline().split()
    if len(parts) != 2:
        raise FormatError(f"{path}:1: header must be '<vocab_size> <dimension>'")
    try:
        vocab_size, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}:1: non-integer header fields") from None
    if vocab_size < 0 or dim <= 0:
        raise FormatError(f"{path}:1: header values out of range")
    return vocab_size, dim


def _parse_bulk(fh, vocab_size: int, dim: int):
    """Rows after the header as ``(words, matrix)``, or None if any row is
    not plainly well-formed.

    Accepts only what ``_parse_rows`` accepts, with bit-identical values:
    numpy's loadtxt converts through the same ``PyOS_string_to_double`` as
    ``float()``, strips the same whitespace except ``_SEPARATORS``, and
    rejects what only ``float()`` reads (underscores, non-ASCII digits).
    """
    words: list[str] = []
    rows = np.empty((vocab_size, dim), dtype=np.float64)
    n = 0
    while True:
        lines = fh.readlines(_CHUNK_CHARS)
        if not lines:
            break
        if n + len(lines) > vocab_size:
            return None
        bodies = []
        for line in lines:
            word, _, body = line.rstrip("\n").partition(" ")
            if body.endswith(" "):
                body = body[:-1]
            if not body:
                return None  # loadtxt would skip the row, and warn
            words.append(word)
            bodies.append(body)
        text = "\n".join(bodies)
        if any(c in text for c in _SEPARATORS):
            return None
        try:
            block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ",
                               comments=None, ndmin=2)
        except ValueError:
            return None
        if block.shape != (len(lines), dim):
            return None
        rows[n:n + len(lines)] = block
        n += len(lines)
    if n != vocab_size or len(set(words)) != n:
        return None
    if not np.isfinite(rows).all() or not rows.any(axis=1).all():
        return None
    return words, rows


def _parse_rows(fh, path: str, vocab_size: int, dim: int):
    """Row-by-row validator: the first malformed row raises a
    ``FormatError`` naming its line."""
    words: list[str] = []
    rows = np.empty((vocab_size, dim), dtype=np.float64)
    seen: set[str] = set()
    n = 0
    for lineno, line in enumerate(fh, start=2):
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
        if word in seen:
            raise FormatError(f"{path}:{lineno}: duplicate word '{word}'")
        try:
            vec = np.fromiter(map(float, fields[1:]), dtype=np.float64, count=dim)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric component") from None
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{lineno}: non-finite component")
        if not np.any(vec):
            raise FormatError(f"{path}:{lineno}: zero-norm vector for '{word}'")
        if n >= vocab_size:
            raise FormatError(
                f"{path}:{lineno}: row count exceeds declared vocab size "
                f"{vocab_size}"
            )
        seen.add(word)
        words.append(word)
        rows[n] = vec
        n += 1
    if n != vocab_size:
        raise FormatError(
            f"{path}: row count mismatch: header declares {vocab_size}, "
            f"found {n}"
        )
    return words, rows


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
        with fork.Pool(workers, _inherit, (space,)) as pool:
            pending = deque()
            for lo, hi in blocks:
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().get())
                pending.append(pool.apply_async(_format_inherited, (lo, hi)))
            for result in pending:
                fh.write(result.get())


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
