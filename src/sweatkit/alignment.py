"""Orthogonal Procrustes alignment of two embedding spaces and the
cross-space round-trip stability test."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .embeddings import EmbeddingSpace, nearest_neighbors
from .errors import DataError, VocabularyError

# Largest block of rows ``procrustes_align`` reads or maps at once, in bytes
# of float64: each block's temporaries add about this much to peak memory.
_BLOCK_BYTES = 1 << 22


@dataclass
class AlignmentReport:
    rotation: np.ndarray
    anchors_used: list
    residual: float
    source_label: str
    target_label: str
    underdetermined: bool = False

    def to_dict(self) -> dict:
        return {
            "source_label": self.source_label,
            "target_label": self.target_label,
            "n_anchors": len(self.anchors_used),
            "residual": self.residual,
            "underdetermined": self.underdetermined,
        }


def procrustes_align(
    source: EmbeddingSpace, target: EmbeddingSpace, anchors
) -> tuple[EmbeddingSpace, AlignmentReport]:
    """Map ``source`` into ``target``'s coordinate system.

    Solves min_R sum over anchors of ||E_src(w) R - E_tgt(w)||^2 over
    orthogonal R via SVD of the anchor cross-covariance. Anchor matrices are
    mean-centered before solving and the centering offsets are folded into
    the returned space: v -> (v - mu_src) R + mu_tgt. The cross-covariance,
    the map and the residual run over blocks of rows, so no centered copy
    of either space is made.
    """
    anchors = list(anchors)
    if not anchors:
        raise DataError("no anchors given for alignment")
    if source.dimension != target.dimension:
        raise DataError(
            f"dimension mismatch: {source.dimension} vs {target.dimension}"
        )
    at_src, at_tgt = _positions(source, anchors), _positions(target, anchors)
    if any(at is not None and np.min(at) < 0 for at in (at_src, at_tgt)):
        missing = {w for space in (source, target)
                   for w in space.missing(anchors)}
        raise VocabularyError(
            "anchors missing from one of the spaces: " + ", ".join(sorted(missing)),
            missing=missing,
        )

    # The means weigh each row by how often it is an anchor, so no row is
    # gathered. Centered anchors span at most n - 1 dimensions, so the
    # rotation is unique only from d + 1 distinct anchors.
    weights = _weights(source, at_src)
    underdetermined = bool(np.count_nonzero(weights) <= source.dimension)
    mu_src = weights @ source.matrix / len(anchors)
    mu_tgt = _weights(target, at_tgt) @ target.matrix / len(anchors)

    step = max(1, _BLOCK_BYTES // (8 * source.dimension))
    parts = [slice(lo, lo + step) for lo in range(0, len(anchors), step)]
    cov = sum(_rows_less(source.matrix, at_src, part, mu_src).T
              @ _rows_less(target.matrix, at_tgt, part, mu_tgt)
              for part in parts)
    try:
        u, _, vt = np.linalg.svd(cov)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed during alignment: {exc}") from exc
    rotation = u @ vt

    # v -> (v - mu_src) R + mu_tgt, written block by block into one array.
    mapped = np.empty_like(source.matrix)
    for lo in range(0, len(source), step):
        block = mapped[lo:lo + step]
        np.matmul(source.matrix[lo:lo + step] - mu_src, rotation, out=block)
        block += mu_tgt
        if not np.isfinite(block).all():
            raise DataError(
                f"space '{source.label}' contains non-finite components")
    aligned = EmbeddingSpace._adopt(source.label, source.words, mapped)

    # Squared distance of each aligned anchor to its raw target row.
    sq_dist = np.empty(len(anchors))
    for part in parts:
        diff = _rows_less(aligned.matrix, at_src, part,
                          _rows(target.matrix, at_tgt, part))
        sq_dist[part] = np.sum(np.square(diff, out=diff), axis=1)
    residual = float(np.mean(sq_dist))

    report = AlignmentReport(
        rotation=rotation,
        anchors_used=anchors,
        residual=residual,
        source_label=source.label,
        target_label=target.label,
        underdetermined=underdetermined,
    )
    return aligned, report


def _positions(space: EmbeddingSpace, words: list):
    """Row of each of ``words`` in ``space`` as an array, -1 for a word it
    lacks; or None for all when ``words`` are its vocabulary in order, so
    that ``_rows`` reads them as slices instead of gathers."""
    if len(words) == len(space) and tuple(words) == space.words:
        return None
    return np.fromiter(map(space._index.get, words, repeat(-1)),
                       dtype=np.intp, count=len(words))


def _rows(matrix: np.ndarray, at, part: slice) -> np.ndarray:
    """Rows ``part`` of the rows of ``matrix`` at positions ``at``, as
    ``_positions`` gives them."""
    return matrix[part] if at is None else matrix[at[part]]


def _rows_less(matrix: np.ndarray, at, part: slice, other) -> np.ndarray:
    """``_rows(matrix, at, part) - other`` in a fresh array: a gather is one
    already, so it is written in place."""
    rows = _rows(matrix, at, part)
    return np.subtract(rows, other, out=None if at is None else rows)


def _weights(space: EmbeddingSpace, at) -> np.ndarray:
    """How often each row of ``space`` is at positions ``at``, as
    ``_positions`` gives them."""
    return (np.ones(len(space)) if at is None
            else np.bincount(at, minlength=len(space)))


def round_trip_stability(
    words, space1: EmbeddingSpace, space2: EmbeddingSpace
) -> list[bool]:
    """For each of ``words``, in order, whether the word's vector in either
    space has the word itself as its nearest neighbor in the other space.
    Assumes aligned coordinates. One batched search runs from space 1 into
    space 2, then one back for the words that passed the first."""
    words = list(words)
    space1.require(words)
    space2.require(words)
    there = nearest_neighbors(space2, space1.rows(words))
    passed = [i for i, (w, nn) in enumerate(zip(words, there)) if nn == w]
    back = nearest_neighbors(space1, space2.rows([words[i] for i in passed]))
    stable = [False] * len(words)
    for i, nn in zip(passed, back):
        stable[i] = nn == words[i]
    return stable


def default_anchors(
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    table1=None,
    table2=None,
    zipf_threshold: float = 5.0,
) -> list[str]:
    """Anchor choice for ``--anchors auto``: shared-vocabulary words with
    Zipf score above threshold in both tables, else the full shared vocab.

    Kept in vocabulary order of ``space1`` for determinism.
    """
    shared = list(filter(space2._index.__contains__, space1.words))
    if not shared:
        raise DataError("spaces share no vocabulary; cannot pick anchors")
    if table1 is None or table2 is None:
        return shared

    def above(table) -> list:
        # Whether each shared word's score passes. A Zipf score depends on
        # the count only: one call per distinct count, through one of its
        # words.
        counts = list(map(table.counts.get, shared))
        by_count = dict(zip(counts, shared))
        by_count.pop(None, None)  # words the table lacks
        passes = {c: table.zipf(w) > zipf_threshold
                  for c, w in by_count.items()}
        return list(map(passes.get, counts))

    frequent = [w for w, ok1, ok2 in zip(shared, above(table1), above(table2))
                if ok1 and ok2]
    return frequent if frequent else shared
