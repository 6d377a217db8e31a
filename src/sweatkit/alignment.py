"""Orthogonal Procrustes alignment of two embedding spaces and the
cross-space round-trip stability test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, nearest_neighbors
from .errors import DataError, VocabularyError

# Largest block of rows ``procrustes_align`` maps at once, in bytes of
# float64: each block's temporaries add about this much to peak memory.
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
    the returned space: v -> (v - mu_src) R + mu_tgt.
    """
    anchors = list(anchors)
    if not anchors:
        raise DataError("no anchors given for alignment")
    if source.dimension != target.dimension:
        raise DataError(
            f"dimension mismatch: {source.dimension} vs {target.dimension}"
        )
    at_src, at_tgt = _positions(source, anchors), _positions(target, anchors)
    missing = {w for at in (at_src, at_tgt) if at is not None
               for w, i in zip(anchors, at) if i is None}
    if missing:
        raise VocabularyError(
            "anchors missing from one of the spaces: " + ", ".join(sorted(missing)),
            missing=missing,
        )

    src, mu_src = _centered(source.matrix, at_src)
    tgt, mu_tgt = _centered(target.matrix, at_tgt)

    try:
        u, _, vt = np.linalg.svd(src.T @ tgt)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed during alignment: {exc}") from exc
    rotation = u @ vt
    # Each copy is freed, or becomes the aligned matrix, as soon as it is
    # no longer needed.
    del tgt

    # v -> (v - mu_src) R + mu_tgt, written block by block into one array:
    # when the anchors are every source row in order, into their centered
    # copy itself.
    step = max(1, _BLOCK_BYTES // (8 * source.dimension))
    if at_src is None:
        mapped = src
    else:
        del src
        mapped = np.empty_like(source.matrix)
    for lo in range(0, len(source), step):
        block = mapped[lo:lo + step]
        np.matmul(block if at_src is None
                  else source.matrix[lo:lo + step] - mu_src,
                  rotation, out=block)
        block += mu_tgt
        if not np.isfinite(block).all():
            raise DataError(
                f"space '{source.label}' contains non-finite components")
    aligned = EmbeddingSpace._adopt(source.label, source.words, mapped)

    # Squared distance of each aligned anchor to its raw target row.
    sq_dist = np.empty(len(anchors))
    for lo in range(0, len(anchors), step):
        part = slice(lo, lo + step)
        diff = (_rows(aligned.matrix, at_src, part)
                - _rows(target.matrix, at_tgt, part))
        sq_dist[part] = np.sum(np.square(diff, out=diff), axis=1)
    residual = float(np.mean(sq_dist))

    report = AlignmentReport(
        rotation=rotation,
        anchors_used=anchors,
        residual=residual,
        source_label=source.label,
        target_label=target.label,
        underdetermined=len(anchors) < source.dimension,
    )
    return aligned, report


def _positions(space: EmbeddingSpace, words: list):
    """Row of each of ``words`` in ``space``, None for a word it lacks; or
    None for all when ``words`` are its vocabulary in order, so that
    ``_rows`` reads them as slices instead of gathers."""
    if len(words) == len(space) and tuple(words) == space.words:
        return None
    return [space._index.get(w) for w in words]


def _rows(matrix: np.ndarray, at, part: slice = slice(None)) -> np.ndarray:
    """Rows ``part`` of the rows of ``matrix`` at positions ``at``, as
    ``_positions`` gives them."""
    return matrix[part] if at is None else matrix[at[part]]


def _centered(matrix: np.ndarray, at) -> tuple[np.ndarray, np.ndarray]:
    """A fresh array of the rows of ``matrix`` at ``at`` less their mean,
    and the mean: one copy, gathered or not, centered in place."""
    rows = _rows(matrix, at)
    mean = rows.mean(axis=0)
    if at is None:
        return rows - mean, mean
    rows -= mean
    return rows, mean


def round_trip_stable(
    word: str, space1: EmbeddingSpace, space2: EmbeddingSpace
) -> bool:
    """True iff the word's vector in either space has the word itself as the
    nearest neighbor in the other space. Assumes aligned coordinates; the
    one-word case of ``round_trip_stability``."""
    return round_trip_stability([word], space1, space2)[0]


def round_trip_stability(
    words, space1: EmbeddingSpace, space2: EmbeddingSpace
) -> list[bool]:
    """For each of ``words``, in order, whether ``round_trip_stable`` holds:
    one batched search from space 1 into space 2, then one back for the
    words that passed the first."""
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
