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
    missing = set(source.missing(anchors)) | set(target.missing(anchors))
    if missing:
        raise VocabularyError(
            "anchors missing from one of the spaces: " + ", ".join(sorted(missing)),
            missing=missing,
        )

    # One gathered copy per side, centered in place.
    src = source.rows(anchors)
    tgt = target.rows(anchors)
    mu_src = src.mean(axis=0)
    mu_tgt = tgt.mean(axis=0)
    src -= mu_src
    tgt -= mu_tgt

    try:
        u, _, vt = np.linalg.svd(src.T @ tgt)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed during alignment: {exc}") from exc
    rotation = u @ vt
    # Each copy is freed as soon as it is no longer needed, so neither is
    # alive while the aligned space is built.
    del tgt

    # Squared distance of each mapped anchor to its raw target row.
    step = max(1, _BLOCK_BYTES // (8 * source.dimension))
    sq_dist = np.empty(len(anchors))
    for lo in range(0, len(anchors), step):
        diff = src[lo:lo + step] @ rotation
        diff += mu_tgt
        diff -= target.rows(anchors[lo:lo + step])
        sq_dist[lo:lo + step] = np.sum(np.square(diff, out=diff), axis=1)
    residual = float(np.mean(sq_dist))
    del src

    # v -> (v - mu_src) R + mu_tgt, written block by block into one array.
    mapped = np.empty_like(source.matrix)
    for lo in range(0, len(source), step):
        np.matmul(source.matrix[lo:lo + step] - mu_src, rotation,
                  out=mapped[lo:lo + step])
    mapped += mu_tgt
    if not np.isfinite(mapped).all():
        raise DataError(f"space '{source.label}' contains non-finite components")
    aligned = EmbeddingSpace._adopt(source.label, source.words, mapped)
    report = AlignmentReport(
        rotation=rotation,
        anchors_used=anchors,
        residual=residual,
        source_label=source.label,
        target_label=target.label,
        underdetermined=len(anchors) < source.dimension,
    )
    return aligned, report


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
    shared = [w for w in space1.words if w in space2]
    if not shared:
        raise DataError("spaces share no vocabulary; cannot pick anchors")
    if table1 is None or table2 is None:
        return shared
    frequent = [
        w
        for w in shared
        if w in table1
        and w in table2
        and table1.zipf(w) > zipf_threshold
        and table2.zipf(w) > zipf_threshold
    ]
    return frequent if frequent else shared
