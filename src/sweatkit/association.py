"""Statistical core: per-word associations, WEAT/SWEAT scores, effect sizes,
and permutation-test p-values.

All group sums go through math.fsum so scores are independent of word input
order (fsum returns the correctly rounded true sum).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, combinations, islice

import numpy as np

from .embeddings import EmbeddingSpace, cosines
from .errors import DataError

__all__ = [
    "PoleWordsets",
    "TopicWordset",
    "PermutationConfig",
    "SweatResult",
    "WeatResult",
    "Associations",
    "associations",
    "single_word_association",
    "weat_score",
    "sweat_score",
    "effect_size",
    "permutation_test",
    "run_sweat",
    "run_weat",
]

# Absolute slack when comparing permuted statistics against the observed one,
# so ties are not broken by last-ulp summation noise. Association sums live
# in [-2n, 2n] with n small, so this is far below any real difference.
_TIE_EPS = 1e-10

# Partitions scored per numpy step of the permutation test: the test holds
# one block of index rows at a time, whatever the number of partitions.
_BLOCK = 1 << 14


def _words(words, what: str) -> list:
    """``words`` as a list; anything but a sequence of nonempty strings is a
    DataError."""
    if isinstance(words, (list, tuple)) and all(
        isinstance(w, str) and w for w in words
    ):
        return list(words)
    raise DataError(f"{what} must be a list of nonempty strings")


@dataclass
class TopicWordset:
    """Named word list for the topic under study (or a WEAT target set)."""

    label: str
    words: list

    def __post_init__(self):
        self.words = _words(self.words, f"topic wordset '{self.label}'")
        if not self.words:
            raise DataError(f"topic wordset '{self.label}' is empty")
        if len(set(self.words)) != len(self.words):
            raise DataError(f"topic wordset '{self.label}' has duplicate words")


@dataclass
class PoleWordsets:
    """The two attribute wordsets of opposite valence."""

    label_a: str
    label_b: str
    words_a: list
    words_b: list

    def __post_init__(self):
        for label in (self.label_a, self.label_b):
            if not isinstance(label, str) or not label:
                raise DataError(
                    f"pole labels must be nonempty strings, got {label!r}"
                )
        self.words_a = _words(self.words_a, f"pole '{self.label_a}'")
        self.words_b = _words(self.words_b, f"pole '{self.label_b}'")
        if not self.words_a or not self.words_b:
            raise DataError("pole wordsets must both be nonempty")
        if len(set(self.words_a)) != len(self.words_a):
            raise DataError(f"pole '{self.label_a}' has duplicate words")
        if len(set(self.words_b)) != len(self.words_b):
            raise DataError(f"pole '{self.label_b}' has duplicate words")
        overlap = set(self.words_a) & set(self.words_b)
        if overlap:
            raise DataError(
                "pole wordsets overlap: " + ", ".join(sorted(overlap))
            )


@dataclass
class PermutationConfig:
    """How to run the permutation test.

    ``auto`` enumerates every partition when C(2n, n) <= exact_limit and
    falls back to seeded Monte Carlo sampling otherwise.
    """

    mode: str = "auto"
    samples: int = 10_000
    seed: int = 0
    exact_limit: int = 500_000

    def validate(self):
        if self.mode not in ("exact", "montecarlo", "auto"):
            raise DataError(f"unknown permutation mode '{self.mode}'")
        if self.mode == "montecarlo" and self.samples < 100:
            raise DataError("montecarlo mode needs at least 100 samples")
        if self.exact_limit < 1:
            raise DataError("exact_limit must be >= 1")


@dataclass
class _Result:
    """Score, effect size and significance shared by SWEAT and WEAT."""

    score: float
    effect_size: float
    p_value: float
    tail: str
    n_permutations: int
    method: str
    associations: list  # ["<space or target label> ~ <pole label>", ...]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweatResult(_Result):
    """Score, effect size and significance for one SWEAT run."""

    per_word: list  # (word, s-value in space1, s-value in space2)


@dataclass
class WeatResult(_Result):
    """Same shape as SweatResult for the single-space WEAT."""

    per_word_x: list  # (word, s-value)
    per_word_y: list


@dataclass(frozen=True)
class Associations:
    """Cosines of each word of a wordset to every pole word in one space,
    and their fsum means, in wordset order."""

    delta_a: list  # per word, the cosines to each word of pole A
    delta_b: list
    mean_a: list
    mean_b: list

    @property
    def values(self) -> list:
        """s(w) = mean cos(w, A) - mean cos(w, B) for each word."""
        return [a - b for a, b in zip(self.mean_a, self.mean_b)]


def associations(words, space: EmbeddingSpace, poles: PoleWordsets) -> Associations:
    """Pole associations of ``words`` in ``space``.

    Each pole is its own cosine block, never stacked with the other, so
    swapping the poles swaps the blocks bit for bit.
    """
    space.require([*words, *poles.words_a, *poles.words_b], "association inputs")
    delta_a = cosines(space, words, poles.words_a).tolist()
    delta_b = cosines(space, words, poles.words_b).tolist()
    return Associations(
        delta_a=delta_a,
        delta_b=delta_b,
        mean_a=[math.fsum(row) / len(poles.words_a) for row in delta_a],
        mean_b=[math.fsum(row) / len(poles.words_b) for row in delta_b],
    )


def single_word_association(
    word: str, space: EmbeddingSpace, poles: PoleWordsets
) -> float:
    """Mean cosine of ``word`` to pole A minus mean cosine to pole B."""
    return associations([word], space, poles).values[0]


def _target_values(x, y, space, poles) -> tuple[list, list]:
    """Per-word associations of two WEAT target sets, which must not
    overlap."""
    overlap = set(x.words) & set(y.words)
    if overlap:
        raise DataError("target wordsets overlap: " + ", ".join(sorted(overlap)))
    return (associations(x.words, space, poles).values,
            associations(y.words, space, poles).values)


def weat_score(
    x: TopicWordset, y: TopicWordset, space: EmbeddingSpace, poles: PoleWordsets
) -> float:
    """Sum of X associations minus sum of Y associations in one space."""
    sx, sy = _target_values(x, y, space, poles)
    return math.fsum(sx) - math.fsum(sy)


def sweat_score(
    topic: TopicWordset,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    poles: PoleWordsets,
) -> float:
    """Summed associations in space1 minus summed associations in space2.

    Positive sign: the topic leans toward pole A in space1 relative to
    space2; negative sign is the reverse.
    """
    s1 = associations(topic.words, space1, poles).values
    s2 = associations(topic.words, space2, poles).values
    return math.fsum(s1) - math.fsum(s2)


def effect_size(values_1, values_2) -> float:
    """Standardized mean difference: (mean1 - mean2) / population std of the
    pooled values."""
    values_1 = list(values_1)
    values_2 = list(values_2)
    if not values_1 or not values_2:
        raise DataError("effect size needs nonempty value lists")
    pooled = np.array(values_1 + values_2, dtype=np.float64)
    std = float(pooled.std(ddof=0))
    if std == 0.0:
        raise DataError("degenerate association distribution (zero std)")
    mean1 = math.fsum(values_1) / len(values_1)
    mean2 = math.fsum(values_2) / len(values_2)
    return (mean1 - mean2) / std


def _exact_blocks(size: int, n: int):
    """Every n-subset of range(size), as blocks of index rows."""
    subsets = combinations(range(size), n)
    while True:
        flat = chain.from_iterable(islice(subsets, _BLOCK))
        block = np.fromiter(flat, dtype=np.intp).reshape(-1, n)
        if not len(block):
            return
        yield block


def _montecarlo_blocks(size: int, n: int, samples: int, seed: int):
    """``samples`` random n-subsets of range(size), as blocks of index rows.

    Rows come from one seeded stream whose values do not depend on the
    block size, so the p-value does not either.
    """
    rng = np.random.default_rng(seed)
    for done in range(0, samples, _BLOCK):
        m = min(_BLOCK, samples - done)
        yield np.argsort(rng.random((m, size)), axis=1)[:, :n]


def _tail_fraction(pool, blocks, s_obs, tail):
    """Share of the partitions in ``blocks`` scoring at least as extreme as
    ``s_obs``, and their number. Each index row is group 1, so a partition
    scores sum(group 1) - sum(group 2) = 2 * sum(group 1) - sum(pool)."""
    pool = np.asarray(pool, dtype=np.float64)
    total = pool.sum()
    # Orient scores so that "at least as extreme" reads >= in every tail.
    if tail == "two_sided":
        orient = np.abs
    else:
        orient = np.positive if s_obs >= 0 else np.negative
    bound = orient(s_obs) - _TIE_EPS
    count = seen = 0
    for idx in blocks:
        s_perm = 2.0 * pool[idx].sum(axis=1) - total
        count += int(np.count_nonzero(orient(s_perm) >= bound))
        seen += len(idx)
    return count / seen, seen


def permutation_test(
    values_1,
    values_2,
    cfg: PermutationConfig | None = None,
    tail: str = "directional",
):
    """Significance of S = sum(values_1) - sum(values_2) over equal-size
    re-partitions of the pooled values.

    Directional tail counts permuted scores at least as extreme in the
    direction of the observed score; two_sided compares absolute values.
    Returns (p_value, n_permutations, method, tail).
    """
    cfg = cfg or PermutationConfig()
    cfg.validate()
    if tail not in ("directional", "two_sided"):
        raise DataError(f"unknown tail '{tail}'")
    values_1 = list(values_1)
    values_2 = list(values_2)
    n = len(values_1)
    if n == 0 or len(values_2) == 0:
        raise DataError("permutation test needs nonempty groups")
    if len(values_2) != n:
        raise DataError(
            f"permutation test requires equal group sizes, got {n} and "
            f"{len(values_2)}"
        )
    s_obs = math.fsum(values_1) - math.fsum(values_2)
    pool = values_1 + values_2

    method = cfg.mode
    if method == "auto":
        method = "exact" if math.comb(2 * n, n) <= cfg.exact_limit else "montecarlo"
    if method == "exact":
        blocks = _exact_blocks(2 * n, n)
    else:
        blocks = _montecarlo_blocks(2 * n, n, cfg.samples, cfg.seed)
    p, total = _tail_fraction(pool, blocks, s_obs, tail)
    return p, total, method, tail


def _run_test(values_1, values_2, label_1, label_2, poles, cfg, tail) -> dict:
    """The fields of a result shared by SWEAT and WEAT, from the per-word
    values of its two groups."""
    score = math.fsum(values_1) - math.fsum(values_2)
    d = effect_size(values_1, values_2)
    p, total, method, tail = permutation_test(values_1, values_2, cfg, tail)
    # Sign of exact zero reads as non-negative: first group ~ pole A.
    if score >= 0:
        labels = [f"{label_1} ~ {poles.label_a}", f"{label_2} ~ {poles.label_b}"]
    else:
        labels = [f"{label_1} ~ {poles.label_b}", f"{label_2} ~ {poles.label_a}"]
    return dict(score=score, effect_size=d, p_value=p, tail=tail,
                n_permutations=total, method=method, associations=labels)


def run_sweat(
    topic: TopicWordset,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    poles: PoleWordsets,
    cfg: PermutationConfig | None = None,
    tail: str = "directional",
) -> SweatResult:
    """Full SWEAT: per-word values computed once and shared by the score,
    the effect size, and the permutation test."""
    s1 = associations(topic.words, space1, poles).values
    s2 = associations(topic.words, space2, poles).values
    return SweatResult(
        **_run_test(s1, s2, space1.label, space2.label, poles, cfg, tail),
        per_word=list(zip(topic.words, s1, s2)),
    )


def run_weat(
    x: TopicWordset,
    y: TopicWordset,
    space: EmbeddingSpace,
    poles: PoleWordsets,
    cfg: PermutationConfig | None = None,
    tail: str = "directional",
) -> WeatResult:
    """Full WEAT within one space, reported in the same shape as SWEAT. The
    permutation test needs target sets of equal size."""
    sx, sy = _target_values(x, y, space, poles)
    return WeatResult(
        **_run_test(sx, sy, x.label, y.label, poles, cfg, tail),
        per_word_x=list(zip(x.words, sx)),
        per_word_y=list(zip(y.words, sy)),
    )
