"""Statistical core: per-word associations, WEAT/SWEAT scores, effect sizes,
and permutation-test p-values.

All group sums go through math.fsum so scores are independent of word input
order (fsum returns the correctly rounded true sum).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
    "topic_associations",
    "single_word_association",
    "sweat_score",
    "effect_size",
    "permutation_test",
    "require_targets",
    "run_sweat",
    "run_weat",
]

# Absolute slack when comparing permuted statistics against the observed one,
# so ties are not broken by last-ulp summation noise. Association sums live
# in [-2n, 2n] with n small, so this is far below any real difference.
_TIE_EPS = 1e-10

TAILS = ("directional", "two_sided")

# Partitions scored per numpy step of the Monte Carlo test: the test holds
# one block of index rows at a time, whatever the number of samples.
_BLOCK = 1 << 14

# ``auto`` runs the exact test through this many topic words. On 2 vCPU
# (numpy 2.4.6) it took 0.6, 0.9, 2.6, 10.1, 17.5 and 140 ms at n = 11, 12,
# 14, 16, 17 and 20, against 6-9 ms for 10,000 Monte Carlo draws.
AUTO_EXACT_MAX_N = 16

# The exact test runs through this many topic words: it builds 2**n float64
# subset sums per half of the pool, 2^24 of them (128 MiB) at n = 24.
EXACT_MAX_N = 24


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
    """Named word list for the topic under study (or a WEAT target set).
    Error messages start with the field at fault: ``label:`` or ``words:``."""

    label: str
    words: list

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise DataError(f"label: must be a nonempty string, got {self.label!r}")
        self.words = _words(self.words, "words:")
        if not self.words:
            raise DataError(f"words: topic '{self.label}' is empty")
        if len(set(self.words)) != len(self.words):
            raise DataError(f"words: topic '{self.label}' has duplicate words")


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
    """How to run the permutation test. ``auto`` runs ``exact`` for a topic
    of at most AUTO_EXACT_MAX_N words and ``montecarlo`` otherwise, which
    needs 100 samples at least; ``exact`` runs through EXACT_MAX_N words."""

    mode: str = "auto"
    samples: int = 10_000
    seed: int = 0

    def method(self, n: int) -> str:
        """The test that runs for a topic of ``n`` words."""
        if self.mode == "auto":
            return "exact" if n <= AUTO_EXACT_MAX_N else "montecarlo"
        return self.mode

    def errors(self, n: int) -> list:
        """One ``permutations.<field>: ...`` message per rule broken by the
        test that runs for a topic of ``n`` words."""
        errors = []
        if self.mode not in ("exact", "montecarlo", "auto"):
            errors.append("permutations.mode: must be exact, montecarlo or "
                          f"auto, got {self.mode!r}")
        elif self.method(n) == "exact" and n > EXACT_MAX_N:
            errors.append("permutations.mode: exact needs at most "
                          f"{EXACT_MAX_N} topic words, got {n}; use montecarlo")
        for key, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"permutations.{key}: must be an integer, "
                              f"got {value!r}")
            elif value < least:
                errors.append(f"permutations.{key}: must be at least "
                              f"{least}, got {value!r}")
            elif (key == "samples" and value < 100
                  and self.method(n) == "montecarlo"):
                runs = "montecarlo mode" if self.mode == "montecarlo" else (
                    f"auto mode with more than {AUTO_EXACT_MAX_N} topic words")
                errors.append(f"permutations.samples: {runs} needs at least "
                              f"100 samples, got {value!r}")
        return errors

    def validate(self, n: int):
        """Raise a DataError naming every rule ``errors(n)`` names."""
        errors = self.errors(n)
        if errors:
            raise DataError("; ".join(errors))


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

    @classmethod
    def from_associations(cls, topic, pair, poles, cfg, tail):
        """Full SWEAT from the topic's ``Associations`` in each space: the
        per-word values are shared by the score, the effect size and the
        permutation test."""
        s1, s2 = (assoc.values for assoc in pair)
        return cls(
            **_run_test(s1, s2, pair[0].label, pair[1].label, poles, cfg,
                        tail),
            per_word=list(zip(topic.words, s1, s2)),
        )


@dataclass
class WeatResult(_Result):
    """Same shape as SweatResult for the single-space WEAT."""

    per_word_x: list  # (word, s-value)
    per_word_y: list


@dataclass(frozen=True)
class Associations:
    """Cosines of each word of a wordset to every pole word in the space
    labelled ``label``, and their fsum means, in wordset order."""

    label: str
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
        label=space.label,
        delta_a=delta_a,
        delta_b=delta_b,
        mean_a=[math.fsum(row) / len(poles.words_a) for row in delta_a],
        mean_b=[math.fsum(row) / len(poles.words_b) for row in delta_b],
    )


def topic_associations(topic, space1, space2, poles) -> tuple:
    """The topic's ``Associations`` in space1 and in space2. Every output of
    a SWEAT run is a view of this pair."""
    return (associations(topic.words, space1, poles),
            associations(topic.words, space2, poles))


def single_word_association(
    word: str, space: EmbeddingSpace, poles: PoleWordsets
) -> float:
    """Mean cosine of ``word`` to pole A minus mean cosine to pole B."""
    return associations([word], space, poles).values[0]


def require_targets(x: TopicWordset, y: TopicWordset) -> None:
    """WEAT target sets must share no word and, for the permutation test,
    be of equal size."""
    overlap = set(x.words) & set(y.words)
    if overlap:
        raise DataError("target wordsets overlap: " + ", ".join(sorted(overlap)))
    if len(x.words) != len(y.words):
        raise DataError("target wordsets must be of equal size, got "
                        f"{len(x.words)} and {len(y.words)}")


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
    s1, s2 = (assoc.values
              for assoc in topic_associations(topic, space1, space2, poles))
    return math.fsum(s1) - math.fsum(s2)


def effect_size(values_1, values_2) -> float:
    """Standardized mean difference: (mean1 - mean2) / population std of the
    pooled values. The std's sums are fsums too, so the order of the values
    changes no bit of the result."""
    values_1 = list(values_1)
    values_2 = list(values_2)
    if not values_1 or not values_2:
        raise DataError("effect size needs nonempty value lists")
    pooled = values_1 + values_2
    mean = math.fsum(pooled) / len(pooled)
    std = math.sqrt(math.fsum([(v - mean) * (v - mean) for v in pooled])
                    / len(pooled))
    if std == 0.0:
        raise DataError("degenerate association distribution (zero std)")
    mean1 = math.fsum(values_1) / len(values_1)
    mean2 = math.fsum(values_2) / len(values_2)
    return (mean1 - mean2) / std


def _subset_sums(values) -> list:
    """Sums of the subsets of ``values`` by size: entry k holds the sums of
    all C(len(values), k) subsets of k values."""
    sums = [np.zeros(1)]
    for v in values:
        sums = [sums[0], *(np.concatenate((sums[k], sums[k - 1] + v))
                           for k in range(1, len(sums))), sums[-1] + v]
    return sums


def _exact_count(pool, s_obs, tail) -> int:
    """Number of equal-size partitions of ``pool`` scoring at least as
    extreme as ``s_obs``, counted by Horowitz and Sahni's split.

    A partition takes k values from the first half of the pool and n - k
    from the second, with subset sums l and r, and scores 2 (l + r) - total.
    For each k the second half's sums are sorted once, and each sum of the
    first half finds its count of partners past the bound by bisection: about
    n 2**n steps instead of C(2n, n).
    """
    n = len(pool) // 2
    pool = np.asarray(pool, dtype=np.float64)
    total = pool.sum()
    # Swapping a partition's groups turns its score s into -s, so as many
    # partitions score at most -bound as at least bound: whatever the sign
    # of s_obs, the count takes scores of at least bound (|s_obs| less the
    # slack of ``_tail_fraction``), doubled for two_sided.
    bound = abs(s_obs) - _TIE_EPS
    if tail == "two_sided" and bound <= 0:
        return math.comb(2 * n, n)
    left, right = _subset_sums(pool[:n]), _subset_sums(pool[n:])
    count = 0
    for k in range(n + 1):
        sums_l, sums_r = left[k], right[n - k]
        sums_r.sort()
        # 2 (l + r) - total >= bound where r >= (bound + total) / 2 - l.
        below = int(np.searchsorted(sums_r, (bound + total) / 2 - sums_l).sum())
        count += len(sums_l) * len(sums_r) - below
    return 2 * count if tail == "two_sided" else count


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
    """Monte Carlo p-value (b + 1) / (m + 1), never 0 (Phipson and Smyth,
    2010), where b of the m partitions in ``blocks`` score at least as
    extreme as ``s_obs``; and m. Draws index the pool in ascending order,
    -0.0 before 0.0, so the pool's order does not matter. Each index row is
    group 1, scoring 2 * sum(group 1) - sum(pool)."""
    pool = np.array(sorted(pool, key=lambda v: (v, math.copysign(1.0, v))))
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
    return (count + 1) / (seen + 1), seen


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
    if tail not in TAILS:
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
    cfg.validate(n)
    s_obs = math.fsum(values_1) - math.fsum(values_2)
    pool = values_1 + values_2

    method = cfg.method(n)
    if method == "exact":
        total = math.comb(2 * n, n)
        p = _exact_count(pool, s_obs, tail) / total
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
    """Full SWEAT of ``topic`` across the two spaces."""
    return SweatResult.from_associations(
        topic, topic_associations(topic, space1, space2, poles), poles, cfg,
        tail)


def run_weat(
    x: TopicWordset,
    y: TopicWordset,
    space: EmbeddingSpace,
    poles: PoleWordsets,
    cfg: PermutationConfig | None = None,
    tail: str = "directional",
) -> WeatResult:
    """Full WEAT within one space, reported in the same shape as SWEAT. Its
    score is the sum of X associations minus the sum of Y associations; the
    permutation test needs target sets of equal size."""
    require_targets(x, y)
    sx = associations(x.words, space, poles).values
    sy = associations(y.words, space, poles).values
    return WeatResult(
        **_run_test(sx, sy, x.label, y.label, poles, cfg, tail),
        per_word_x=list(zip(x.words, sx)),
        per_word_y=list(zip(y.words, sy)),
    )
