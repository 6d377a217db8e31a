"""What the p-value means: rejection rates of the exact test over seeded
SWEAT trials.

Each trial builds a pair of 50-dimensional spaces holding an 8-word topic and
10 + 10 pole words, and runs ``run_sweat`` with the exact test (C(16, 8) =
12,870 partitions) in both tails. A rate r measured over N trials is held to
its target within 3 sigma, sigma = sqrt(r (1 - r) / N) at the target rate.
The trials are seeded, so each rate is one fixed number; the 3-sigma bounds
say how far a correct test can sit from its target on any one set of seeds.
"""

import math

import numpy as np
import pytest

from sweatkit import (EmbeddingSpace, PermutationConfig, PoleWordsets,
                      TopicWordset, run_sweat)

N_TOPIC, N_POLE, DIM = 8, 10, 50
ALPHA = 0.05
EXACT = PermutationConfig(mode="exact")

TOPIC = TopicWordset("t", [f"t{i}" for i in range(N_TOPIC)])
POLES = PoleWordsets("A", "B", [f"a{i}" for i in range(N_POLE)],
                     [f"b{i}" for i in range(N_POLE)])
WORDS = [*TOPIC.words, *POLES.words_a, *POLES.words_b]


def sweat(topic1, topic2, poles):
    """``run_sweat`` of a space pair holding the given topic rows and shared
    pole rows, in each tail: {tail: (score, p)}."""
    space1 = EmbeddingSpace.from_rows("s1", WORDS, np.vstack([topic1, poles]))
    space2 = EmbeddingSpace.from_rows("s2", WORDS, np.vstack([topic2, poles]))
    out = {}
    for tail in ("directional", "two_sided"):
        res = run_sweat(TOPIC, space1, space2, POLES, EXACT, tail)
        out[tail] = (res.score, res.p_value)
    return out


def null_trial(seed):
    """The exchangeable null: each space draws its topic rows afresh, and
    the poles are shared, so the 16 pooled values are exchangeable."""
    rng = np.random.default_rng(seed)
    poles = rng.normal(size=(2 * N_POLE, DIM))
    return sweat(rng.normal(size=(N_TOPIC, DIM)),
                 rng.normal(size=(N_TOPIC, DIM)), poles)


def shifted_trial(seed, delta):
    """Space 2 is space 1 plus N(0, 0.5^2) noise; space 1's topic rows then
    move toward pole A by ``delta`` times their norm, along the unit mean of
    pole A's rows."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(N_TOPIC + 2 * N_POLE, DIM))
    noisy = rows + rng.normal(scale=0.5, size=rows.shape)
    toward_a = rows[N_TOPIC:N_TOPIC + N_POLE].mean(axis=0)
    toward_a /= np.linalg.norm(toward_a)
    topic1 = rows[:N_TOPIC]
    topic1 = topic1 + delta * np.linalg.norm(topic1, axis=1,
                                             keepdims=True) * toward_a
    # Pole rows are those of space 1 in both spaces, so only the topic moves.
    return sweat(topic1, noisy[:N_TOPIC], rows[N_TOPIC:])


def sigma(rate, trials):
    return math.sqrt(rate * (1 - rate) / trials)


@pytest.fixture(scope="module")
def null_runs():
    return [null_trial(seed) for seed in range(1000)]


def rejected(runs, tail, alpha=ALPHA):
    return sum(run[tail][1] <= alpha for run in runs) / len(runs)


class TestExchangeableNull:
    def test_two_sided_rejects_at_most_alpha(self, null_runs):
        rate = rejected(null_runs, "two_sided")
        assert rate <= ALPHA + 3 * sigma(ALPHA, len(null_runs)), rate

    def test_directional_rejects_twice_alpha(self, null_runs):
        # The directional tail follows the sign of the observed score, so
        # either extreme rejects: p <= alpha at 2 alpha of the null draws.
        rate = rejected(null_runs, "directional")
        assert abs(rate - 2 * ALPHA) <= 3 * sigma(2 * ALPHA, len(null_runs)), (
            rate)

    def test_directional_p_at_most_half_away_from_zero(self, null_runs):
        # A partition and its complement score S and about -S, so at most
        # half of them lie on the observed score's side.
        scores = [run["directional"] for run in null_runs]
        assert all(abs(score) > 1e-9 for score, _ in scores)
        assert max(p for _, p in scores) <= 0.5


def test_power_at_a_stated_shift():
    # Measured on these seeds: 0.655 at delta = 0.2 (0.97 at 0.3, none of
    # the 200 at 0). The floor sits more than 3 sigma below 0.655.
    runs = [shifted_trial(seed, 0.2) for seed in range(200)]
    rate = rejected(runs, "directional")
    assert rate >= 0.5, rate
    assert all(run["directional"][0] > 0 for run in runs
               if run["directional"][1] <= ALPHA)
