import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweatkit.association as association

from sweatkit import (
    DataError,
    EmbeddingSpace,
    PermutationConfig,
    PoleWordsets,
    TopicWordset,
    VocabularyError,
    effect_size,
    permutation_test,
    run_sweat,
    run_weat,
    single_word_association,
    sweat_score,
)
from sweatkit.embeddings import cosine, cosines

from conftest import make_space, random_space


def brute_force_effect_size(values_1, values_2):
    """Independent recomputation with naive mean/std code."""
    m1 = sum(values_1) / len(values_1)
    m2 = sum(values_2) / len(values_2)
    pooled = list(values_1) + list(values_2)
    mean = sum(pooled) / len(pooled)
    var = sum((v - mean) ** 2 for v in pooled) / len(pooled)
    return (m1 - m2) / math.sqrt(var)


def brute_force_exact_p(values_1, values_2, tail="directional"):
    """Enumerate every equal-size partition of the pooled values."""
    pool = list(values_1) + list(values_2)
    n = len(values_1)
    s_obs = sum(values_1) - sum(values_2)
    count = total = 0
    for idx in combinations(range(len(pool)), n):
        s = sum(pool[i] for i in idx) - sum(
            pool[i] for i in range(len(pool)) if i not in idx
        )
        total += 1
        if tail == "two_sided":
            hit = abs(s) >= abs(s_obs) - 1e-12
        elif s_obs >= 0:
            hit = s >= s_obs - 1e-12
        else:
            hit = s <= s_obs + 1e-12
        if hit:
            count += 1
    return count / total, total


def dyadic_groups(scale):
    """Two groups of n <= 7 multiples of 1 / ``scale`` in [-1, 1]. Every
    subset sum is exact, so partitions that tie do so exactly, and distinct
    scores differ far beyond any slack; a small ``scale`` gives many ties."""
    value = st.integers(-scale, scale).map(lambda x: x / scale)
    return st.integers(1, 7).flatmap(lambda n: st.tuples(
        *[st.lists(value, min_size=n, max_size=n)] * 2))


class TestSingleWordAssociation:
    def test_hand_value(self):
        space = make_space("s", {"w": (1.0, 0.0), "a": (1.0, 0.0), "b": (0.0, 1.0)})
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        assert single_word_association("w", space, poles) == 1.0

    def test_identical_pole_vectors_cancel(self):
        space = make_space(
            "s", {"w": (0.3, 0.7), "a": (1.0, 2.0), "b": (2.0, 4.0)}
        )
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        # a and b point the same way, so the means cancel.
        assert abs(single_word_association("w", space, poles)) <= 1e-15

    def test_pole_swap_negates(self):
        rng = np.random.default_rng(0)
        words = ["w", "a1", "a2", "b1", "b2"]
        space = random_space(rng, "s", words, 4)
        poles = PoleWordsets("A", "B", ["a1", "a2"], ["b1", "b2"])
        swapped = PoleWordsets("B", "A", ["b1", "b2"], ["a1", "a2"])
        assert single_word_association("w", space, poles) == -(
            single_word_association("w", space, swapped)
        )

    def test_unequal_poles_each_mean_over_its_own_size(self):
        space = make_space("s", {"w": (1.0, 0.0), "a": (1.0, 0.0),
                                 "b1": (0.0, 1.0), "b2": (-1.0, 0.0)})
        poles = PoleWordsets("A", "B", ["a"], ["b1", "b2"])
        # 1 - (0 + -1) / 2
        assert single_word_association("w", space, poles) == 1.5

    def test_missing_words_named(self):
        space = make_space("s", {"w": (1.0, 0.0), "a": (0.0, 1.0)})
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        with pytest.raises(VocabularyError, match="b"):
            single_word_association("w", space, poles)


class TestScores:
    def test_weat_2d_toy(self):
        space = make_space(
            "s",
            {"x": (1.0, 0.0), "y": (0.0, 1.0), "a": (1.0, 0.0), "b": (0.0, 1.0)},
        )
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        s = run_weat(
            TopicWordset("X", ["x"]), TopicWordset("Y", ["y"]), space, poles
        ).score
        assert s == 2.0

    def test_weat_swap_negates(self):
        rng = np.random.default_rng(1)
        words = ["x1", "x2", "y1", "y2", "a1", "a2", "b1", "b2"]
        space = random_space(rng, "s", words, 5)
        poles = PoleWordsets("A", "B", ["a1", "a2"], ["b1", "b2"])
        x = TopicWordset("X", ["x1", "x2"])
        y = TopicWordset("Y", ["y1", "y2"])
        assert (run_weat(x, y, space, poles).score
                == -run_weat(y, x, space, poles).score)

    def test_weat_rejects_overlap(self):
        space = make_space(
            "s", {"x": (1.0, 0.0), "a": (1.0, 0.0), "b": (0.0, 1.0)}
        )
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        with pytest.raises(DataError, match="overlap"):
            run_weat(
                TopicWordset("X", ["x"]), TopicWordset("Y", ["x"]), space, poles
            )

    def test_sweat_2d_toy(self, toy_pair):
        space1, space2, topic, poles = toy_pair
        assert sweat_score(topic, space1, space2, poles) == 2.0

    def test_sweat_identical_spaces_zero(self):
        rng = np.random.default_rng(2)
        words = ["w1", "w2", "a", "b"]
        space = random_space(rng, "s", words, 6)
        topic = TopicWordset("t", ["w1", "w2"])
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        assert sweat_score(topic, space, space, poles) == 0.0

    def test_sweat_antisymmetries(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(4)] + ["a1", "a2", "b1", "b2"]
        space1 = random_space(rng, "s1", words, 5)
        space2 = random_space(rng, "s2", words, 5)
        topic = TopicWordset("t", [f"w{i}" for i in range(4)])
        poles = PoleWordsets("A", "B", ["a1", "a2"], ["b1", "b2"])
        swapped = PoleWordsets("B", "A", ["b1", "b2"], ["a1", "a2"])
        s = sweat_score(topic, space1, space2, poles)
        assert abs(s + sweat_score(topic, space2, space1, poles)) <= 1e-12
        assert abs(s + sweat_score(topic, space1, space2, swapped)) <= 1e-12

    def test_sweat_scale_invariance(self):
        rng = np.random.default_rng(4)
        words = ["w1", "w2", "a", "b"]
        space1 = random_space(rng, "s1", words, 4)
        space2 = random_space(rng, "s2", words, 4)
        topic = TopicWordset("t", ["w1", "w2"])
        poles = PoleWordsets("A", "B", ["a"], ["b"])
        from sweatkit.embeddings import EmbeddingSpace

        scaled1 = EmbeddingSpace.from_rows("s1", words, space1.matrix * 3.0)
        scaled2 = EmbeddingSpace.from_rows("s2", words, space2.matrix * 3.0)
        s = sweat_score(topic, space1, space2, poles)
        assert sweat_score(topic, scaled1, scaled2, poles) == pytest.approx(
            s, abs=1e-9
        )


class TestEffectSize:
    def test_one_vs_minus_one(self):
        assert effect_size([1.0], [-1.0]) == 2.0

    def test_symmetric_zero(self):
        assert effect_size([0.5, -0.5], [-0.5, 0.5]) == 0.0

    def test_degenerate_distribution(self):
        with pytest.raises(DataError, match="degenerate"):
            effect_size([0.5, 0.5], [0.5, 0.5])

    def test_empty_group(self):
        with pytest.raises(DataError,
                           match="^effect size needs nonempty value lists$"):
            effect_size([], [1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v1 = rng.normal(size=6).tolist()
            v2 = rng.normal(size=6).tolist()
            assert effect_size(v1, v2) == pytest.approx(
                brute_force_effect_size(v1, v2), abs=1e-12
            )

    def test_sign_matches_mean_difference(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v1 = rng.normal(size=4).tolist()
            v2 = rng.normal(size=4).tolist()
            d = effect_size(v1, v2)
            diff = sum(v1) / 4 - sum(v2) / 4
            if diff != 0:
                assert math.copysign(1, d) == math.copysign(1, diff)


class TestPermutationTest:
    def test_two_value_exact(self):
        # Partitions of {1, -1}: ({1},{-1}) -> 2 and ({-1},{1}) -> -2.
        p, total, method, tail = permutation_test(
            [1.0], [-1.0], PermutationConfig(mode="exact")
        )
        assert (p, total, method, tail) == (0.5, 2, "exact", "directional")

    def test_all_equal_p_one(self):
        p, _, _, _ = permutation_test([0.3] * 3, [0.3] * 3,
                                      PermutationConfig(mode="exact"))
        assert p == 1.0

    def test_all_equal_p_one_montecarlo(self):
        p, total, method, _ = permutation_test(
            [0.3] * 3, [0.3] * 3,
            PermutationConfig(mode="montecarlo", samples=500, seed=9),
        )
        assert p == 1.0
        assert total == 500
        assert method == "montecarlo"

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v1 = rng.normal(size=4).tolist()
            v2 = rng.normal(size=4).tolist()
            for tail in ("directional", "two_sided"):
                p, total, _, _ = permutation_test(
                    v1, v2, PermutationConfig(mode="exact"), tail
                )
                p_ref, total_ref = brute_force_exact_p(v1, v2, tail)
                assert total == total_ref == math.comb(8, 4)
                assert p == p_ref
        # n = 9: 48,620 partitions, enumerated over several blocks.
        v1 = rng.normal(size=9).tolist()
        v2 = (rng.normal(size=9) + 0.3).tolist()
        for tail in ("directional", "two_sided"):
            p, total, _, _ = permutation_test(
                v1, v2, PermutationConfig(mode="exact"), tail
            )
            assert (p, total) == brute_force_exact_p(v1, v2, tail)
            assert total == math.comb(18, 9)

    def test_montecarlo_close_to_exact(self):
        rng = np.random.default_rng(8)
        v1 = rng.normal(size=6).tolist()
        v2 = (rng.normal(size=6) + 1.0).tolist()
        p_exact, _ = brute_force_exact_p(v1, v2)
        p_mc, total, method, _ = permutation_test(
            v1, v2, PermutationConfig(mode="montecarlo", samples=10_000, seed=1)
        )
        assert method == "montecarlo" and total == 10_000
        tol = 3 * math.sqrt(p_exact * (1 - p_exact) / 10_000)
        assert abs(p_mc - p_exact) <= max(tol, 1e-4)

    def test_montecarlo_pinned_over_several_blocks(self):
        # Pinned p-values of this seeded stream over 16 blocks, as (b + 1) /
        # (m + 1) from the counts b of draws at least as extreme; the block
        # size of the counting loop must not change them.
        rng = np.random.default_rng(16)
        v1 = rng.normal(size=7).tolist()
        v2 = (rng.normal(size=7) + 0.5).tolist()
        cfg = PermutationConfig(mode="montecarlo", samples=250_000, seed=7)
        assert permutation_test(v1, v2, cfg, "directional")[:2] == (
            (44_664 + 1) / 250_001, 250_000)
        assert permutation_test(v1, v2, cfg, "two_sided")[:2] == (
            (89_530 + 1) / 250_001, 250_000)

    def test_montecarlo_pinned_at_a_zero_score(self):
        # A score of exactly 0 counts, in the directional tail, the drawn
        # partitions scoring >= 0, replayed here from the seeded stream over
        # the pool in ascending order. Dyadic values, so every score is
        # exact.
        v1, v2 = [0.5, 1.25, -2.0, 3.0], [3.0, -2.0, 1.25, 0.5]
        pool = np.sort(v1 + v2)
        samples, seed = 3 * association._BLOCK + 5, 13
        rng = np.random.default_rng(seed)
        idx = np.argsort(rng.random((samples, 8)), axis=1)[:, :4]
        scores = 2.0 * pool[idx].sum(axis=1) - pool.sum()
        expected = (np.count_nonzero(scores >= 0) + 1) / (samples + 1)
        cfg = PermutationConfig(mode="montecarlo", samples=samples, seed=seed)
        assert permutation_test(v1, v2, cfg) == (
            expected, samples, "montecarlo", "directional")

    def test_montecarlo_deterministic(self):
        rng = np.random.default_rng(9)
        v1 = rng.normal(size=8).tolist()
        v2 = rng.normal(size=8).tolist()
        cfg = PermutationConfig(mode="montecarlo", samples=2_000, seed=42)
        assert permutation_test(v1, v2, cfg) == permutation_test(v1, v2, cfg)

    def test_exact_p_at_least_one_over_n(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v1 = rng.normal(size=4).tolist()
            v2 = rng.normal(size=4).tolist()
            p, total, _, _ = permutation_test(v1, v2,
                                              PermutationConfig(mode="exact"))
            assert p >= 1.0 / total

    def test_exact_invariant_under_input_order(self):
        rng = np.random.default_rng(11)
        v1 = rng.normal(size=5).tolist()
        v2 = rng.normal(size=5).tolist()
        cfg = PermutationConfig(mode="exact")
        baseline = permutation_test(v1, v2, cfg)
        assert permutation_test(v1[::-1], v2[::-1], cfg) == baseline

    def test_auto_mode_switches(self):
        assert association.AUTO_EXACT_MAX_N == 16
        cfg = PermutationConfig(mode="auto", samples=200)
        v = np.random.default_rng(12).normal(size=34).tolist()
        assert permutation_test(v[:16], v[16:32], cfg)[1:3] == (
            math.comb(32, 16), "exact")
        assert permutation_test(v[:17], v[17:], cfg)[1:3] == (
            200, "montecarlo")
        assert [cfg.method(n) for n in (1, 16, 17, 200)] == [
            "exact", "exact", "montecarlo", "montecarlo"]
        for mode in ("exact", "montecarlo"):
            assert {PermutationConfig(mode=mode).method(n)
                    for n in (1, 16, 17, 200)} == {mode}

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DataError, match="equal group sizes"):
            permutation_test([1.0, 2.0], [3.0])

    @pytest.mark.parametrize("v1, v2, tail, message", [
        ([1.0], [2.0], "left", "^unknown tail 'left'$"),
        ([], [], "directional", "^permutation test needs nonempty groups$"),
        ([], [1.0], "two_sided", "^permutation test needs nonempty groups$"),
    ], ids=["unknown-tail", "empty", "empty-first"])
    def test_bad_input_rejected(self, v1, v2, tail, message):
        with pytest.raises(DataError, match=message):
            permutation_test(v1, v2, PermutationConfig(mode="exact"), tail)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError, match="at least 100"):
            permutation_test([1.0], [2.0],
                             PermutationConfig(mode="montecarlo", samples=50))

    def test_auto_falling_back_to_montecarlo_keeps_its_sample_floor(self):
        v = np.random.default_rng(12).normal(size=34).tolist()
        with pytest.raises(DataError,
                           match=r"^permutations\.samples: .*at least 100"):
            permutation_test(v[:17], v[17:],
                             PermutationConfig(mode="auto", samples=1))
        # Where auto resolves to exact, the sample count is not used.
        p, total, method, _ = permutation_test(
            v[:3], v[3:6], PermutationConfig(mode="auto", samples=1))
        assert method == "exact" and total == 20


class TestExactSplit:
    """The exact test counts partitions by splitting the pool in halves and
    pairing their subset sums; it must count exactly what enumeration
    counts."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(groups=dyadic_groups(1 << 20) | dyadic_groups(4),
           tail=st.sampled_from(["directional", "two_sided"]))
    def test_matches_enumeration(self, groups, tail):
        v1, v2 = groups
        p, total, method, _ = permutation_test(
            v1, v2, PermutationConfig(mode="exact"), tail)
        assert method == "exact"
        assert (p, total) == brute_force_exact_p(v1, v2, tail)

    def test_auto_at_eleven_words_matches_numpy_enumeration(self):
        # auto runs exact at n = 11; all C(22, 11) = 705,432 partitions of
        # dyadic values, whose every score is exact, scored in numpy.
        pool = np.random.default_rng(21).integers(-64, 65, size=22) / 64
        pool[:11] += 0.5
        idx = np.fromiter(chain.from_iterable(combinations(range(22), 11)),
                          dtype=np.int8, count=705_432 * 11).reshape(-1, 11)
        scores = np.concatenate([2.0 * pool[rows].sum(axis=1) - pool.sum()
                                 for rows in np.array_split(idx, 8)])
        s_obs = 2.0 * pool[:11].sum() - pool.sum()
        assert s_obs > 0
        for tail, hits in (("directional", scores >= s_obs),
                           ("two_sided", np.abs(scores) >= s_obs)):
            assert permutation_test(pool[:11].tolist(), pool[11:].tolist(),
                                    PermutationConfig(), tail) == (
                np.count_nonzero(hits) / 705_432, 705_432, "exact", tail)

    def test_ties_everywhere(self):
        # Every partition ties the observed score.
        for tail in ("directional", "two_sided"):
            assert permutation_test([0.25] * 7, [0.25] * 7,
                                    PermutationConfig(mode="exact"),
                                    tail)[:2] == (1.0, math.comb(14, 7))

    @pytest.mark.parametrize("n", [association.EXACT_MAX_N + 1, 200])
    def test_large_topic_is_data_error_at_once(self, n, monkeypatch):
        # Past the limit the split would need 2**n sums per half; without
        # it, n = 200 would never finish. The config rule fires before any
        # table is built.
        def refuse(values):
            raise AssertionError("a subset-sum table was built")

        monkeypatch.setattr(association, "_subset_sums", refuse)
        v = np.random.default_rng(20).normal(size=2 * n).tolist()
        with pytest.raises(DataError, match=(
                f"^permutations\\.mode: exact needs at most 24 topic words, "
                f"got {n}; use montecarlo$")):
            permutation_test(v[:n], v[n:], PermutationConfig(mode="exact"))

    def test_guard_is_two_to_the_24(self):
        # 2**24 subset sums per half, 128 MiB of float64.
        assert association.EXACT_MAX_N == 24


class TestRunners:
    def test_run_sweat_toy(self, toy_pair):
        space1, space2, topic, poles = toy_pair
        res = run_sweat(topic, space1, space2, poles,
                        PermutationConfig(mode="exact"))
        assert res.score == 2.0
        assert res.effect_size == 2.0
        assert res.p_value == 0.5
        assert res.n_permutations == 2
        assert res.associations == ["E1 ~ A", "E2 ~ B"]
        assert res.per_word == [("w", 1.0, -1.0)]

    def test_score_decomposes_over_per_word(self):
        rng = np.random.default_rng(13)
        words = [f"w{i}" for i in range(5)] + ["a1", "a2", "b1", "b2"]
        space1 = random_space(rng, "s1", words, 6)
        space2 = random_space(rng, "s2", words, 6)
        topic = TopicWordset("t", [f"w{i}" for i in range(5)])
        poles = PoleWordsets("A", "B", ["a1", "a2"], ["b1", "b2"])
        res = run_sweat(topic, space1, space2, poles,
                        PermutationConfig(mode="exact"))
        total = math.fsum(s1 - s2 for _, s1, s2 in res.per_word)
        assert res.score == pytest.approx(total, abs=1e-9)

    def test_identity_spaces_label_convention(self):
        rng = np.random.default_rng(14)
        words = ["w1", "w2", "a", "b"]
        space1 = random_space(rng, "s1", words, 4)
        from sweatkit.embeddings import EmbeddingSpace

        space2 = EmbeddingSpace.from_rows("s2", words, space1.matrix)
        res = run_sweat(
            TopicWordset("t", ["w1", "w2"]),
            space1,
            space2,
            PoleWordsets("A", "B", ["a"], ["b"]),
            PermutationConfig(mode="exact"),
        )
        assert res.score == 0.0
        assert res.associations == ["s1 ~ A", "s2 ~ B"]
        # Pooled values are duplicated pairs, so most partitions tie at zero.
        assert res.p_value > 0.5

    def test_run_weat_toy(self):
        space = make_space(
            "s",
            {"x": (1.0, 0.0), "y": (0.0, 1.0), "a": (1.0, 0.0), "b": (0.0, 1.0)},
        )
        res = run_weat(
            TopicWordset("X", ["x"]),
            TopicWordset("Y", ["y"]),
            space,
            PoleWordsets("A", "B", ["a"], ["b"]),
            PermutationConfig(mode="exact"),
        )
        assert res.score == 2.0
        assert res.effect_size == 2.0
        assert res.p_value == 0.5
        assert res.associations == ["X ~ A", "Y ~ B"]

    def test_pole_swap_flips_labels_keeps_p_and_magnitude(self):
        rng = np.random.default_rng(15)
        words = [f"w{i}" for i in range(4)] + ["a1", "a2", "b1", "b2"]
        space1 = random_space(rng, "s1", words, 5)
        space2 = random_space(rng, "s2", words, 5)
        topic = TopicWordset("t", [f"w{i}" for i in range(4)])
        poles = PoleWordsets("A", "B", ["a1", "a2"], ["b1", "b2"])
        # Same labels, swapped contents: the score flips, labels follow.
        swapped = PoleWordsets("A", "B", ["b1", "b2"], ["a1", "a2"])
        cfg = PermutationConfig(mode="exact")
        res = run_sweat(topic, space1, space2, poles, cfg, tail="two_sided")
        res_sw = run_sweat(topic, space1, space2, swapped, cfg, tail="two_sided")
        assert res_sw.score == -res.score
        assert abs(res_sw.effect_size) == pytest.approx(abs(res.effect_size),
                                                        abs=1e-12)
        assert res_sw.p_value == res.p_value
        assert set(res_sw.associations) != set(res.associations)


class TestWordsetValidation:
    def test_pole_overlap_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            PoleWordsets("A", "B", ["x", "y"], ["y", "z"])

    def test_pole_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            PoleWordsets("A", "B", ["x", "x"], ["y"])

    def test_pole_b_duplicates_rejected(self):
        with pytest.raises(DataError, match="^pole 'B' has duplicate words$"):
            PoleWordsets("A", "B", ["x"], ["y", "z", "y"])

    def test_empty_topic_rejected(self):
        with pytest.raises(DataError, match="empty"):
            TopicWordset("t", [])


class TestPermutationConfigRules:
    @pytest.mark.parametrize("cfg", [
        PermutationConfig(mode="auto", samples=0),
        PermutationConfig(mode="montecarlo", seed=-1),
        PermutationConfig(mode="montecarlo", seed=1.5),
        PermutationConfig(mode="montecarlo", samples=150.5),
    ], ids=["no-samples", "negative-seed", "float-seed", "float-samples"])
    def test_broken_rule_is_data_error(self, cfg):
        with pytest.raises(DataError, match=r"^permutations\.(samples|seed):"):
            permutation_test([1.0, 2.0], [3.0, 4.0], cfg)

    def test_every_broken_field_named(self):
        cfg = PermutationConfig(mode="sideways", samples=True, seed=-2)
        assert [e.split(":")[0] for e in cfg.errors(1)] == [
            "permutations.mode", "permutations.samples", "permutations.seed"]

    def test_only_the_running_test_rules(self):
        # Past sixteen words auto runs montecarlo and needs its 100 samples;
        # through sixteen it runs exact, which draws none. Exact itself runs
        # through 24 words.
        cfg = PermutationConfig(mode="auto", samples=1)
        assert cfg.errors(16) == []
        assert cfg.errors(17) == [
            "permutations.samples: auto mode with more than 16 topic words "
            "needs at least 100 samples, got 1"]
        assert PermutationConfig(mode="montecarlo", samples=99).errors(1) == [
            "permutations.samples: montecarlo mode needs at least 100 "
            "samples, got 99"]
        assert PermutationConfig(mode="exact", samples=1).errors(24) == []
        assert PermutationConfig(mode="exact", samples=1).errors(25) == [
            "permutations.mode: exact needs at most 24 topic words, got 25; "
            "use montecarlo"]


class TestTopicLabel:
    @pytest.mark.parametrize("label", ["", None, 5, ["t"]])
    def test_label_must_be_nonempty_string(self, label):
        with pytest.raises(DataError, match="^label: must be a nonempty string"):
            TopicWordset(label, ["w"])


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestOrderIndependence:
    """Each s(w) depends only on the word, the poles and the space: a pair's
    cosine has the same bits in any block, at any position, and the pole
    means are fsums. Fixtures have the shape of a lexicon run: a 10-word
    topic against 700-word poles in 100 dimensions, space 2 being space 1
    plus noise."""

    @staticmethod
    def fixture(seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(1420)]
        matrix = rng.normal(size=(len(words), 100))
        space1 = EmbeddingSpace.from_rows("s1", words, matrix)
        space2 = EmbeddingSpace.from_rows(
            "s2", words, matrix + rng.normal(scale=0.5, size=matrix.shape))
        topic = TopicWordset("t", words[:10])
        poles = PoleWordsets("A", "B", words[10:710], words[710:1410])
        return rng, space1, space2, topic, poles

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffles_and_added_words_keep_every_bit(self, seed):
        rng, space1, space2, topic, poles = self.fixture(seed)
        cfg = PermutationConfig(mode="exact")
        montecarlo = PermutationConfig(mode="montecarlo", samples=2_000,
                                       seed=seed)
        base = run_sweat(topic, space1, space2, poles, cfg)
        base_mc = run_sweat(topic, space1, space2, poles, montecarlo)
        s_of = {w: (s1, s2) for w, s1, s2 in base.per_word}

        def summary(res):
            """Each word's s(w) in both spaces, then the statistics."""
            return bits([*(v for _, *pair in res.per_word for v in pair),
                         res.score, res.effect_size, res.p_value])

        shuffled_poles = PoleWordsets(
            "A", "B", rng.permutation(poles.words_a).tolist(),
            rng.permutation(poles.words_b).tolist())
        res = run_sweat(topic, space1, space2, shuffled_poles, cfg)
        assert summary(res) == summary(base)

        shuffled = TopicWordset("t", rng.permutation(topic.words).tolist())
        res = run_sweat(shuffled, space1, space2, poles, cfg)
        assert bits([v for _, *pair in res.per_word for v in pair]) == bits(
            [v for w, *_ in res.per_word for v in s_of[w]])
        assert bits([res.score]) == bits([base.score])
        assert bits([res.effect_size, res.p_value]) == bits(
            [base.effect_size, base.p_value])
        # The Monte Carlo test draws from the pool in one order of its
        # values, so its p keeps its bits too.
        res = run_sweat(shuffled, space1, space2, poles, montecarlo)
        assert bits([res.p_value]) == bits([base_mc.p_value])

        grown = [*topic.words, "w1410", "w1411", "w1412"]
        for k, space in enumerate((space1, space2)):
            values = association.associations(grown, space, poles).values
            assert bits(values[:10]) == bits([s_of[w][k] for w in topic.words])

        block = cosines(space1, topic.words, poles.words_a)
        for i, j in zip(rng.integers(10, size=200), rng.integers(700, size=200)):
            pair = cosine(space1.vector(topic.words[i]),
                          space1.vector(poles.words_a[j]))
            assert bits([pair]) == bits([block[i, j]])
