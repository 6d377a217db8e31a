import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweatkit import (
    FormatError,
    FrequencyTable,
    Lexicon,
    PoleWordsets,
    VocabularyError,
    candidate_topics,
    load_frequency_table,
    load_lexicon,
    refine,
    zipf_score,
)
from sweatkit import embeddings
from sweatkit.embeddings import EmbeddingSpace

from conftest import brute_nearest, make_space


def table(counts, total):
    return FrequencyTable(counts=counts, total_tokens=total)


class TestZipf:
    def test_hand_values(self):
        assert zipf_score("w", table({"w": 100}, 10**6)) == pytest.approx(5.0)
        assert zipf_score("w", table({"w": 1}, 10**9)) == pytest.approx(0.0)
        assert zipf_score("w", table({"w": 10**6}, 10**6)) == pytest.approx(9.0)

    def test_huge_total(self):
        # count / total underflows to 0 or to a subnormal: the score comes
        # from the logs of the integers.
        t = table({"w": 1, "v": 7 * 10**300, "u": 3}, 10**400)
        assert t.zipf("w") == pytest.approx(-391.0, abs=1e-12)
        assert t.zipf("v") == pytest.approx(math.log10(7) - 91, abs=1e-12)
        u = table({"u": 3}, 10**310).zipf("u")
        assert u == pytest.approx(math.log10(3) - 301, abs=1e-12)

    @given(st.integers(1, 10**30), st.integers(0, 10**30))
    def test_normal_share_keeps_its_bits(self, count, extra):
        total = count + extra
        assert table({"w": count}, total).zipf("w") == math.log10(
            count / total * 1e9)

    def test_absent_word_is_error(self):
        with pytest.raises(VocabularyError):
            zipf_score("nope", table({"w": 1}, 100))

    def test_invalid_counts(self):
        with pytest.raises(FormatError):
            table({"w": 0}, 100)
        with pytest.raises(FormatError):
            table({"w": 200}, 100)


def four_word_setup(zipf=6.0, swap=True):
    """4-word toy spaces; x and y vectors swapped in space2 when asked."""
    base = {
        "p": (1.0, 0.0, 0.0),
        "q": (0.0, 1.0, 0.0),
        "x": (0.0, 0.0, 1.0),
        "y": (0.7, 0.7, 0.0),
    }
    other = dict(base)
    if swap:
        other["x"], other["y"] = base["y"], base["x"]
    space1 = make_space("s1", base)
    space2 = make_space("s2", other)
    total = 10**6
    count = int(round(10**zipf * total / 1e9))
    counts = {w: count for w in base}
    return space1, space2, table(counts, total), table(dict(counts), total)


class TestRefine:
    def test_everything_kept_when_stable_and_frequent(self):
        space1, space2, t1, t2 = four_word_setup(zipf=6.0, swap=False)
        lex = Lexicon(PoleWordsets("A", "B", ["p", "x"], ["q", "y"]))
        report = refine(lex, space1, space2, t1, t2)
        assert report.kept_a == ["p", "x"]
        assert report.kept_b == ["q", "y"]
        assert report.rejected == []

    def test_swapped_pair_rejected_as_unstable(self):
        space1, space2, t1, t2 = four_word_setup(zipf=6.0, swap=True)
        lex = Lexicon(PoleWordsets("A", "B", ["p", "x"], ["q", "y"]))
        report = refine(lex, space1, space2, t1, t2)
        assert report.kept_a == ["p"]
        assert report.kept_b == ["q"]
        assert sorted(report.rejected) == [
            ("x", "unstable_roundtrip"),
            ("y", "unstable_roundtrip"),
        ]

    def test_zipf_boundary_is_strict(self):
        space1, space2, t1, t2 = four_word_setup(zipf=6.0, swap=False)
        # Exactly 5.0: count/total * 1e9 = 1e5.
        t1.counts["p"] = 100
        t2.counts["p"] = 100
        assert t1.zipf("p") == pytest.approx(5.0)
        lex = Lexicon(PoleWordsets("A", "B", ["p", "x"], ["q", "y"]))
        report = refine(lex, space1, space2, t1, t2, zipf_threshold=5.0)
        assert ("p", "low_zipf_1") in report.rejected
        assert "p" not in report.kept_a

    def test_reason_order(self):
        space1, space2, t1, t2 = four_word_setup(zipf=4.0, swap=True)
        # x fails both stability and zipf; stability is reported first.
        lex = Lexicon(PoleWordsets("A", "B", ["x"], ["q"]))
        report = refine(lex, space1, space2, t1, t2)
        assert ("x", "unstable_roundtrip") in report.rejected

    def test_oov_reasons(self):
        space1, space2, t1, t2 = four_word_setup()
        lex = Lexicon(PoleWordsets("A", "B", ["p", "ghost"], ["q"]))
        report = refine(lex, space1, space2, t1, t2)
        assert ("ghost", "oov_space1") in report.rejected
        del t1.counts["q"]
        report = refine(lex, space1, space2, t1, t2)
        assert ("q", "oov_frequency") in report.rejected

    def test_idempotent(self):
        space1, space2, t1, t2 = four_word_setup(zipf=6.0, swap=True)
        lex = Lexicon(PoleWordsets("A", "B", ["p", "x"], ["q", "y"]))
        first = refine(lex, space1, space2, t1, t2)
        again = refine(
            Lexicon(PoleWordsets("A", "B", first.kept_a, first.kept_b)),
            space1, space2, t1, t2,
        )
        assert again.rejected == []
        assert again.kept_a == first.kept_a
        assert again.kept_b == first.kept_b

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(10)]
        vectors = {w: rng.normal(size=4) for w in words}
        space1 = make_space("s1", vectors)
        space2 = make_space("s2", dict(vectors))
        total = 10**7
        counts1 = {w: int(rng.integers(1, 10**6)) for w in words}
        counts2 = {w: int(rng.integers(1, 10**6)) for w in words}
        t1, t2 = table(counts1, total), table(counts2, total)
        lex = Lexicon(PoleWordsets("A", "B", words[:5], words[5:]))
        previous = None
        for threshold in (3.0, 4.0, 5.0, 6.0, 7.0):
            report = refine(lex, space1, space2, t1, t2, threshold)
            kept = set(report.kept_a) | set(report.kept_b)
            if previous is not None:
                assert kept <= previous
            previous = kept


def reference_refine(lexicon, space1, space2, table1, table2, threshold):
    """``refine`` one word at a time, with brute-force round trips."""
    kept_a, kept_b, rejected = [], [], []
    for words, kept in ((lexicon.poles.words_a, kept_a),
                        (lexicon.poles.words_b, kept_b)):
        for w in words:
            if w not in space1:
                reason = "oov_space1"
            elif w not in space2:
                reason = "oov_space2"
            elif w not in table1 or w not in table2:
                reason = "oov_frequency"
            elif (brute_nearest(space2, space1.vector(w)) != w
                  or brute_nearest(space1, space2.vector(w)) != w):
                reason = "unstable_roundtrip"
            elif not table1.zipf(w) > threshold:
                reason = "low_zipf_1"
            elif not table2.zipf(w) > threshold:
                reason = "low_zipf_2"
            else:
                kept.append(w)
                continue
            rejected.append((w, reason))
    return kept_a, kept_b, rejected


# Distinct rows of norm 1 or 2 with components in {-1, 0, 1}; scaled by
# powers of two, their unit rows are exact and so is every cosine, whatever
# order the products are summed in, so ties are exact in every BLAS.
PATTERNS = [np.array(p, dtype=np.float64)
            for p in [*itertools.product((-1, 1), repeat=4),
                      *(sign * row for row in np.eye(4) for sign in (-1, 1))]]
NAMES = [f"w{i}" for i in range(10)]


@st.composite
def refine_setup(draw):
    """Two small spaces over the same words, most at the same vector in
    both, some moved in space 2, and some copied onto another word's
    vector in one space."""
    order = draw(st.permutations(range(len(PATTERNS))))
    vectors = [{w: PATTERNS[order[i]] for i, w in enumerate(NAMES)}]
    vectors.append(dict(vectors[0]))
    for w in draw(st.sets(st.sampled_from(NAMES), max_size=4)):
        vectors[1][w] = PATTERNS[draw(st.integers(0, len(PATTERNS) - 1))]
    for src, dst, side in draw(st.lists(st.tuples(
            st.sampled_from(NAMES), st.sampled_from(NAMES),
            st.integers(0, 1)), max_size=4)):
        vectors[side][dst] = vectors[side][src]

    def space(label, vecs):
        chosen = draw(st.lists(st.sampled_from(NAMES), min_size=7,
                               unique=True))
        rows = [vecs[w] * 2.0 ** draw(st.integers(-2, 2)) for w in chosen]
        return EmbeddingSpace.from_rows(label, chosen, np.array(rows))

    def freq():
        words = draw(st.lists(st.sampled_from(NAMES), min_size=8,
                              unique=True))
        return table({w: draw(st.integers(1, 1000)) for w in words}, 10**6)

    space1, space2 = space("s1", vectors[0]), space("s2", vectors[1])
    candidates = draw(st.lists(st.sampled_from(NAMES + ["ghost"]),
                               min_size=2, unique=True))
    split = draw(st.integers(1, len(candidates) - 1))
    lexicon = Lexicon(PoleWordsets("A", "B", candidates[:split],
                                   candidates[split:]))
    cap_floats = draw(st.sampled_from([1, 3, 10, 1 << 18]))
    return lexicon, space1, space2, freq(), freq(), cap_floats


class TestRefineBatch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(setup=refine_setup())
    def test_matches_word_by_word(self, setup):
        lexicon, space1, space2, t1, t2, cap_floats = setup
        expected = reference_refine(lexicon, space1, space2, t1, t2, 5.0)
        with mock.patch.object(embeddings, "_NN_BLOCK_BYTES", 8 * cap_floats):
            report = refine(lexicon, space1, space2, t1, t2, 5.0)
        assert (report.kept_a, report.kept_b, report.rejected) == expected

    def test_only_stable_words_search_back(self, monkeypatch):
        # x and y fail the first direction, so only p and q search back.
        space1, space2, t1, t2 = four_word_setup(zipf=6.0, swap=True)
        sizes = []
        real = embeddings.nearest_neighbors

        def spy(space, queries):
            sizes.append((space.label, len(queries)))
            return real(space, queries)

        monkeypatch.setattr("sweatkit.alignment.nearest_neighbors", spy)
        lex = Lexicon(PoleWordsets("A", "B", ["p", "x", "ghost"], ["q", "y"]))
        report = refine(lex, space1, space2, t1, t2)
        assert sizes == [("s2", 4), ("s1", 2)]
        assert report.rejected == [("x", "unstable_roundtrip"),
                                   ("ghost", "oov_space1"),
                                   ("y", "unstable_roundtrip")]


class TestCandidates:
    def test_ranked_by_mean_zipf(self):
        vectors = {"low": (1.0, 0.0), "high": (0.0, 1.0), "the": (1.0, 1.0)}
        space1 = make_space("s1", vectors)
        space2 = make_space("s2", dict(vectors))
        t1 = table({"low": 10, "high": 10**5, "the": 10**6}, 10**7)
        t2 = table({"low": 10, "high": 10**5, "the": 10**6}, 10**7)
        ranked = candidate_topics(space1, space2, t1, t2, stopwords=["the"])
        assert [w for w, _ in ranked] == ["high", "low"]


class TestFiles:
    def test_frequency_table_round_trip(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("#total\t1000\nfoo\t10\nbar\t5\n", encoding="utf-8")
        t = load_frequency_table(str(p))
        assert t.total_tokens == 1000
        assert t.counts == {"foo": 10, "bar": 5}

    def test_frequency_table_missing_total(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("foo\t10\n", encoding="utf-8")
        with pytest.raises(FormatError, match="#total"):
            load_frequency_table(str(p))

    @pytest.mark.parametrize("line", [
        "#total\t" + "9" * 4301,
        "foo\t" + "1" * 5000,
    ], ids=["total", "count"])
    def test_count_past_the_int_digit_limit(self, tmp_path, line):
        p = tmp_path / "freq.tsv"
        p.write_text(f"foo\t1\n{line}\n", encoding="utf-8")
        digits = len(line.split("\t")[1])
        with pytest.raises(FormatError, match=(
                f"freq.tsv:2: count of {digits} digits is too long to read$")):
            load_frequency_table(str(p))

    def test_non_integer_count(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("#total\t1000\nfoo\t1.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="freq.tsv:2: non-integer count$"):
            load_frequency_table(str(p))

    @pytest.mark.parametrize("text", [
        "#total\t1_000_000\nfoo\t1\n",
        "#total\t1000\nfoo\t 1_0 \n",
        "#total\t1000\nbar\t+5\n",
        "#total\t1000\nbaz\t\u0665\n",
    ], ids=["underscore_total", "underscore_count", "plus", "arabic_indic"])
    def test_count_of_ascii_digits_only(self, tmp_path, text):
        # int() reads each of these counts, as 1,000,000, 10, 5 and 5.
        p = tmp_path / "freq.tsv"
        p.write_text(text, encoding="utf-8")
        line = 1 if "_000" in text else 2
        with pytest.raises(FormatError,
                           match=f"freq.tsv:{line}: non-integer count$"):
            load_frequency_table(str(p))

    def test_count_keeps_surrounding_spaces_and_minus(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("#total\t 1000 \nfoo\t 10 \n", encoding="utf-8")
        assert load_frequency_table(str(p)).counts == {"foo": 10}
        p.write_text("#total\t1000\nfoo\t -10 \n", encoding="utf-8")
        with pytest.raises(FormatError, match="count for 'foo' must be >= 1"):
            load_frequency_table(str(p))

    def test_lexicon_file(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text(
            '{"label_a": "pos", "label_b": "neg", "words_a": ["good"], '
            '"words_b": ["bad"], "provenance": "test"}',
            encoding="utf-8",
        )
        lex = load_lexicon(str(p))
        assert lex.poles.label_a == "pos"
        assert lex.provenance == "test"

    def test_lexicon_missing_field(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text('{"label_a": "pos"}', encoding="utf-8")
        with pytest.raises(FormatError, match="missing fields"):
            load_lexicon(str(p))


class TestFrequencyTableByteOrderMark:
    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbf#total\t1000\nfoo\t10\nbar\t5\n",
        b"\xef\xbb\xbf#total\t1000\r\nfoo\t10\r\nbar\t5\r\n",
    ])
    def test_leading_mark_skipped(self, tmp_path, raw):
        p = tmp_path / "freq.tsv"
        p.write_bytes(raw)
        t = load_frequency_table(str(p))
        assert t.total_tokens == 1000
        assert t.counts == {"foo": 10, "bar": 5}

    def test_mark_after_first_line_is_part_of_the_word(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("#total\t1000\n\ufefffoo\t10\n", encoding="utf-8")
        assert load_frequency_table(str(p)).counts == {"\ufefffoo": 10}
