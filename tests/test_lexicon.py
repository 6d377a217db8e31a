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
)
from sweatkit import embeddings
from sweatkit import lexicon as lexicon_module
from sweatkit.embeddings import EmbeddingSpace

from conftest import brute_nearest, make_space


def table(counts, total):
    return FrequencyTable(counts=counts, total_tokens=total)


class TestZipf:
    def test_hand_values(self):
        assert table({"w": 100}, 10**6).zipf("w") == pytest.approx(5.0)
        assert table({"w": 1}, 10**9).zipf("w") == pytest.approx(0.0)
        assert table({"w": 10**6}, 10**6).zipf("w") == pytest.approx(9.0)

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
            table({"w": 1}, 100).zipf("nope")

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

    def test_lexicon_invalid_json(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_lexicon(str(p))
        assert str(exc.value).startswith(f"{p}: invalid JSON: ")


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


class TestRangeErrorsNameTheLine:
    """A count or total out of range is an error at its file and line; a
    table built directly keeps the bare message."""

    @pytest.mark.parametrize("text, line, message", [
        ("#total\t10\nfoo\t3\na\t0\nb\t0\n", 3, "count for 'a' must be >= 1"),
        ("foo\t3\na\t11\n#total\t10\n", 2,
         "count for 'a' exceeds total_tokens 10"),
        ("a\t0\n\n#total\t0\n", 3, "total_tokens must be positive"),
        ("#total\t 10 \nb\t -2 \n", 2, "count for 'b' must be >= 1"),
    ], ids=["below_one", "above_total", "total", "spaced"])
    def test_loaded(self, tmp_path, text, line, message):
        p = tmp_path / "freq.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("counts, total, message", [
        ({"w": 2, "a": 0}, 10, "count for 'a' must be >= 1"),
        ({"a": 11, "w": 0}, 10, "count for 'a' exceeds total_tokens 10"),
        ({"a": 0}, 0, "total_tokens must be positive"),
    ])
    def test_built_directly(self, counts, total, message):
        with pytest.raises(FormatError) as exc:
            table(counts, total)
        assert str(exc.value) == message


def line_loop_forced(monkeypatch):
    """Every chunk of a table goes to the line loop."""
    monkeypatch.setattr(lexicon_module, "_read_counts", lambda *args: None)


def table_outcome(path):
    """The table at ``path`` as comparable values, or the type and text of
    the exception loading it raises."""
    try:
        t = load_frequency_table(str(path))
    except Exception as exc:
        return type(exc), str(exc)
    return list(t.counts.items()), t.total_tokens


# Count spellings and line defects a generated table mixes in; each reads
# the same, or fails the same, whichever reader meets it.
ODD_LINES = [
    "{w}\t {c} ", "{w}\t-{c}", "{w}\t+{c}", "{w}\t1_0", "{w}\t٥",
    "{w}\t" + "9" * 19, "{w}\t" + "1" * 4301, "{w}\t1\t2", "\t{c}", "",
    "{w} x\t{c}", "{w}\t", "#total\t1000000",
]


def generated_table(seed):
    """Bytes of a seeded table of about 400 lines: plain lines, most of the
    time, with a few of ``ODD_LINES``, and maybe a BOM, CRLF or lone CR
    line ends, a repeated word, no ``#total``, or a byte that is not UTF-8
    in a word or a count."""
    rng = np.random.default_rng(seed)
    lines = [f"w{i}\t{int(rng.integers(1, 1000))}" for i in range(400)]
    if rng.random() < 0.8:
        lines.insert(int(rng.integers(0, 400)), "#total\t1000000")
    for _ in range(int(rng.integers(0, 3))):
        odd = ODD_LINES[int(rng.integers(len(ODD_LINES)))]
        lines.insert(int(rng.integers(0, len(lines))),
                     odd.format(w=f"x{int(rng.integers(1000))}",
                                c=int(rng.integers(1, 99))))
    if rng.random() < 0.2:
        lines.append(lines[int(rng.integers(0, 300))])
    data = ("\r\n" if rng.random() < 0.2 else "\n").join(lines)
    if rng.random() < 0.1:
        data = data.replace("\n", "\r")
    data = data.encode("utf-8") + b"\n" * int(rng.integers(0, 2))
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data
    if rng.random() < 0.15:
        at = data.index(b"\t", int(rng.integers(0, len(data) - 10)))
        data = data[:at + int(rng.integers(-1, 2))] + b"\xff" + data[at + 1:]
    return data


class TestTableByteReader:
    """Tables read from their structural index give the table, or the
    error text, that the line loop gives, at any chunk size."""

    @pytest.mark.parametrize("chunk", [1 << 20, 64, 300])
    @pytest.mark.parametrize("seed", range(40))
    def test_same_outcome_as_line_loop(self, tmp_path, monkeypatch, chunk,
                                       seed):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        p = tmp_path / "freq.tsv"
        p.write_bytes(generated_table(seed))
        got = table_outcome(p)
        line_loop_forced(monkeypatch)
        assert got == table_outcome(p)

    def test_clean_table_skips_the_line_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "freq.tsv"
        p.write_bytes(b"\xef\xbb\xbf#total\t5000\r\n"
                      + b"".join(b"w%d\t%d\r\n" % (i, i % 7 + 1)
                                 for i in range(300)))
        expected = table_outcome(p)

        def no_loop(*args):
            raise AssertionError("a clean chunk went to the line loop")

        monkeypatch.setattr(lexicon_module, "_read_lines", no_loop)
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 500)
        assert table_outcome(p) == expected
        assert expected[1] == 5000 and len(expected[0]) == 300

    @pytest.mark.parametrize("defect, message", [
        ("w250\t1.5", "non-integer count"),
        ("w3\t4", "duplicate word 'w3'"),
        ("#total\t7", "duplicate #total header"),
        ("w250 1", "expected 'word<TAB>count'"),
    ])
    def test_defect_in_last_of_three_chunks(self, tmp_path, monkeypatch,
                                            defect, message):
        lines = ["#total\t100000"] + [f"w{i}\t{i + 1}" for i in range(240)]
        size = len("".join(f"{line}\n" for line in lines)) // 3 + 1
        lines.append(defect)
        p = tmp_path / "freq.tsv"
        p.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", size)
        read = []
        reader = lexicon_module._read_counts

        def spy(*args):
            new = reader(*args)
            read.append(new is not None)
            return new

        monkeypatch.setattr(lexicon_module, "_read_counts", spy)
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == f"{p}:{len(lines)}: {message}"
        assert read[:2] == [True, True] and len(read) == 3

    @pytest.mark.parametrize("raw", [b"\xef\xbb\xbf", b"\xef\xbb\xbf\r\n",
                                     b""])
    def test_mark_alone_is_a_table_without_total(self, tmp_path, raw):
        p = tmp_path / "freq.tsv"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == (
            f"{p}: missing '#total<TAB><total_tokens>' header")

    def test_first_non_utf8_byte_of_a_chunk_named(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_bytes(b"#total\t10\nfo\xe2\x82\tx\n")
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == (
            f"{p}:2: not valid UTF-8 (invalid continuation byte)")
        p.write_bytes(b"#total\t10\nfoo\t1\nb\xe2\x82")
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == (
            f"{p}:3: not valid UTF-8 (unexpected end of data)")

    @pytest.mark.parametrize("chunk", [1 << 20, 64, 4, 1])
    @pytest.mark.parametrize("body, message", [
        (b"foo\t1.5\nb\xff\t1\n", "2: non-integer count"),
        (b"foo\t1\nb\xff\t1\n", "3: not valid UTF-8 (invalid start byte)"),
    ], ids=["bad-count-first", "not-utf8"])
    def test_defect_named_at_any_chunk_size(self, tmp_path, monkeypatch,
                                            chunk, body, message):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        p = tmp_path / "freq.tsv"
        p.write_bytes(b"#total\t10\n" + body)
        with pytest.raises(FormatError) as exc:
            load_frequency_table(str(p))
        assert str(exc.value) == f"{p}:{message}"
