import errno
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweatkit import (
    DataError,
    FormatError,
    cosine,
    load_word2vec_pair,
    load_word2vec_text,
    nearest_neighbor,
    nearest_neighbors,
    save_word2vec_text,
)
from sweatkit import embeddings
from sweatkit.embeddings import EmbeddingSpace
from sweatkit.errors import open_text

from conftest import (
    assert_no_children,
    brute_nearest,
    feed_fifo,
    make_space,
    traced_peak,
    use_cpus,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")


class TestLoader:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 3\ncat 1 0 0\ndog 0 1 0\n")
        space = load_word2vec_text(str(p))
        assert space.dimension == 3
        assert set(space.words) == {"cat", "dog"}
        assert np.array_equal(space.vector("cat"), [1.0, 0.0, 0.0])

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "3 3\ncat 1 0 0\ndog 0 1 0\n")
        with pytest.raises(FormatError, match="row count mismatch"):
            load_word2vec_text(str(p))

    def test_zero_norm_vector(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "1 3\nbad 0 0 0\n")
        with pytest.raises(FormatError, match="zero-norm"):
            load_word2vec_text(str(p))

    def test_duplicate_word(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 2\ncat 1 0\ncat 0 1\n")
        with pytest.raises(FormatError, match="duplicate word"):
            load_word2vec_text(str(p))

    def test_dimension_mismatch_row(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "1 3\ncat 1 0\n")
        with pytest.raises(FormatError, match="expected 4 fields"):
            load_word2vec_text(str(p))

    def test_nonfinite_component(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "1 2\ncat nan 1\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_word2vec_text(str(p))

    def test_word2vec_c_trailing_space(self, tmp_path):
        # The original word2vec tool ends every row with one space.
        p = tmp_path / "trail.txt"
        write(p, "2 3\ncat 1 0 0 \ndog 0 1 0 \n")
        space = load_word2vec_text(str(p))
        assert space.words == ("cat", "dog")
        assert np.array_equal(space.vector("dog"), [0.0, 1.0, 0.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_word2vec_text(str(tmp_path / "nope.txt"))

    def test_absent_word_is_error(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "1 2\ncat 1 0\n")
        space = load_word2vec_text(str(p))
        with pytest.raises(DataError, match="not in vocabulary"):
            space.vector("dog")

    def test_round_trip_nine_significant_digits(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 2\nu 0.123456789 -9.87654321\nv 1e-05 123456789\n")
        space = load_word2vec_text(str(p))
        out = tmp_path / "out.txt"
        save_word2vec_text(space, str(out))
        again = load_word2vec_text(str(out))
        for w in space.words:
            assert np.array_equal(space.vector(w), again.vector(w))


ROWS = "cat 1 0 0\ndog 0 1 0\nfox 0 0 1\n"
EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# One defect per file. A string is the exact FormatError text ("{path}"
# stands for the file name); a matrix means the file loads with exactly
# those values, as float() reads each field.
LOADER_CONTRACT = {
    "header_one_field": (
        "3\n" + ROWS, "{path}:1: header must be '<vocab_size> <dimension>'"),
    "header_non_integer": (
        "3 x\n" + ROWS, "{path}:1: non-integer header fields"),
    "header_out_of_range": (
        "3 0\n" + ROWS, "{path}:1: header values out of range"),
    "blank_line": (
        "3 3\ncat 1 0 0\n\ndog 0 1 0\nfox 0 0 1\n", EYE),
    "blank_line_counts_in_line_number": (
        "3 3\ncat 1 0 0\n\ndog 0 1\nfox 0 0 1\n",
        "{path}:4: expected 4 fields, got 3"),
    "whitespace_only_line": (
        "3 3\ncat 1 0 0\n \ndog 0 1 0\nfox 0 0 1\n", EYE),
    "every_row_short": (
        "3 3\ncat 1 0\ndog 0 1\nfox 1 1\n",
        "{path}:2: expected 4 fields, got 3"),
    "double_space": (
        "3 3\ncat 1 0 0\ndog 0  1 0\nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 5"),
    "tab_separated": (
        "3 3\ncat 1 0 0\ndog\t0\t1\t0\nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 1"),
    "nan": (
        "3 3\ncat 1 0 0\ndog 0 nan 0\nfox 0 0 1\n",
        "{path}:3: non-finite component"),
    "inf": (
        "3 3\ncat 1 0 0\ndog 0 1 0\nfox 0 0 inf\n",
        "{path}:4: non-finite component"),
    "zero_row": (
        "3 3\ncat 1 0 0\ndog 0 0 0\nfox 0 0 1\n",
        "{path}:3: zero-norm vector for 'dog'"),
    "duplicate_word": (
        "3 3\ncat 1 0 0\ndog 0 1 0\ncat 0 0 1\n",
        "{path}:4: duplicate word 'cat'"),
    "short_row": (
        "3 3\ncat 1 0 0\ndog 0 1\nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 3"),
    "long_row": (
        "3 3\ncat 1 0 0\ndog 0 1 0 0\nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 5"),
    "one_row_too_many": (
        "2 3\n" + ROWS, "{path}:4: row count exceeds declared vocab size 2"),
    "one_row_too_few": (
        "4 3\n" + ROWS, "{path}: row count mismatch: header declares 4, found 3"),
    "underscore_in_number": (
        "3 3\ncat 1 0 0\ndog 0 1_0 0\nfox 0 0 1\n",
        [[1.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 1.0]]),
    "crlf": (
        "3 3\r\ncat 1 0 0\r\ndog 0 1 0\r\nfox 0 0 1\r\n", EYE),
    "hash_in_row": (
        "3 3\ncat 1 0 0\ndog 0 #1 0\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
    "hash_after_row": (
        "3 3\ncat 1 0 0\ndog 0 1 0 #x\nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 5"),
    "hash_glued_to_last_number": (
        "3 3\ncat 1 0 0\ndog 0 1 0#x\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
    "one_trailing_space": (
        "3 3\ncat 1 0 0 \ndog 0 1 0 \nfox 0 0 1 \n", EYE),
    "short_row_two_trailing_spaces": (
        "3 3\ncat 1 0 0\ndog 0 1  \nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 5"),
    "words_only": (
        "3 3\ncat\ndog\nfox\n", "{path}:2: expected 4 fields, got 1"),
    "two_trailing_spaces": (
        "3 3\ncat 1 0 0\ndog 0 1 0  \nfox 0 0 1\n",
        "{path}:3: expected 4 fields, got 6"),
    # numpy strips U+001C..U+001F as whitespace; float() does not.
    "group_separator": (
        "3 3\ncat 1 0 0\ndog 0 1\x1c 0\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
    "non_ascii_digit": (
        "3 3\ncat 1 0 0\ndog 0 \u0661 0\nfox 0 0 1\n", EYE),
    "non_ascii_space_in_field": (
        "3 3\ncat 1 0 0\ndog 0 1\u2003 0\nfox 0 0 1\n", EYE),
}


class TestLoaderContract:
    """The bulk parse and the row validator accept the same files, give the
    same values, and every error comes from the validator unchanged."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(LOADER_CONTRACT))
    def test_one_defect(self, tmp_path, name):
        text, expected = LOADER_CONTRACT[name]
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(FormatError) as exc:
                load_word2vec_text(str(p))
            assert str(exc.value) == expected.format(path=p)
        else:
            space = load_word2vec_text(str(p))
            assert space.words == ("cat", "dog", "fox")
            assert space.matrix.tobytes() == np.array(expected).tobytes()

    @staticmethod
    def _large_file(path, rng, n_rows=1500, dim=100):
        """Mixed float spellings over more than one bulk-parse chunk."""
        spellings = [repr, "{:.5f}".format, "{:e}".format, "{:.17g}".format,
                     lambda x: repr(float(round(x)) or -0.0)]
        words, fields = [], []
        lines = [f"{n_rows} {dim}\n"]
        for i in range(n_rows):
            row = [spellings[(i + j) % len(spellings)](x)
                   for j, x in enumerate(rng.normal(scale=10.0 ** (i % 7 - 3),
                                                    size=dim).tolist())]
            words.append(f"w{i}")
            fields.append(row)
            tail = " " if i % 3 == 0 else ""
            lines.append(f"w{i} " + " ".join(row) + tail + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        assert path.stat().st_size > embeddings._CHUNK_CHARS
        return words, fields

    def test_large_file_bit_identical_to_float(self, tmp_path, monkeypatch):
        p = tmp_path / "big.txt"
        words, fields = self._large_file(p, np.random.default_rng(3))

        def no_fallback(*args):
            raise AssertionError("well-formed file fell back to the validator")

        monkeypatch.setattr(embeddings, "_parse_rows", no_fallback)
        space = load_word2vec_text(str(p))
        expected = np.array([[float(f) for f in row] for row in fields])
        assert space.words == tuple(words)
        assert space.matrix.tobytes() == expected.tobytes()

    def test_defect_in_last_chunk_keeps_line_number(self, tmp_path):
        p = tmp_path / "big.txt"
        self._large_file(p, np.random.default_rng(4))
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        word, _, rest = lines[-2].partition(" ")
        lines[-2] = word + " nan " + rest.partition(" ")[2]
        p.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:{len(lines) - 1}: non-finite component"

    def test_defect_in_last_chunk_opens_file_once(self, tmp_path, monkeypatch):
        p = tmp_path / "big.txt"
        self._large_file(p, np.random.default_rng(7))
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = lines[-1].replace(" ", "  ", 1)
        p.write_text("".join(lines), encoding="utf-8")
        opened = []

        def spy(path):
            opened.append(path)
            return open_text(path)

        monkeypatch.setattr(embeddings, "open_text", spy)
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert opened == [str(p)]
        assert str(exc.value) == f"{p}:{len(lines)}: expected 101 fields, got 102"

    def test_word_of_first_chunk_repeated_in_last(self, tmp_path):
        p = tmp_path / "big.txt"
        words, _ = self._large_file(p, np.random.default_rng(9))
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = lines[-1].replace(words[-1], words[0], 1)
        p.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:{len(lines)}: duplicate word 'w0'"

    def test_blank_line_in_early_chunk_changes_nothing(self, tmp_path):
        p = tmp_path / "big.txt"
        self._large_file(p, np.random.default_rng(8), n_rows=3000)
        expected = load_word2vec_text(str(p))
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        # Past the first chunk, so bulk-parsed rows precede the validator's.
        lines.insert(len(lines) // 2, "\n")
        blank = tmp_path / "blank.txt"
        blank.write_text("".join(lines), encoding="utf-8")
        space = load_word2vec_text(str(blank))
        assert space.words == expected.words
        assert space.matrix.tobytes() == expected.matrix.tobytes()


class TestCosine:
    def test_self_similarity(self):
        u = np.array([0.3, -2.0, 5.0])
        assert cosine(u, u) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # (1*2 + 2*1) / (sqrt(5) * sqrt(5)) = 4/5
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("u, message", [
        ([0.0, 0.0], "cosine undefined for zero-norm vector"),
        # Nonzero, but every square underflows to 0.
        ([1e-170, 1e-170], "cosine undefined: vector norm underflows"),
    ], ids=["zero", "underflow"])
    def test_no_norm(self, u, message):
        for args in ((u, [1.0, 0.0]), ([1.0, 0.0], u)):
            with pytest.raises(DataError, match=message):
                cosine(*args)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=8),
        st.data(),
    )
    def test_symmetry(self, comps, data):
        u = np.array(comps)
        v = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-1e3, max_value=1e3),
                    min_size=len(comps),
                    max_size=len(comps),
                )
            )
        )
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert abs(cosine(u, v) - cosine(v, u)) <= 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, alpha):
        u = np.array([0.5, -1.0, 2.0])
        v = np.array([1.0, 0.25, -0.5])
        assert abs(cosine(alpha * u, v) - cosine(u, v)) <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, v, expected", [
        ([1e-160, 1e-161], [1.0, 0.1], 1.0),
        ([1.0, 0.1], [-1e-160, -1e-161], -1.0),
        ([1e-155, -3e-156], [1.0, -0.3], 1.0),
        ([1e-160, 0.0], [0.0, 3e-160], 0.0),
    ])
    def test_tiny_norms(self, u, v, expected):
        # Squares of a vector here fall in the subnormal range, where a
        # norm taken directly loses bits.
        assert abs(cosine(u, v) - expected) <= 4 * math.ulp(1.0)


class TestNearestNeighbor:
    def test_self_match(self):
        space = make_space("s", {"cat": (1.0, 0.2), "dog": (-0.5, 1.0)})
        assert nearest_neighbor(space, space.vector("cat")) == "cat"

    def test_hand_query(self):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        assert nearest_neighbor(space, [0.9, 0.1]) == "x"

    def test_lexicographic_tie_break(self):
        space = make_space("s", {"b": (1.0, 0.0), "a": (1.0, 0.0)})
        assert nearest_neighbor(space, [1.0, 0.0]) == "a"

    def test_dimension_mismatch(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError):
            nearest_neighbor(space, [1.0, 0.0, 0.0])

    def test_every_word_is_own_neighbor(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        space = EmbeddingSpace.from_rows("s", words, rng.normal(size=(30, 5)))
        for w in words:
            assert nearest_neighbor(space, space.vector(w)) == w


class TestSpaceValidation:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            make_space("s", {"x": (math.nan, 1.0)})

    def test_rejects_duplicate_words(self):
        with pytest.raises(DataError):
            EmbeddingSpace.from_rows("s", ["x", "x"], [[1.0, 0.0], [0.0, 1.0]])

    def test_rows_gathers_in_order(self):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 2.0)})
        assert space.rows(["y", "x", "y"]).tolist() == [
            [0.0, 2.0], [1.0, 0.0], [0.0, 2.0]]

    def test_rows_missing_word(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError, match="missing words: z"):
            space.rows(["x", "z"])

    def test_matrix_is_readonly(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 2.0

    def test_from_rows_copies_its_input(self):
        rows = np.array([[1.0, 0.0], [0.0, 2.0]])
        space = EmbeddingSpace.from_rows("s", ["x", "y"], rows)
        rows[:] = 7.0
        assert space.matrix.tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert space._unit.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.0], [0.0, 0.0], [1e-200, 1e-200]],
         "zero-norm vector for words: b"),
        ([[1.0, 0.0], [-1e-170, 0.0], [1e-200, 1e-200]],
         "vector norm underflows for words: b, c"),
    ], ids=["zero", "underflow"])
    def test_norm_reading_zero(self, rows, message):
        with pytest.raises(DataError) as exc:
            EmbeddingSpace.from_rows("s", ["a", "b", "c"], rows)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("error")
    def test_tiny_norms_give_unit_rows(self):
        # Squares of these rows fall in the subnormal range, where a norm
        # taken directly loses bits; the largest is about 1.49e-154.
        rows = [[1e-160, 1e-161], [1.0, 0.1], [1e-155, -3e-156],
                [2e-154, 1e-170], [0.0, -2.0 ** -520]]
        space = EmbeddingSpace.from_rows("s", list("abcde"), rows)
        norms = np.linalg.norm(space._unit, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 4 * np.finfo(float).eps)
        assert space._unit[4].tolist() == [0.0, -1.0]
        assert not space._unit.flags.writeable

    def test_loaded_space_is_readonly(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 2\ncat 1 0\ndog 0 3\n")
        space = load_word2vec_text(str(p))
        assert not space.matrix.flags.writeable
        assert not space._unit.flags.writeable


class TestHeaderBound:
    """The header sizes nothing: the matrix grows with the rows read, so a
    header declaring more rows than the file holds ends in a row's error or
    a row-count mismatch, never in an allocation of the declared size."""

    BODY = "a 1.0 2.0\nb 3.0 4.0\n"

    @pytest.mark.parametrize("header, message", [
        ("1000000000000 100", ":2: expected 101 fields, got 3"),
        ("100000000000000000000 2",
         ": row count mismatch: header declares 100000000000000000000, "
         "found 2"),
        ("0 100000000000000000000", ":1: header values out of range"),
    ])
    def test_oversized_header(self, tmp_path, header, message):
        p = tmp_path / "v.txt"
        write(p, f"{header}\n{self.BODY}")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}{message}"

    @pytest.mark.parametrize("vocab, dim", [(1, 1), (1, 3), (2, 1), (3, 2)])
    def test_smallest_valid_files_load(self, tmp_path, vocab, dim):
        # One empty word, one-character fields and no final newline: the
        # fewest bytes a valid file of this shape can have.
        words = [""] + [chr(ord("a") + i) for i in range(vocab - 1)]
        p = tmp_path / "v.txt"
        write(p, f"{vocab} {dim}\n"
                 + "\n".join(" ".join([w] + ["1"] * dim) for w in words))
        assert p.stat().st_size == vocab * 2 * (dim + 1) + 2
        assert load_word2vec_text(str(p)).words == tuple(words)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(header=st.tuples(st.integers(-2, 10**30), st.integers(-2, 10**30))
           .map(lambda h: f"{h[0]} {h[1]}")
           | st.text(alphabet="0123456789 -+.e", max_size=12))
    def test_fuzzed_header(self, tmp_path_factory, header):
        p = tmp_path_factory.mktemp("header") / "v.txt"
        write(p, f"{header}\n{self.BODY}")
        try:
            space = load_word2vec_text(str(p))
        except FormatError:
            return
        assert (len(space), space.dimension) == (2, 2)


class TestNearestNeighbors:
    """The batched search against a per-query brute-force reference, with
    the block cap forced down so that ties and near-ties straddle row and
    column blocks."""

    @staticmethod
    def tied_space(rng):
        """40 random rows where three vectors each appear under several
        words: the smallest word sits in the first, the middle or the last
        rows, so a tie is decided across a row-block boundary."""
        words = [f"w{i:02d}" for i in range(40)]
        matrix = rng.normal(size=(40, 6))
        for first, copies in ((3, {"b": 30, "zz": 39}),
                              (35, {"a": 0, "yy": 20}),
                              (17, {"c": 37, "m": 5})):
            for name, row in copies.items():
                matrix[row] = matrix[first]
                words[row] = name
        return EmbeddingSpace.from_rows("s", words, matrix)

    @pytest.mark.parametrize("cap_floats", [1, 7, 24, 100, 1 << 18])
    def test_exact_ties_across_blocks(self, monkeypatch, cap_floats):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * cap_floats)
        rng = np.random.default_rng(11)
        space = self.tied_space(rng)
        # Every row, then the tied rows again and near copies of them, so
        # equal queries land in different column blocks.
        queries = np.vstack([space.matrix, space.matrix[[3, 35, 17, 0]],
                             space.matrix[[3, 35, 17]]
                             + rng.normal(scale=1e-3, size=(3, 6))])
        expected = [brute_nearest(space, q) for q in queries]
        assert nearest_neighbors(space, queries) == expected
        assert expected[3] == expected[30] == expected[39] == "b"
        assert expected[35] == expected[0] == expected[20] == "a"
        assert expected[17] == expected[37] == expected[5] == "c"

    @pytest.mark.parametrize("cap_floats", [1, 2, 1 << 18])
    @pytest.mark.parametrize("larger", ["a", "b"])
    def test_near_tie_in_last_bit(self, monkeypatch, cap_floats, larger):
        # Two rows that differ in the last bit of the component the query
        # points along: their cosines differ in the last bit too, and the
        # larger wins even where the tie-break would pick the other word.
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * cap_floats)
        base = np.array([1.0, 2.0, 3.0])
        bumped = base.copy()
        bumped[0] = np.nextafter(base[0], 2.0)
        rows = {"a": bumped if larger == "a" else base,
                "b": bumped if larger == "b" else base,
                "c": np.array([-1.0, 0.5, 0.0])}
        space = make_space("s", rows)
        query = np.array([2.0, 0.0, 0.0])
        assert space._unit[0, 0] != space._unit[1, 0]
        assert brute_nearest(space, query) == larger
        assert nearest_neighbors(space, [query, query]) == [larger, larger]
        assert nearest_neighbor(space, query) == larger

    def test_one_row_case_agrees(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * 50)
        rng = np.random.default_rng(12)
        space = EmbeddingSpace.from_rows(
            "s", [f"w{i}" for i in range(30)], rng.normal(size=(30, 5)))
        queries = rng.normal(size=(25, 5))
        batch = nearest_neighbors(space, queries)
        assert batch == [nearest_neighbor(space, q) for q in queries]
        assert batch == [brute_nearest(space, q) for q in queries]

    def test_no_queries(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        assert nearest_neighbors(space, np.empty((0, 2))) == []

    def test_zero_norm_query(self):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        with pytest.raises(DataError, match="zero-norm query"):
            nearest_neighbors(space, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="zero-norm query"):
            nearest_neighbor(space, [0.0, 0.0])
        with pytest.raises(DataError, match="vector norm underflows"):
            nearest_neighbors(space, [[1.0, 0.0], [1e-170, 1e-170]])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_norm_query(self, bad):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        with pytest.raises(DataError, match="non-finite norm"):
            nearest_neighbors(space, [[1.0, 0.0], [bad, 1.0]])

    @pytest.mark.parametrize("queries", [
        [[1.0, 0.0, 0.0]], [1.0, 0.0], [[[1.0, 0.0]]]])
    def test_dimension_mismatch(self, queries):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError, match="does not match space dimension"):
            nearest_neighbors(space, queries)

    def test_one_query_must_be_a_vector(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError):
            nearest_neighbor(space, [[1.0, 0.0]])


class TestNearestNeighborMemory:
    """No block of similarities exceeds the cap, whatever the vocabulary
    size: the search's extra memory stays bounded."""

    @staticmethod
    def spy_blocks(monkeypatch):
        shapes = []
        real = embeddings._similarities

        def spy(unit_rows, unit_queries):
            block = real(unit_rows, unit_queries)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(embeddings, "_similarities", spy)
        return shapes

    @pytest.mark.parametrize("n_rows, n_queries, n_blocks", [
        (50_000, 12, 3),
        # More rows than the cap has floats: one query per block, and
        # each query's rows in two blocks.
        ((1 << 18) + 5, 3, 6),
    ])
    def test_blocks_within_cap(self, monkeypatch, n_rows, n_queries,
                               n_blocks):
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(n_rows, 2))
        space = EmbeddingSpace.from_rows(
            "s", [f"w{i}" for i in range(n_rows)], matrix)
        picks = rng.integers(0, n_rows, size=n_queries)
        shapes = self.spy_blocks(monkeypatch)
        found = nearest_neighbors(space, matrix[picks] * 3.0)
        assert len(shapes) == n_blocks
        assert all(r * c * 8 <= embeddings._NN_BLOCK_BYTES for r, c in shapes)
        assert sum(r * c for r, c in shapes) == n_rows * n_queries
        # Random 2-d rows may hold other words in the same direction, so
        # the check is the reference, not the query's own word.
        assert found == [brute_nearest(space, matrix[i]) for i in picks]

    def test_cap_is_about_two_mib(self):
        assert embeddings._NN_BLOCK_BYTES == 1 << 21


class TestLoadMemory:
    """A load holds the rows read, their unit rows and one norm-sized
    temporary, never a second copy of the rows."""

    def test_peak_within_bound(self, tmp_path):
        rng = np.random.default_rng(17)
        n, dim = 20_000, 50
        p = tmp_path / "v.txt"
        save_word2vec_text(EmbeddingSpace.from_rows(
            "s", [f"w{i}" for i in range(n)], rng.normal(size=(n, dim))),
            str(p))
        peak = traced_peak(lambda: load_word2vec_text(str(p)))
        assert peak <= 2.8 * n * dim * 8


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestPipeInput:
    """A pipe has no size and can be read only once: its header sizes
    nothing, and the validator still reports the first bad row."""

    def load(self, tmp_path, text):
        fifo, writer = feed_fifo(tmp_path, text)
        try:
            return fifo, load_word2vec_text(str(fifo))
        finally:
            writer.join()

    def load_error(self, tmp_path, text):
        with pytest.raises(FormatError) as exc:
            self.load(tmp_path, text)
        return str(exc.value)

    @pytest.mark.parametrize("header, message", [
        ("1000000000000 100", ":2: expected 101 fields, got 3"),
        ("100000000000000000000 2",
         ": row count mismatch: header declares 100000000000000000000, "
         "found 2"),
    ])
    def test_oversized_header(self, tmp_path, header, message):
        err = self.load_error(tmp_path, f"{header}\n{TestHeaderBound.BODY}")
        assert err == f"{tmp_path / 'v.fifo'}{message}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(LOADER_CONTRACT))
    def test_one_defect(self, tmp_path, name):
        text, expected = LOADER_CONTRACT[name]
        if isinstance(expected, str):
            err = self.load_error(tmp_path, text)
            assert err == expected.format(path=tmp_path / "v.fifo")
        else:
            _, space = self.load(tmp_path, text)
            assert space.words == ("cat", "dog", "fox")
            assert space.matrix.tobytes() == np.array(expected).tobytes()

    def test_many_chunks_match_file(self, tmp_path):
        p = tmp_path / "big.txt"
        TestLoaderContract._large_file(p, np.random.default_rng(5))
        text = p.read_text(encoding="utf-8")
        _, space = self.load(tmp_path, text)
        again = load_word2vec_text(str(p))
        assert space.words == again.words
        assert space.matrix.tobytes() == again.matrix.tobytes()

    def test_defect_in_last_chunk_keeps_line_number(self, tmp_path):
        p = tmp_path / "big.txt"
        TestLoaderContract._large_file(p, np.random.default_rng(6))
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-3] = "\n"  # a blank line: the validator reads from row 1
        word, _, rest = lines[-2].partition(" ")
        lines[-2] = word + " nan " + rest.partition(" ")[2]
        err = self.load_error(tmp_path, "".join(lines))
        assert err == (f"{tmp_path / 'v.fifo'}:{len(lines) - 1}: "
                       "non-finite component")


class TestByteOrderMark:
    """One UTF-8 byte order mark before the header is skipped; anywhere
    else it is an ordinary character."""

    @pytest.mark.parametrize("text", [
        "\ufeff3 3\n" + ROWS,
        "\ufeff3 3\r\ncat 1 0 0\r\ndog 0 1 0\r\nfox 0 0 1\r\n",
        # A blank line sends the file through the row validator.
        "\ufeff3 3\r\ncat 1 0 0\r\n\r\ndog 0 1 0\r\nfox 0 0 1\r\n",
    ])
    def test_loads(self, tmp_path, text):
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        space = load_word2vec_text(str(p))
        assert space.words == ("cat", "dog", "fox")
        assert space.matrix.tolist() == EYE

    def test_only_one_mark_is_skipped(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "\ufeff\ufeff3 3\n" + ROWS)
        with pytest.raises(FormatError, match=":1: non-integer header"):
            load_word2vec_text(str(p))

    def test_mark_in_a_row_is_part_of_the_word(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 2\n\ufeffa 1 0\nb 0 1\n")
        assert load_word2vec_text(str(p)).words == ("\ufeffa", "b")


# Every contract file, and one that only the space's constructor rejects.
PAIR_CASES = {**{name: text for name, (text, _) in LOADER_CONTRACT.items()},
              "norm_underflows": "2 2\na 1e-170 0\nb 0 1\n"}
GOOD = "3 3\n" + ROWS


@pytest.fixture
def concurrent(monkeypatch, forks):
    """Pairs of any size are read with the fork, as on two CPUs; returns
    the pids forked."""
    monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
    use_cpus(monkeypatch, 2)
    return forks


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a reader process was started")

    monkeypatch.setattr(os, "fork", refuse)


def outcome(call):
    """The spaces ``call()`` returns, as comparable bytes, or the type and
    text of the exception it raises."""
    try:
        spaces = call()
    except Exception as exc:
        return type(exc), str(exc)
    return [(s.label, s.words, s.matrix.tobytes(), s._unit.tobytes(),
             s.matrix.flags.writeable, s._unit.flags.writeable)
            for s in spaces]


def serial_pair(first, second):
    return load_word2vec_text(*first), load_word2vec_text(*second)


def pair_files(tmp_path, text1, text2):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(text1.encode("utf-8"))
    b.write_bytes(text2.encode("utf-8"))
    return (str(a), None), (str(b), None)


class TestLoadPair:
    """A pair read with the second file in a forked process is the pair two
    loads give, with the same first error, and leaves no process behind."""

    @pytest.mark.parametrize("labels", [(None, None), ("one", "two")])
    @pytest.mark.parametrize("swap", [False, True])
    def test_matches_two_loads(self, tmp_path, concurrent, swap, labels):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        TestLoaderContract._large_file(a, np.random.default_rng(11))
        TestLoaderContract._large_file(b, np.random.default_rng(12), 1200)
        if swap:
            a, b = b, a
        first, second = (str(a), labels[0]), (str(b), labels[1])
        got = outcome(lambda: load_word2vec_pair(first, second))
        assert len(concurrent) == 1
        assert_no_children()
        assert got == outcome(lambda: serial_pair(first, second))
        assert [space[0] for space in got] == [
            labels[0] or a.stem, labels[1] or b.stem]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", ["first", "second", "both"])
    @pytest.mark.parametrize("name", sorted(PAIR_CASES))
    def test_same_outcome_as_two_loads(self, tmp_path, concurrent, name,
                                       where):
        bad = PAIR_CASES[name]
        first, second = pair_files(tmp_path,
                                   GOOD if where == "second" else bad,
                                   GOOD if where == "first" else bad)
        got = outcome(lambda: load_word2vec_pair(first, second))
        assert len(concurrent) == 1
        assert_no_children()
        assert got == outcome(lambda: serial_pair(first, second))

    def test_bad_first_file_stops_the_reader(self, tmp_path, concurrent,
                                             monkeypatch):
        read = embeddings._read_word2vec_text
        first, second = pair_files(tmp_path, PAIR_CASES["nan"], GOOD)

        def stalled(path):
            if path == second[0]:
                time.sleep(60)
            return read(path)

        monkeypatch.setattr(embeddings, "_read_word2vec_text", stalled)
        start = time.monotonic()
        with pytest.raises(FormatError):
            load_word2vec_pair(first, second)
        assert time.monotonic() - start < 30
        assert len(concurrent) == 1
        assert_no_children()

    def test_empty_space(self, tmp_path, concurrent):
        first, second = pair_files(tmp_path, GOOD, "0 4\n")
        got = outcome(lambda: load_word2vec_pair(first, second))
        assert got == outcome(lambda: serial_pair(first, second))
        assert len(concurrent) == 1
        assert_no_children()

    def test_small_files_load_here(self, tmp_path, monkeypatch, no_fork):
        use_cpus(monkeypatch, 2)
        first, second = pair_files(tmp_path, GOOD, GOOD.replace("cat", "owl"))
        assert os.path.getsize(first[0]) < embeddings._CONCURRENT_BYTES
        assert outcome(lambda: load_word2vec_pair(first, second)) == outcome(
            lambda: serial_pair(first, second))

    def test_one_cpu_loads_here(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 1)
        first, second = pair_files(tmp_path, GOOD, GOOD)
        assert outcome(lambda: load_word2vec_pair(first, second)) == outcome(
            lambda: serial_pair(first, second))

    def test_without_fork_loads_here(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        first, second = pair_files(tmp_path, GOOD, GOOD)
        assert outcome(lambda: load_word2vec_pair(first, second)) == outcome(
            lambda: serial_pair(first, second))

    def test_failed_fork_loads_here(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 2)

        def no_process():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily "
                                  "unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        first, second = pair_files(tmp_path, GOOD, GOOD.replace("cat", "owl"))
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir(
            "/proc/self/fd") else None
        assert outcome(lambda: load_word2vec_pair(first, second)) == outcome(
            lambda: serial_pair(first, second))
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds

    def test_same_file_twice_loads_here(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 2)
        first, _ = pair_files(tmp_path, GOOD, GOOD)
        assert outcome(lambda: load_word2vec_pair(first, first)) == outcome(
            lambda: serial_pair(first, first))

    @pytest.mark.parametrize("missing", ["first", "second"])
    def test_missing_file_loads_here(self, tmp_path, monkeypatch, no_fork,
                                     missing):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 2)
        first, second = pair_files(tmp_path, GOOD, GOOD)
        gone = (str(tmp_path / "gone.txt"), None)
        pair = (gone, second) if missing == "first" else (first, gone)
        got = outcome(lambda: load_word2vec_pair(*pair))
        assert got == outcome(lambda: serial_pair(*pair))
        assert got[0] is FileNotFoundError

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("fifo_first", [True, False])
    def test_pipe_loads_here(self, tmp_path, monkeypatch, no_fork,
                             fifo_first):
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        use_cpus(monkeypatch, 2)
        regular, _ = pair_files(tmp_path, GOOD, GOOD)
        fifo, writer = feed_fifo(tmp_path, GOOD)
        pair = ((str(fifo), None), regular)
        try:
            got = load_word2vec_pair(*(pair if fifo_first else pair[::-1]))
        finally:
            # A reader held until the writer ends frees it if the load
            # failed before opening the FIFO; the text fits the pipe.
            held = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join()
            os.close(held)
        assert [s.words for s in got] == [("cat", "dog", "fox")] * 2

    def test_detected_cpus(self, tmp_path, monkeypatch, forks):
        """With the real CPU query, the pair forks only where this process
        may run on more than one CPU; the spaces are the same either way."""
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        first, second = pair_files(tmp_path, GOOD, GOOD.replace("cat", "owl"))
        got = outcome(lambda: load_word2vec_pair(first, second))
        assert got == outcome(lambda: serial_pair(first, second))
        assert len(forks) == (0 if embeddings._usable_cpus() == 1 else 1)
        assert_no_children()

    def test_threshold_is_about_eight_mib(self):
        assert embeddings._CONCURRENT_BYTES == 8 << 20
