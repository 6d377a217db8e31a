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
    # float() reads "1_0" as 10.0 and other scripts' digits and spaces;
    # neither parser does.
    "underscore_in_number": (
        "3 3\ncat 1 0 0\ndog 0 1_0 0\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
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
        "3 3\ncat 1 0 0\ndog 0 \u0661 0\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
    "non_ascii_space_in_field": (
        "3 3\ncat 1 0 0\ndog 0 1\u2003 0\nfox 0 0 1\n",
        "{path}:3: non-numeric component"),
    # The empty field ends the chunk, with no line end after it.
    "short_row_trailing_space_no_line_end": (
        "3 3\ncat 1 0 0\ndog 0 1 0\nfox 0 1 ",
        "{path}:4: non-numeric component"),
}


class TestLoaderContract:
    """The decimal kernel and the row validator accept the same files, give
    the same values, and every error comes from the validator unchanged."""

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
        """Mixed float spellings over more than one chunk."""
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
        # Past the first chunk, so the kernel's rows precede the validator's.
        lines.insert(len(lines) // 2, "\n")
        blank = tmp_path / "blank.txt"
        blank.write_text("".join(lines), encoding="utf-8")
        space = load_word2vec_text(str(blank))
        assert space.words == expected.words
        assert space.matrix.tobytes() == expected.matrix.tobytes()


def fixed_fields(k):
    """Fixed-point fields with k decimals: every whole-part length up to
    15 - k, both signs, leading zeros, all-zero and all-nine fields."""
    rng = np.random.default_rng(k)
    fields = []
    for whole in range(1, 16 - k):
        for _ in range(6):
            digits = "".join(map(str, rng.integers(0, 10, whole + k)))
            fields.append(digits)
        fields += ["0" * (whole + k), "9" * (whole + k),
                   "0" * (whole - 1) + "1" + "0" * k]
    return [sign + f[:-k] + "." + f[-k:]
            for f in fields for sign in ("", "-")]


def parse_fixed(text, rows, dim):
    """``_parse_decimal`` on the ``rows`` lines of ``text``, each after a
    word: the matrix it writes, or None."""
    chunk = "".join(f"w{i} {line}\n"
                    for i, line in enumerate(text.split("\n")))
    buf = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
    index = embeddings._line_index(buf, ord(" "), embeddings._BLANK)
    return embeddings._parse_decimal(buf, index, np.empty((rows, dim)))


def kernel_spy(monkeypatch):
    """Record each ``_parse_decimal`` call as True (read) or False
    (declined, for the validator to read)."""
    calls = []
    kernel = embeddings._parse_decimal

    def spy(*args):
        block = kernel(*args)
        calls.append(block is not None)
        return block

    monkeypatch.setattr(embeddings, "_parse_decimal", spy)
    return calls


# The body of the second of three rows, the others fixed-point with k = 2:
# spellings the kernel reads, and rows it declines for the validator.
READ_ROWS = {
    "exponent": "0.25 1.50e1 3.00",
    "plus_sign": "0.25 +1.50 3.00",
    # Its 16 digits m = 9999999999999999 are not a double: Eisel-Lemire.
    "sixteen_digits": "0.25 99999999999999.99 3.00",
    "mixed_decimals": "0.25 1.500 3.00",
}
DECLINED_ROWS = {
    "double_space": "0.25  1.50 3.00",
    "tab": "0.25\t1.50 3.00",
    # One trailing space is allowed and stripped; the second is not.
    "trailing_space": "0.25 1.50 3.00  ",
    "non_ascii_digit": "0.25 \u0661.50 3.00",
    "short_row": "0.25 1.50",
    "long_row": "0.25 1.50 3.00 4.00",
    "short_then_long_row": "0.25 1.50\nlong 0.25 1.50 3.00 4.00",
}


class TestFixedPointKernel:
    """Fixed-point text is read by one division per field, bit for bit as
    ``float()`` reads it; other spellings are read bit for bit too, and a
    chunk the kernel declines goes to the validator unchanged."""

    @pytest.mark.parametrize("k", range(1, 15))
    def test_values_equal_float(self, k):
        fields = fixed_fields(k)
        rows = [fields, fields[::-1], fields[1:] + fields[:1]]
        text = "\n".join(" ".join(row) for row in rows)
        block = parse_fixed(text, len(rows), len(fields))
        assert block is not None
        expected = np.array([[float(f) for f in row] for row in rows])
        assert np.array_equal(block.view(np.int64), expected.view(np.int64))

    def test_fifteen_decimals_have_sixteen_digits(self):
        # Past the one division: read by the decimal kernel, as float().
        text = "0.123456789012345 -0.000000000000001"
        block = parse_fixed(text, 1, 2)
        assert block.view(np.int64).tolist() == np.array(
            [[0.123456789012345, -0.000000000000001]]).view(np.int64).tolist()

    def test_signed_zero(self):
        block = parse_fixed("-0.000 0.000 -00.000", 1, 3)
        assert block.view(np.int64).tolist() == np.array(
            [[-0.0, 0.0, -0.0]]).view(np.int64).tolist()

    def test_one_trailing_space_is_read(self, tmp_path, monkeypatch):
        calls = kernel_spy(monkeypatch)
        p = tmp_path / "v.txt"
        write(p, "2 2\ncat 0.50 -1.25 \ndog 2.00 0.75\n")
        space = load_word2vec_text(str(p))
        assert calls == [True]
        assert space.matrix.tolist() == [[0.5, -1.25], [2.0, 0.75]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(READ_ROWS))
    def test_spelling_read_by_the_kernel(self, tmp_path, monkeypatch, name):
        rows = (f"cat 0.25 -1.50 3.00\ndog {READ_ROWS[name]}\n"
                "fox -0.75 2.50 1.00\n")
        p = tmp_path / "v.txt"
        write(p, f"3 3\n{rows}")
        with monkeypatch.context() as m:
            m.setattr(embeddings, "_parse_decimal", lambda *args: None)
            expected = load_word2vec_text(str(p))
        calls = kernel_spy(monkeypatch)
        space = load_word2vec_text(str(p))
        assert calls == [True]
        assert space.matrix.tobytes() == expected.matrix.tobytes()
        assert space.matrix[1].tolist() == [
            float(f) for f in READ_ROWS[name].split()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(DECLINED_ROWS))
    def test_declined_chunk_loads_as_without_kernel(self, tmp_path,
                                                    monkeypatch, name):
        rows = (f"cat 0.25 -1.50 3.00\ndog {DECLINED_ROWS[name]}\n"
                "fox -0.75 2.50 1.00\n")
        text = f"{rows.count(chr(10))} 3\n{rows}"
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        with monkeypatch.context() as m:
            m.setattr(embeddings, "_parse_decimal", lambda *args: None)
            expected = outcome(lambda: [load_word2vec_text(str(p))])
        calls = kernel_spy(monkeypatch)
        assert outcome(lambda: [load_word2vec_text(str(p))]) == expected
        assert calls == [False]

    @pytest.mark.parametrize("fixed_first", [True, False])
    def test_every_chunk_takes_the_kernel(self, tmp_path, monkeypatch,
                                          fixed_first):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 4)).tolist()
        spell = [lambda x: f"{x:.4f}", repr]
        lines, expected = [], []
        for i, row in enumerate(values):
            # The fixed-point half of the file comes first or last.
            fmt = spell[(i < 20) != fixed_first]
            fields = [fmt(x) for x in row]
            lines.append(f"w{i} " + " ".join(fields) + "\n")
            expected.append([float(f) for f in fields])
        p = tmp_path / "v.txt"
        write(p, f"{len(lines)} 4\n" + "".join(lines))
        # Each chunk is a line or two.
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 64)
        calls = kernel_spy(monkeypatch)
        space = load_word2vec_text(str(p))
        assert space.matrix.tobytes() == np.array(expected).tobytes()
        assert len(calls) > 20 and all(calls)


def halfway_fields(rng, count):
    """Decimal spellings of values exactly halfway between two adjacent
    doubles: an odd 54-bit n times 2**(k - 1), written with all its digits,
    at most 19 of them for k from -2 to 9."""
    fields = []
    for _ in range(count):
        n = int(rng.integers(2 ** 53, 2 ** 54)) | 1
        k = int(rng.integers(-2, 10))
        if k > 0:
            fields.append(str(n << (k - 1)))
        else:
            digits = str(n * 5 ** (1 - k))
            fields.append(digits[:k - 1] + "." + digits[k - 1:])
    return fields


SPELLINGS = {"%.5f": "{:.5f}".format, "%.6g": "{:.6g}".format,
             "%.5e": "{:.5e}".format, "repr": repr}

# Fields of every form the kernel meets, one at a time between two
# fixed-point neighbours: read as float() reads them, or the validator's
# error.
EDGE_FIELDS = [
    "-0.0", "0.0", "-0", "+0", "0e0", "-0e-400",
    "4.9e-324", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
    "1e-320", "1e-400", "1e308", "1.7976931348623157e308",
    "1.7976931348623159e308", "1e309", "-1e309",
    ".5", "5.", "-.5", "+1.5", "+.5e1", "00001.5", "-000.000125",
    "0.0000000000000000000001", "1E5", "1e+05", "1.5E-3", "1e0005", "2e22",
    "2e23", "9007199254740993e-22",
    "1234567890123456", "12345678901234567", "1234567890123456789",
    "12345678901234567890", "0.1234567890123456789",
    "0.0012345678901234567", "9007199254740993", "9007199254740995",
    "18014398509481986e1",
    # Digits w just below a power of two, which rounds up to it as a double.
    "18014398509481983", "1152921504606846975e-3", "1e", "e5", "1.2.3", "--1", "+-1", "1e5e5", "1e+",
    "nan", "inf", "-Infinity", "0x10", "1_0", "1.5_0",
]


class TestDecimalKernel:
    """The kernel reads every spelling of a number bit for bit as
    ``float()`` does, in place where it can; the rest one field at a time
    by ``float()``, or it declines the chunk for the validator to name."""

    @staticmethod
    def fields_to_float(monkeypatch):
        """Record the number of fields each ``_read_each`` call reads."""
        sent = []
        each = embeddings._read_each

        def spy(buf, starts, ends):
            sent.append(len(starts))
            return each(buf, starts, ends)

        monkeypatch.setattr(embeddings, "_read_each", spy)
        return sent

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_spelling_equals_float(self, monkeypatch, spelling):
        rng = np.random.default_rng(len(spelling))
        values = rng.normal(size=3000) * 10.0 ** rng.integers(-12, 12, 3000)
        fields = [SPELLINGS[spelling](x) for x in values.tolist()]
        sent = self.fields_to_float(monkeypatch)
        block = parse_fixed("\n".join(" ".join(fields[i:i + 100])
                                      for i in range(0, 3000, 100)), 30, 100)
        expected = np.array([float(f) for f in fields]).reshape(30, 100)
        assert block.view(np.int64).tolist() == expected.view(
            np.int64).tolist()
        # Only repr's 20 and 21 digits of values from 1e-4 to 1e-3.
        assert sum(sent) == 0 if spelling != "repr" else sum(sent) < 60

    def test_halfway_cases_equal_float(self):
        rng = np.random.default_rng(17)
        fields = halfway_fields(rng, 2000)
        # And one unit of their last digit above and below.
        fields += [f[:-1] + str(int(f[-1]) + d) for f in fields[:500]
                   for d in (-1, 1) if f[-1] in "12345678"]
        block = parse_fixed(" ".join(fields), 1, len(fields))
        expected = np.array([[float(f) for f in fields]])
        assert block.view(np.int64).tolist() == expected.view(
            np.int64).tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", EDGE_FIELDS)
    def test_edge_field(self, tmp_path, monkeypatch, field):
        p = tmp_path / "v.txt"
        write(p, f"3 3\ncat 0.25 -1.50 3.00\ndog 0.50 {field} 1.25\n"
                 "fox -0.75 2.50 1.00\n")
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and "_" not in field:
            block = parse_fixed(f"0.50 {field} 1.25", 1, 3)
            assert block[0, 1].tobytes() == np.float64(value).tobytes()
            return
        with monkeypatch.context() as m:
            m.setattr(embeddings, "_parse_decimal", lambda *args: None)
            expected = outcome(lambda: [load_word2vec_text(str(p))])
        calls = kernel_spy(monkeypatch)
        assert outcome(lambda: [load_word2vec_text(str(p))]) == expected
        assert expected[0] is FormatError and calls == [False]

    @pytest.mark.slow
    def test_repr_round_trip(self, tmp_path, monkeypatch, capsys):
        # A rotated space, as align writes one: repr text, with exponents
        # below 1e-4.
        rng = np.random.default_rng(23)
        n, dim = 20_000, 100
        rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        space = EmbeddingSpace.from_rows(
            "rot", [f"w{i}" for i in range(n)],
            rng.normal(scale=0.3, size=(n, dim)) @ rotation)
        p = tmp_path / "rot.txt"
        save_word2vec_text(space, str(p))
        assert b"e-05 " in p.read_bytes()
        calls = kernel_spy(monkeypatch)
        sent = self.fields_to_float(monkeypatch)
        loaded = load_word2vec_text(str(p))
        assert loaded.words == space.words
        assert loaded.matrix.tobytes() == space.matrix.tobytes()
        assert len(calls) > 30 and all(calls)
        with capsys.disabled():
            print(f"\nrepr round trip: {sum(sent)} of {n * dim} fields "
                  "read by float()")

    @pytest.mark.parametrize("field", EDGE_FIELDS)
    def test_edge_field_among_exponents(self, field):
        row = ["2.5e-3", "-7E+21", field]
        block = parse_fixed(" ".join(row), 1, len(row))
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and "_" not in field:
            assert block[0, -1].tobytes() == np.float64(value).tobytes()
            assert block[0, :2].tolist() == [2.5e-3, -7e21]
        else:
            assert block is None

    @pytest.mark.parametrize("field", ["1.234567+01", "1.23456e+1x",
                                       "1.23456e*01", "1.23456E+01"])
    def test_one_exponent_layout(self, field):
        # The first field's layout, checked for every field: what differs
        # is read as float() reads it, or declined.
        row = ["{:.5e}".format(x) for x in (0.5, -20.0, 3e-7)] + [field]
        block = parse_fixed(" ".join(row), 1, len(row))
        try:
            value = float(field)
        except ValueError:
            assert block is None
        else:
            assert block[0].tolist() == [0.5, -20.0, 3e-7, value]

    @staticmethod
    def exponent_calls(monkeypatch):
        """Record each pass that reaches ``_exponent``, past the one
        division of fixed-point text."""
        read = []
        exponent = embeddings._exponent
        monkeypatch.setattr(embeddings, "_exponent",
                            lambda *args: read.append(1) or exponent(*args))
        return read

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_one_layout_takes_one_division(self, monkeypatch, spelling):
        # A pass whose fields all share the first one's "%.5f" layout never
        # reaches _exponent.
        read = self.exponent_calls(monkeypatch)
        values = np.random.default_rng(3).normal(size=300)
        fields = [SPELLINGS[spelling](x) for x in values.tolist()]
        block = parse_fixed(" ".join(fields), 1, len(fields))
        assert block[0].tolist() == [float(f) for f in fields]
        assert bool(read) == (spelling != "%.5f")

    def test_signed_fixed_point_takes_one_division(self, monkeypatch):
        read = self.exponent_calls(monkeypatch)
        fields = ["+1.50000", "-0.25000", "+0.00000", "-0.00000", "0.12500",
                  "+12.00001"]
        block = parse_fixed(" ".join(fields), 1, len(fields))
        assert read == []
        assert block.view(np.int64).tolist() == np.array(
            [[float(f) for f in fields]]).view(np.int64).tolist()

    @pytest.mark.parametrize("last", ["1e5", "1e", "1e+"])
    def test_exponent_at_end_of_file(self, tmp_path, monkeypatch, last):
        # A last line without a line end: its exponent ends the chunk.
        p = tmp_path / "v.txt"
        write(p, f"2 2\ncat 1.5 2e5\ndog 0.5 {last}")
        with monkeypatch.context() as m:
            m.setattr(embeddings, "_parse_decimal", lambda *args: None)
            expected = outcome(lambda: [load_word2vec_text(str(p))])
        calls = kernel_spy(monkeypatch)
        assert outcome(lambda: [load_word2vec_text(str(p))]) == expected
        assert calls == [last == "1e5"]

    def test_plus_is_not_structural(self, tmp_path, monkeypatch):
        # "+" below "-" ends no field of a body, nor a word.
        p = tmp_path / "v.txt"
        write(p, "2 2\nc++ +1.5e+01 2e+0\n+ 1 -0.5E+1\n")
        calls = kernel_spy(monkeypatch)
        space = load_word2vec_text(str(p))
        assert calls == [True]
        assert space.words == ("c++", "+")
        assert space.matrix.tolist() == [[15.0, 2.0], [1.0, -5.0]]


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u", [
        [np.inf, 0.0], [np.nan, 1.0],
        # Finite, but the sum of squares overflows.
        [1e200, 1e200],
    ], ids=["inf", "nan", "overflow"])
    def test_non_finite_norm(self, u):
        for args in ((u, [1.0, 0.0]), ([1.0, 0.0], u), (u, u)):
            with pytest.raises(DataError,
                               match="cosine produced a non-finite value"):
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
        assert nearest_neighbors(space, space.vector("cat")[None])[0] == "cat"

    def test_hand_query(self):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        assert nearest_neighbors(space, [[0.9, 0.1]])[0] == "x"

    def test_lexicographic_tie_break(self):
        space = make_space("s", {"b": (1.0, 0.0), "a": (1.0, 0.0)})
        assert nearest_neighbors(space, [[1.0, 0.0]])[0] == "a"

    def test_dimension_mismatch(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError):
            nearest_neighbors(space, [[1.0, 0.0, 0.0]])

    def test_empty_space(self):
        space = EmbeddingSpace.from_rows("s", [], np.zeros((0, 2)))
        with pytest.raises(DataError,
                           match="^nearest_neighbor on empty space$"):
            nearest_neighbors(space, [[1.0, 0.0]])

    def test_every_word_is_own_neighbor(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        space = EmbeddingSpace.from_rows("s", words, rng.normal(size=(30, 5)))
        for w in words:
            assert nearest_neighbors(space, space.vector(w)[None])[0] == w


class TestSpaceValidation:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            make_space("s", {"x": (math.nan, 1.0)})

    def test_rejects_duplicate_words(self):
        with pytest.raises(DataError):
            EmbeddingSpace.from_rows("s", ["x", "x"], [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("rows, message", [
        (np.ones((3, 2)), "matrix shape (3, 2) does not match 2 words"),
        (np.ones((2, 0)), "embedding dimension must be positive"),
    ], ids=["rows-past-words", "no-dimension"])
    def test_rejects_matrix_shape(self, rows, message):
        with pytest.raises(DataError) as exc:
            EmbeddingSpace.from_rows("s", ["x", "y"], rows)
        assert str(exc.value) == message

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
    """The header alone sizes nothing: the matrix is allocated once for the
    smaller of the header's rows and the rows the file's size allows, so a
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
        assert nearest_neighbors(space, query[None])[0] == larger

    def test_one_row_case_agrees(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * 50)
        rng = np.random.default_rng(12)
        space = EmbeddingSpace.from_rows(
            "s", [f"w{i}" for i in range(30)], rng.normal(size=(30, 5)))
        queries = rng.normal(size=(25, 5))
        batch = nearest_neighbors(space, queries)
        assert batch == [nearest_neighbors(space, q[None])[0] for q in queries]
        assert batch == [brute_nearest(space, q) for q in queries]

    def test_no_queries(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        assert nearest_neighbors(space, np.empty((0, 2))) == []

    def test_zero_norm_query(self):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        with pytest.raises(DataError, match="zero-norm query"):
            nearest_neighbors(space, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="zero-norm query"):
            nearest_neighbors(space, [[0.0, 0.0]])
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_pipe_loads_as_the_file_without_it(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(fixed_file())
        fifo, writer = feed_fifo(tmp_path,
                                 fixed_file(bom=True).decode("utf-8"))
        try:
            space = load_word2vec_text(str(fifo), "v")
        finally:
            writer.join()
        want = load_word2vec_text(str(p))
        assert space.words == want.words
        assert space.matrix.tobytes() == want.matrix.tobytes()


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


# Characters per chunk in TestChunkByChunk: five or six of its rows.
SMALL_CHUNK = 200


def fixed_rows(n_rows=40, dim=4, seed=31):
    """Lines of ``n_rows`` rows of 4-decimal components, words w0, w1, ...,
    and their values as float() reads them."""
    rng = np.random.default_rng(seed)
    lines, values = [], []
    for i, row in enumerate(rng.normal(size=(n_rows, dim)).tolist()):
        fields = [f"{x:.4f}" for x in row]
        lines.append(f"w{i} " + " ".join(fields) + "\n")
        values.append([float(f) for f in fields])
    return lines, values


def chunks(path):
    """The chunks of lines the loader reads from ``path``, after its
    header."""
    with open_text(path) as fh:
        fh.readline()
        return list(iter(lambda: fh.readlines(embeddings._CHUNK_CHARS), []))


def validator_spy(monkeypatch):
    """Record each ``_parse_rows`` call as the first line number it was
    given and the rows it returned."""
    calls = []
    validator = embeddings._parse_rows

    def spy(*args):
        rows = validator(*args)
        calls.append((args[-1], rows))
        return rows

    monkeypatch.setattr(embeddings, "_parse_rows", spy)
    return calls


class TestChunkByChunk:
    """Every chunk is read by one rule: the kernel reads it, or, if it
    declines, the validator reads that chunk alone, and the next chunk goes
    to the kernel again."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", SMALL_CHUNK)

    @staticmethod
    def with_blank_line(lines, at=2):
        return lines[:at] + ["\n"] + lines[at:]

    def test_validator_reads_only_the_declined_chunk(self, tmp_path,
                                                      monkeypatch):
        lines, values = fixed_rows()
        clean, blank = tmp_path / "clean.txt", tmp_path / "blank.txt"
        write(clean, "40 4\n" + "".join(lines))
        write(blank, "40 4\n" + "".join(self.with_blank_line(lines)))
        read = chunks(blank)
        assert len(read) >= 3 and "\n" in read[0]
        calls = validator_spy(monkeypatch)
        space = load_word2vec_text(str(blank))
        assert [start for start, _ in calls] == [2]
        assert calls[0][1].tobytes() == np.array(
            values[:len(read[0]) - 1]).tobytes()
        expected = load_word2vec_text(str(clean))
        assert len(calls) == 1
        assert space.words == expected.words
        assert space.matrix.tobytes() == expected.matrix.tobytes()
        assert space.matrix.tobytes() == np.array(values).tobytes()

    def test_defect_after_declined_chunk_names_its_line(self, tmp_path,
                                                         monkeypatch):
        lines = self.with_blank_line(fixed_rows()[0])
        p = tmp_path / "v.txt"
        write(p, "40 4\n" + "".join(lines))
        read = chunks(p)
        # The first row of the third chunk; the chunks before it keep
        # their lines.
        at = len(read[0]) + len(read[1])
        word, _, rest = lines[at].partition(" ")
        lines[at] = f"{word} nan {rest.partition(' ')[2]}"
        write(p, "40 4\n" + "".join(lines))
        calls = validator_spy(monkeypatch)
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:{at + 2}: non-finite component"
        # The second chunk, between them, was read by the kernel.
        assert [start for start, _ in calls] == [2]

    @pytest.mark.parametrize("last_by", ["kernel", "validator"])
    def test_row_count_mismatch_either_way(self, tmp_path, monkeypatch,
                                           last_by):
        lines = fixed_rows()[0]
        if last_by == "validator":
            lines = self.with_blank_line(lines, at=len(lines) - 1)
        p = tmp_path / "v.txt"
        write(p, "41 4\n" + "".join(lines))
        last = 2 + sum(map(len, chunks(p)[:-1]))
        calls = validator_spy(monkeypatch)
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == (
            f"{p}: row count mismatch: header declares 41, found 40")
        assert [start for start, _ in calls] == (
            [last] if last_by == "validator" else [])

    @pytest.mark.parametrize("defect", ["none", "nan", "duplicate_word"])
    def test_pair_reads_by_the_same_rule(self, tmp_path, concurrent, defect):
        lines = fixed_rows()[0]
        bad = self.with_blank_line(lines)
        if defect == "nan":
            bad[30] = "w29 nan " + bad[30].split(" ", 2)[2]
        elif defect == "duplicate_word":
            bad[30] = bad[30].replace("w29", "w0", 1)
        first, second = pair_files(tmp_path, "40 4\n" + "".join(lines),
                                   "40 4\n" + "".join(bad))
        got = outcome(lambda: load_word2vec_pair(first, second))
        assert len(concurrent) == 1
        assert_no_children()
        assert got == outcome(lambda: serial_pair(first, second))
        if defect == "none":
            assert got[1][1:4] == got[0][1:4]
        else:
            assert got[0] is FormatError and f"{second[0]}:32: " in got[1]


class TestNumberSpellings:
    """A component is a number the kernel and the validator read, and a
    header field is ASCII digits after an optional "-". What only float()
    or int() reads is a one-line FormatError, whichever reader meets it."""

    @pytest.mark.parametrize("neighbours", ["0.50 0.25", "5e-1 2.5e-1"],
                             ids=["fixed_point", "exponent"])
    @pytest.mark.parametrize("field", ["1_0.5", "\u0663", "1\u2003",
                                       "\uff11", "\u0661.50"])
    def test_component(self, tmp_path, neighbours, field):
        assert math.isfinite(float(field))  # float() reads every one
        p = tmp_path / "v.txt"
        write(p, f"3 2\nb {neighbours}\na 1 {field}\nc {neighbours}\n")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:3: non-numeric component"

    def test_word_stays_utf8(self, tmp_path):
        p = tmp_path / "v.txt"
        write(p, "2 2\n\u0663 0.50 0.25\nb 1 2\n")
        assert load_word2vec_text(str(p)).words == ("\u0663", "b")

    @pytest.mark.parametrize("header", ["0_2 2", "\u0662 2", "+2 +2",
                                        "2 +2", "2 2_0", "2 \uff12", "- 2",
                                        "--2 2"])
    def test_header_non_integer(self, tmp_path, header):
        p = tmp_path / "v.txt"
        write(p, f"{header}\na 1 0\nb 0 1\n")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:1: non-integer header fields"

    @pytest.mark.parametrize("header", ["-2 2", "2 -2", "-02 -2"])
    def test_negative_header_out_of_range(self, tmp_path, header):
        p = tmp_path / "v.txt"
        write(p, f"{header}\na 1 0\nb 0 1\n")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:1: header values out of range"


class TestStoredNorms:
    """A space holds its rows and one norm per row; unit rows are made
    from them only where a computation needs them."""

    @staticmethod
    def spaces(tmp_path):
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(300)]
        built = EmbeddingSpace.from_rows("s", words, rng.normal(size=(300, 7)))
        p = tmp_path / "v.txt"
        save_word2vec_text(built, str(p))
        return {"from_rows": built, "loaded": load_word2vec_text(str(p))}

    def test_unit_is_unit_rows_of_the_norms(self):
        # Rows of every kind _unit_rows handles: plain, with squares in
        # the subnormal range, and a single nonzero component.
        rows = [[3.0, -4.0], [1e-160, 1e-161], [1.0, 0.1], [0.0, -2.0 ** -520]]
        space = EmbeddingSpace.from_rows("s", list("abcd"), rows)
        expected = embeddings._unit_rows(space.matrix, space._norms)
        assert space._unit.tobytes() == expected.tobytes()
        assert space._unit[0].tolist() == [0.6, -0.8]
        assert not space._unit.flags.writeable
        with pytest.raises(ValueError):
            space._unit[0, 0] = 1.0
        assert not space._norms.flags.writeable
        with pytest.raises(ValueError):
            space._norms[0] = 1.0

    @pytest.mark.parametrize("kind", ["from_rows", "loaded"])
    def test_no_second_matrix(self, tmp_path, kind):
        space = self.spaces(tmp_path)[kind]
        arrays = [v for v in vars(space).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(300, 7), (300,)]
        assert arrays[0] is space.matrix
        assert space._norms.tobytes() == np.linalg.norm(
            space.matrix, axis=1).tobytes()

    @pytest.mark.parametrize("cap_floats", [1, 7 * 13, 1 << 18])
    def test_blocked_norms_match_one_pass(self, monkeypatch, cap_floats):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * cap_floats)
        rng = np.random.default_rng(22)
        matrix = rng.normal(size=(100, 7)) * np.logspace(-150, 150, 100)[:, None]
        space = EmbeddingSpace.from_rows("s", [f"w{i}" for i in range(100)],
                                         matrix)
        assert space._norms.tobytes() == np.linalg.norm(matrix,
                                                        axis=1).tobytes()

    def test_norms_in_blocks_hold_no_squared_matrix(self):
        rng = np.random.default_rng(23)
        n, dim = 20_000, 50
        matrix = rng.normal(size=(n, dim))
        words = [f"w{i}" for i in range(n)]
        # The squares of one block of rows, 2 MiB, not of all 8 MB.
        peak = traced_peak(lambda: EmbeddingSpace._adopt("s", words, matrix))
        assert peak <= 0.5 * n * dim * 8

    def test_cosines_normalize_only_the_rows_gathered(self, monkeypatch):
        rng = np.random.default_rng(24)
        space = EmbeddingSpace.from_rows(
            "s", [f"w{i}" for i in range(500)], rng.normal(size=(500, 6)))
        sizes = []
        real = embeddings._unit_rows

        def spy(rows, norms):
            sizes.append(len(rows))
            return real(rows, norms)

        unit = space._unit
        monkeypatch.setattr(embeddings, "_unit_rows", spy)
        block = embeddings.cosines(space, ["w3", "w400"], ["w7", "w3", "w9"])
        assert sizes == [2, 3]
        expected = np.clip(np.einsum("id,jd->ij", unit[[3, 400]],
                                     unit[[7, 3, 9]]), -1.0, 1.0)
        expected[0, 1] = 1.0
        assert block.tobytes() == expected.tobytes()


class TestVocabularyBlocks:
    """The neighbour scan takes the vocabulary in blocks of rows, outside
    the query blocks, and normalizes each block once per call."""

    @pytest.mark.parametrize("cap_floats, blocks", [
        (6 * 7, [7, 7, 7, 7, 7, 5]),  # 7 rows, then 6 queries per block
        (6 * 20, [20, 20]),
        (1 << 18, [40]),
    ])
    def test_each_block_normalized_once(self, monkeypatch, cap_floats,
                                        blocks):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_BYTES", 8 * cap_floats)
        rng = np.random.default_rng(25)
        space = TestNearestNeighbors.tied_space(rng)
        queries = np.vstack([space.matrix, rng.normal(size=(9, 6))])
        expected = [brute_nearest(space, q) for q in queries]
        normalized, products = [], []
        unit_rows, similarities = embeddings._unit_rows, embeddings._similarities

        def spy_unit(rows, norms):
            normalized.append(len(rows))
            return unit_rows(rows, norms)

        def spy_products(rows, unit_queries):
            products.append((len(unit_queries), len(rows)))
            return similarities(rows, unit_queries)

        monkeypatch.setattr(embeddings, "_unit_rows", spy_unit)
        monkeypatch.setattr(embeddings, "_similarities", spy_products)
        assert nearest_neighbors(space, queries) == expected
        assert normalized == blocks
        # Every query block is scored against every vocabulary block.
        assert sorted({c for _, c in products}) == sorted(set(blocks))
        assert sum(r * c for r, c in products) == len(queries) * len(space)
        assert all(r * c <= cap_floats for r, c in products)

    def test_no_queries_normalize_nothing(self, monkeypatch):
        space = make_space("s", {"x": (1.0, 0.0), "y": (0.0, 1.0)})

        def no_unit_rows(rows, norms):
            raise AssertionError("a vocabulary block was normalized")

        monkeypatch.setattr(embeddings, "_unit_rows", no_unit_rows)
        assert nearest_neighbors(space, np.empty((0, 2))) == []


# Words holding bytes below "-", which end no field: GloVe's tokens, other
# ASCII punctuation and a tab.
PUNCTUATED = [",", "'s", "!", "#", "a\tb", "x,y", '"', "(", "*", "+", "$%&"]


def fixed_file(ends="\n", words=None, bom=False, final=True, n_rows=40):
    """Bytes of a word2vec file of ``fixed_rows``, with the given line ends
    (one string, or one per line), words and byte order mark."""
    lines, _ = fixed_rows(n_rows)
    if words is not None:
        lines = [w + line[line.index(" "):] for w, line in zip(words, lines)]
    if isinstance(ends, str):
        ends = [ends] * (n_rows + 1)
    text = "".join(line.removesuffix("\n") + end for line, end in
                   zip([f"{n_rows} 4\n"] + lines, ends))
    if not final:
        text = text.rstrip("\r\n")
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")


def punctuated_words(n_rows=40):
    return [w + str(i) if i >= len(PUNCTUATED) else w
            for i, w in enumerate(PUNCTUATED + ["w"] * n_rows)][:n_rows]


def with_bytes(data, row, old, new):
    """``data`` with the first ``old`` in the line of row ``row``, counted
    from 0 after the header, replaced by ``new``."""
    lines = data.split(b"\n")
    lines[row + 1] = lines[row + 1].replace(old, new, 1)
    return b"\n".join(lines)


BYTE_FILES = {
    "crlf": fixed_file("\r\n"),
    "lone_cr": fixed_file("\r"),
    "mixed_ends": fixed_file(["\n", "\r\n", "\r"] * 14),
    "bom_crlf": fixed_file("\r\n", bom=True),
    "no_final_line_end": fixed_file(final=False),
    "crlf_no_final_line_end": fixed_file("\r\n", final=False),
    "punctuated_words": fixed_file(words=punctuated_words()),
    "punctuated_crlf_blank_line": fixed_file(
        ["\r\n"] * 20 + ["\r\n\r\n"] + ["\r\n"] * 20, punctuated_words()),
    "trailing_space_crlf": fixed_file(" \r\n"),
    "not_utf8_in_word": with_bytes(fixed_file(), 20, b"w20", b"w\xff0"),
    "not_utf8_in_body": with_bytes(fixed_file(), 20, b".", b"\xff"),
    "truncated_character_at_end": fixed_file(final=False) + b"\xe2\x82",
    "truncated_character_in_word": with_bytes(fixed_file(), 20, b" ",
                                              b"\xe2\x82 "),
    "tab_in_body": with_bytes(fixed_file(), 20, b" 0", b"\t0"),
    "tab_word_no_space": with_bytes(fixed_file(), 20, b" ", b"\t"),
}


def kernel_declined(monkeypatch):
    """The kernel declines every chunk: the validator reads them all."""
    monkeypatch.setattr(embeddings, "_parse_decimal", lambda *args: None)


class TestByteReader:
    """Chunks read as bytes from a structural index give the space, or the
    error text, that the loader gives with the kernel declining every
    chunk, at any chunk size."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk", [1 << 20, 200])
    @pytest.mark.parametrize("name", sorted(BYTE_FILES))
    def test_same_outcome_as_declined_kernel(self, tmp_path, monkeypatch,
                                             chunk, name):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        p = tmp_path / "v.txt"
        p.write_bytes(BYTE_FILES[name])
        got = outcome(lambda: [load_word2vec_text(str(p))])
        kernel_declined(monkeypatch)
        assert got == outcome(lambda: [load_word2vec_text(str(p))])

    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"])
    def test_punctuated_words_take_the_kernel(self, tmp_path, monkeypatch,
                                              ends):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 200)
        calls = kernel_spy(monkeypatch)
        p = tmp_path / "v.txt"
        p.write_bytes(fixed_file(ends, punctuated_words()))
        space = load_word2vec_text(str(p))
        assert len(calls) > 3 and all(calls)
        assert space.words == tuple(punctuated_words())
        assert space.matrix.tobytes() == np.array(fixed_rows()[1]).tobytes()

    @pytest.mark.parametrize("name, message", [
        ("not_utf8_in_word", "invalid start byte"),
        ("truncated_character_at_end", "unexpected end of data"),
        ("truncated_character_in_word", "invalid continuation byte"),
    ])
    def test_not_utf8_names_the_file(self, tmp_path, name, message):
        p = tmp_path / "v.txt"
        data = BYTE_FILES[name]
        p.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as bad:
            data.decode("utf-8")
        line = data[:bad.value.start].count(b"\n") + 1
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:{line}: not valid UTF-8 ({message})"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_pipe_of_many_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 200)
        text = BYTE_FILES["punctuated_crlf_blank_line"].decode("utf-8")
        fifo, writer = feed_fifo(tmp_path, text)
        try:
            got = outcome(lambda: [load_word2vec_text(str(fifo))])
        finally:
            writer.join()
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        kernel_declined(monkeypatch)
        assert got == outcome(lambda: [load_word2vec_text(str(p))])


# Each body after the header "3 2" and the row "a 1.0 2.0", and the error
# the load names at any chunk size: line 3 is short, and line 4 (or 3)
# holds a byte that is not UTF-8.
NOT_UTF8_AFTER = {
    "short_row_first": (b"b 1.0\nc\xff 1.0 2.0\n",
                        "3: expected 3 fields, got 2"),
    "not_utf8_row": (b"b 1.0 2.0\nc\xff 1.0 2.0\n",
                     "4: not valid UTF-8 (invalid start byte)"),
    "not_utf8_field": (b"b 1.0 2.\xe2\n", "3: not valid UTF-8 "
                       "(invalid continuation byte)"),
}


class TestDefectAtAnyChunkSize:
    """A byte that is not UTF-8 is named at its line, and only after every
    defect of the lines before it, whatever the chunk size, in this
    process and in the forked reader."""

    @pytest.mark.parametrize("chunk", [1 << 20, 64, 4, 1])
    @pytest.mark.parametrize("name", sorted(NOT_UTF8_AFTER))
    def test_serial(self, tmp_path, monkeypatch, chunk, name):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        body, message = NOT_UTF8_AFTER[name]
        p = tmp_path / "bad.txt"
        p.write_bytes(b"3 2\na 1.0 2.0\n" + body)
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        assert str(exc.value) == f"{p}:{message}"

    @pytest.mark.parametrize("chunk", [1 << 20, 64, 4, 1])
    @pytest.mark.parametrize("name", sorted(NOT_UTF8_AFTER))
    def test_forked_reader(self, tmp_path, monkeypatch, concurrent, chunk,
                           name):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        body, message = NOT_UTF8_AFTER[name]
        first, _ = pair_files(tmp_path, GOOD, "")
        p = tmp_path / "bad.txt"
        p.write_bytes(b"3 2\na 1.0 2.0\n" + body)
        with pytest.raises(FormatError) as exc:
            load_word2vec_pair(first, (str(p), None))
        assert str(exc.value) == f"{p}:{message}"
        assert len(concurrent) == 1
        assert_no_children()

    @pytest.mark.parametrize("chunk", [1 << 20, 4])
    def test_byte_of_the_first_chunk_before_the_header_error(
            self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        p = tmp_path / "bad.txt"
        p.write_bytes(b"3 x\na 1.0 2.0\nb\xff 1.0 2.0\n")
        with pytest.raises(FormatError) as exc:
            load_word2vec_text(str(p))
        expected = (f"{p}:3: not valid UTF-8 (invalid start byte)"
                    if chunk > 30 else f"{p}:1: non-integer header fields")
        assert str(exc.value) == expected


def growth_spy(monkeypatch):
    """Record each ``_reserve`` call that grows the matrix, as its rows
    before and after."""
    grown = []
    reserve = embeddings._reserve

    def spy(rows, need, limit):
        before = len(rows)
        reserve(rows, need, limit)
        if len(rows) != before:
            grown.append((before, len(rows)))

    monkeypatch.setattr(embeddings, "_reserve", spy)
    return grown


class TestMatrixAllocation:
    """A regular file's matrix is allocated once, for the header's rows or
    the most its size allows; a pipe's grows as rows arrive."""

    @pytest.mark.parametrize("chunk", [1 << 20, 200])
    def test_regular_file_never_grows(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", chunk)
        grown = growth_spy(monkeypatch)
        p = tmp_path / "v.txt"
        p.write_bytes(fixed_file())
        assert len(load_word2vec_text(str(p))) == 40
        assert grown == []

    def test_bound_below_header(self, tmp_path):
        p = tmp_path / "v.txt"
        # A matrix of the header's rows would take 160 MB; the 12 bytes of
        # rows hold at most two.
        write(p, "10000000 2\na 1 2\nb 3 4\n")

        def load():
            with pytest.raises(FormatError, match="row count mismatch"):
                load_word2vec_text(str(p))

        assert traced_peak(load) < 8 << 20

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_pipe_grows_to_the_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 200)
        grown = growth_spy(monkeypatch)
        fifo, writer = feed_fifo(tmp_path, fixed_file().decode("ascii"))
        try:
            space = load_word2vec_text(str(fifo))
        finally:
            writer.join()
        assert space.matrix.tobytes() == np.array(fixed_rows()[1]).tobytes()
        assert grown[0][0] == 0 and grown[-1][1] == 40
        assert all(after <= max(2 * before, 40) for before, after in grown)
