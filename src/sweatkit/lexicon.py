"""Pole lexicon refinement: round-trip stability and Zipf frequency filters."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .alignment import round_trip_stability
from .association import PoleWordsets
from .embeddings import (_TAB, EmbeddingSpace, _chunks, _digit_faults,
                         _line_index, _lines, _words)
from .errors import FormatError, VocabularyError, open_text, read_json

REJECT_REASONS = (
    "oov_space1",
    "oov_space2",
    "oov_frequency",
    "unstable_roundtrip",
    "low_zipf_1",
    "low_zipf_2",
)


@dataclass
class FrequencyTable:
    """word -> raw count over a corpus of ``total_tokens`` tokens."""

    counts: dict
    total_tokens: int

    def __post_init__(self):
        if self.total_tokens <= 0:
            raise FormatError("total_tokens must be positive")
        at = _first_out_of_range(self.counts, self.total_tokens)
        if at is not None:
            w, c = list(self.counts.items())[at]
            if c < 1:
                raise FormatError(f"count for '{w}' must be >= 1")
            raise FormatError(
                f"count for '{w}' exceeds total_tokens {self.total_tokens}")

    def __contains__(self, word: str) -> bool:
        return word in self.counts

    def zipf(self, word: str) -> float:
        """log10 of the word's frequency per billion tokens. No smoothing;
        absent words are errors."""
        if word not in self.counts:
            raise VocabularyError(
                f"word '{word}' not in frequency table", missing=[word]
            )
        count = self.counts[word]
        share = count / self.total_tokens
        if share < sys.float_info.min:
            # Subnormal or zero: take the logs of the integers instead.
            return math.log10(count) - math.log10(self.total_tokens) + 9
        return math.log10(share * 1e9)


def _first_out_of_range(counts: dict, total: int):
    """Position, in the order of ``counts``, of its first count below 1 or
    above ``total``; None if there is none."""
    values = counts.values()
    if not values or 1 <= min(values) and max(values) <= total:
        return None
    return next(i for i, c in enumerate(values) if not 1 <= c <= total)


@dataclass
class Lexicon:
    """Candidate pole wordsets plus a provenance note."""

    poles: PoleWordsets
    provenance: str = ""


@dataclass
class RefinementReport:
    kept_a: list
    kept_b: list
    rejected: list = field(default_factory=list)  # (word, reason)

    def to_dict(self) -> dict:
        return {
            "kept_a": list(self.kept_a),
            "kept_b": list(self.kept_b),
            "rejected": [list(t) for t in self.rejected],
        }


def _oov_reason(
    word: str,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    table1: FrequencyTable,
    table2: FrequencyTable,
):
    if word not in space1:
        return "oov_space1"
    if word not in space2:
        return "oov_space2"
    if word not in table1 or word not in table2:
        return "oov_frequency"
    return None


def refine(
    lexicon: Lexicon,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    table1: FrequencyTable,
    table2: FrequencyTable,
    zipf_threshold: float = 5.0,
) -> RefinementReport:
    """Keep a pole word iff it is in both vocabularies and both tables, is
    round-trip stable between the aligned spaces, and has Zipf score strictly
    above the threshold in both corpora.

    Rejections carry the first failing reason in REJECT_REASONS order; input
    word order is preserved throughout. The round trips of all words that
    pass the vocabulary checks are searched in one batch.
    """
    words = [*lexicon.poles.words_a, *lexicon.poles.words_b]
    reasons = [_oov_reason(w, space1, space2, table1, table2) for w in words]
    checked = [i for i, reason in enumerate(reasons) if reason is None]
    stable = round_trip_stability([words[i] for i in checked], space1, space2)
    for i, ok in zip(checked, stable):
        if not ok:
            reasons[i] = "unstable_roundtrip"
        elif not table1.zipf(words[i]) > zipf_threshold:
            reasons[i] = "low_zipf_1"
        elif not table2.zipf(words[i]) > zipf_threshold:
            reasons[i] = "low_zipf_2"
    n_a = len(lexicon.poles.words_a)
    return RefinementReport(
        kept_a=[w for w, r in zip(words[:n_a], reasons) if r is None],
        kept_b=[w for w, r in zip(words[n_a:], reasons[n_a:]) if r is None],
        rejected=[(w, r) for w, r in zip(words, reasons) if r is not None],
    )


def candidate_topics(
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    table1: FrequencyTable,
    table2: FrequencyTable,
    stopwords=(),
    top: int = 100,
) -> list:
    """Ranked topic-wordset candidates: shared-vocabulary words ordered by
    mean Zipf score across the two tables, stopwords removed.

    Returns (word, mean_zipf) pairs, highest first; ties break on the word.
    """
    stopwords = set(stopwords)
    scored = []
    for w in space1.words:
        if w in stopwords or w not in space2 or w not in table1 or w not in table2:
            continue
        scored.append((w, (table1.zipf(w) + table2.zipf(w)) / 2.0))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:top]


def load_frequency_table(path: str) -> FrequencyTable:
    """Read lines ``word<TAB>count`` with a ``#total<TAB><total>`` header.
    One UTF-8 byte order mark at the start of the file is skipped.

    The file is read as bytes, a chunk of lines at a time, as
    ``load_word2vec_text`` reads its rows: a chunk of plain
    ``word<TAB>digits`` lines is read from its structural index, and any
    other goes to the line loop, which reads it or names its defect. A count
    out of range, or a total below 1, is an error at its line.
    """
    counts: dict = {}
    where: list = []  # arrays of the line of each word of counts, in order
    total = None  # (count, line) of the #total line
    lineno = 1
    with open_text(path) as fh:
        for buf in _chunks(fh.buffer):
            new = _read_counts(buf, counts, total)
            if new is None:  # the line loop reads it, or names its defect
                lines, bad = _lines(buf, path, lineno)
                total = _read_lines(lines, path, lineno, counts, where, total)
                if bad:
                    raise bad
                lineno += len(lines)
                continue
            at = np.arange(lineno, lineno + len(new))
            lineno += len(new)
            if "#total" in new:
                i = list(new).index("#total")
                total = (new.pop("#total"), int(at[i]))
                at = np.delete(at, i)
            if counts:
                counts.update(new)
            else:  # the table's first words: taken, not copied
                counts = new
            where.append(at)
    if total is None:
        raise FormatError(f"{path}: missing '#total<TAB><total_tokens>' header")
    try:
        return FrequencyTable(counts=counts, total_tokens=total[0])
    except FormatError as exc:
        at = _first_out_of_range(counts, total[0]) if total[0] > 0 else None
        line = total[1] if at is None else np.concatenate(where)[at]
        raise FormatError(f"{path}:{line}: {exc}") from None


# Most digits of a count that ``_read_counts`` reads: 10**18 - 1 < 2**63.
_COUNT_DIGITS = 18


def _read_counts(buf, counts: dict, total):
    """The lines of the chunk ``buf`` as a dict of each word's count,
    ``#total`` among them, in line order; or None, for the line loop to
    read, if a line is not a word, a tab and 1 to ``_COUNT_DIGITS`` ASCII
    digits, a word repeats one of the chunk or of ``counts``, or a second
    ``#total`` comes after ``total``."""
    index = _line_index(buf, _TAB)
    if index is None:  # a blank line, or one without a tab
        return None
    low, first, last = index
    # A count holds no byte below "-": no second tab, space or "+".
    if not (last - first == 1).all():
        return None
    ends = low[last]
    width = ends - low[first] - 1
    if not (1 <= width.min() and width.max() <= _COUNT_DIGITS):
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    if _digit_faults(buf, ends, width, values).any():
        return None
    try:
        new = dict(zip(_words(buf, *index, "\t"), values.tolist()))
    except UnicodeDecodeError:  # the line loop names the byte's line
        return None
    if (len(new) != len(ends) or not counts.keys().isdisjoint(new)
            or total is not None and "#total" in new):
        return None
    return new


def _read_lines(lines, path: str, start: int, counts: dict, where: list,
                total):
    """The line loop: reads the chunk ``lines``, numbered from ``start``,
    into ``counts`` and ``where``, and returns ``total`` or the ``#total``
    line's ``(count, line)``. The first malformed line raises a
    ``FormatError`` naming it."""
    at = []
    for lineno, line in enumerate(lines, start=start):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'word<TAB>count'")
        key, value = parts
        # ASCII digits, with an optional "-" and surrounding spaces:
        # int() would also take "+", "_" between digits and the digits
        # of other scripts.
        digits = value
        if not (digits.isdigit() and digits.isascii()):
            digits = value.strip().removeprefix("-")
            if not (digits.isdigit() and digits.isascii()):
                raise FormatError(f"{path}:{lineno}: non-integer count")
        try:
            value = int(value)
        except ValueError:  # past int()'s limit on digits
            raise FormatError(f"{path}:{lineno}: count of {len(digits)} "
                              "digits is too long to read") from None
        if key == "#total":
            if total is not None:
                raise FormatError(f"{path}:{lineno}: duplicate #total header")
            total = (value, lineno)
        else:
            if key in counts:
                raise FormatError(f"{path}:{lineno}: duplicate word '{key}'")
            counts[key] = value
            at.append(lineno)
    where.append(np.array(at, dtype=np.int64))
    return total


def load_lexicon(path: str) -> Lexicon:
    """Read a lexicon JSON file with label_a/label_b/words_a/words_b and an
    optional provenance note."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise FormatError(
            f"{path}: lexicon must be a JSON object, got {type(raw).__name__}"
        )
    required = ("label_a", "label_b", "words_a", "words_b")
    missing = [k for k in required if k not in raw]
    if missing:
        raise FormatError(f"{path}: missing fields: {', '.join(missing)}")
    poles = PoleWordsets(
        label_a=raw["label_a"],
        label_b=raw["label_b"],
        words_a=raw["words_a"],
        words_b=raw["words_b"],
    )
    return Lexicon(poles=poles, provenance=raw.get("provenance", ""))
