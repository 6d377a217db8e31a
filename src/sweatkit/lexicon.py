"""Pole lexicon refinement: round-trip stability and Zipf frequency filters."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .alignment import round_trip_stable
from .association import PoleWordsets
from .embeddings import EmbeddingSpace
from .errors import FormatError, VocabularyError, open_text

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
        for w, c in self.counts.items():
            if c < 1:
                raise FormatError(f"count for '{w}' must be >= 1")
            if c > self.total_tokens:
                raise FormatError(
                    f"count for '{w}' exceeds total_tokens {self.total_tokens}"
                )

    def __contains__(self, word: str) -> bool:
        return word in self.counts

    def zipf(self, word: str) -> float:
        """log10 of the word's frequency per billion tokens. No smoothing;
        absent words are errors."""
        if word not in self.counts:
            raise VocabularyError(
                f"word '{word}' not in frequency table", missing=[word]
            )
        return math.log10(self.counts[word] / self.total_tokens * 1e9)


def zipf_score(word: str, table: FrequencyTable) -> float:
    return table.zipf(word)


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


def _first_failure(
    word: str,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    table1: FrequencyTable,
    table2: FrequencyTable,
    threshold: float,
):
    if word not in space1:
        return "oov_space1"
    if word not in space2:
        return "oov_space2"
    if word not in table1 or word not in table2:
        return "oov_frequency"
    if not round_trip_stable(word, space1, space2):
        return "unstable_roundtrip"
    if not table1.zipf(word) > threshold:
        return "low_zipf_1"
    if not table2.zipf(word) > threshold:
        return "low_zipf_2"
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
    word order is preserved throughout.
    """
    kept_a, kept_b, rejected = [], [], []
    for words, kept in ((lexicon.poles.words_a, kept_a),
                        (lexicon.poles.words_b, kept_b)):
        for word in words:
            reason = _first_failure(
                word, space1, space2, table1, table2, zipf_threshold
            )
            if reason is None:
                kept.append(word)
            else:
                rejected.append((word, reason))
    return RefinementReport(kept_a=kept_a, kept_b=kept_b, rejected=rejected)


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
    """Read lines ``word<TAB>count`` with a ``#total<TAB><total>`` header."""
    counts: dict = {}
    total = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'word<TAB>count'")
            key, value = parts
            try:
                value = int(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer count") from None
            if key == "#total":
                if total is not None:
                    raise FormatError(f"{path}:{lineno}: duplicate #total header")
                total = value
            else:
                if key in counts:
                    raise FormatError(f"{path}:{lineno}: duplicate word '{key}'")
                counts[key] = value
    if total is None:
        raise FormatError(f"{path}: missing '#total<TAB><total_tokens>' header")
    return FrequencyTable(counts=counts, total_tokens=total)


def load_lexicon(path: str) -> Lexicon:
    """Read a lexicon JSON file with label_a/label_b/words_a/words_b and an
    optional provenance note."""
    with open_text(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
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
