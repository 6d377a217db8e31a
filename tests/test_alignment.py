import numpy as np
import pytest

from sweatkit import (
    DataError,
    VocabularyError,
    cosine,
    procrustes_align,
    round_trip_stability,
)
from sweatkit import alignment
from sweatkit.embeddings import EmbeddingSpace
from sweatkit.lexicon import FrequencyTable

from conftest import make_space, random_space, traced_peak


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


class TestProcrustes:
    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(40)]
        source = random_space(rng, "src", words, 8)
        rot = random_rotation(rng, 8)
        target = EmbeddingSpace.from_rows("tgt", words, source.matrix @ rot)
        aligned, report = procrustes_align(source, target, words)
        assert report.residual < 1e-8
        assert np.allclose(aligned.matrix, target.matrix, atol=1e-6)
        assert np.abs(report.rotation.T @ report.rotation - np.eye(8)).max() <= 1e-8

    def test_identity_when_already_aligned(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(30)]
        source = random_space(rng, "src", words, 6)
        target = EmbeddingSpace.from_rows("tgt", words, source.matrix)
        aligned, report = procrustes_align(source, target, words)
        assert np.abs(report.rotation - np.eye(6)).max() <= 1e-8
        assert report.residual < 1e-12

    def test_self_alignment_full_vocab_residual(self):
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(25)]
        space = random_space(rng, "s", words, 5)
        _, report = procrustes_align(space, space, words)
        assert report.residual < 1e-10

    def test_underdetermined_flagged(self):
        source = make_space("src", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        target = make_space("tgt", {"x": (1.0, 0.0), "y": (0.0, 1.0)})
        _, report = procrustes_align(source, target, ["x"])
        assert report.underdetermined is True

    def test_missing_anchor_rejected(self):
        source = make_space("src", {"x": (1.0, 0.0)})
        target = make_space("tgt", {"y": (1.0, 0.0)})
        with pytest.raises(VocabularyError):
            procrustes_align(source, target, ["x"])

    def test_no_anchors_rejected(self):
        space = make_space("s", {"x": (1.0, 0.0)})
        with pytest.raises(DataError):
            procrustes_align(space, space, [])

    def test_rotation_preserves_intra_space_cosines(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(20)]
        source = random_space(rng, "src", words, 6)
        rot = random_rotation(rng, 6)
        target = EmbeddingSpace.from_rows("tgt", words, source.matrix @ rot)
        aligned, _ = procrustes_align(source, target, words)
        for i in range(0, 20, 3):
            for j in range(1, 20, 4):
                before = cosine(source.vector(words[i]), source.vector(words[j]))
                after = cosine(aligned.vector(words[i]), aligned.vector(words[j]))
                assert abs(before - after) <= 1e-9


class TestProcrustesLean:
    """The alignment leaves its inputs alone, returns a read-only space and
    holds no array it does not need, with the numbers of the plain
    centered-copy computation."""

    @staticmethod
    def rotated_pair(rng, n, dim):
        words = [f"w{i}" for i in range(n)]
        source = random_space(rng, "src", words, dim)
        target = EmbeddingSpace.from_rows(
            "tgt", words, source.matrix @ random_rotation(rng, dim)
            + rng.normal(scale=0.01, size=(n, dim)) + 0.5)
        return words, source, target

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(6)
        words, source, target = self.rotated_pair(rng, 300, 7)
        before = [a.tobytes() for a in (source.matrix, source._unit,
                                        target.matrix, target._unit)]
        procrustes_align(source, target, words[::2])
        after = [a.tobytes() for a in (source.matrix, source._unit,
                                       target.matrix, target._unit)]
        assert after == before

    def test_aligned_space_is_readonly(self):
        rng = np.random.default_rng(7)
        words, source, target = self.rotated_pair(rng, 50, 4)
        aligned, _ = procrustes_align(source, target, words)
        assert not aligned.matrix.flags.writeable
        assert not aligned._unit.flags.writeable

    def test_matches_centered_copy_reference(self, monkeypatch):
        rng = np.random.default_rng(8)
        words, source, target = self.rotated_pair(rng, 2_000, 6)
        anchors = list(rng.permutation(words)[:1_500])
        # Small blocks, so the blocked residual and map run many blocks.
        monkeypatch.setattr(alignment, "_BLOCK_BYTES", 8 * 6 * 37)
        aligned, report = procrustes_align(source, target, anchors)

        src = np.array([source.vector(w) for w in anchors])
        tgt = np.array([target.vector(w) for w in anchors])
        src_c = src - src.mean(axis=0)
        tgt_c = tgt - tgt.mean(axis=0)
        u, _, vt = np.linalg.svd(src_c.T @ tgt_c)
        rotation = u @ vt
        residual = np.mean(np.sum(
            (src_c @ rotation + tgt.mean(axis=0) - tgt) ** 2, axis=1))
        mapped = ((source.matrix - src.mean(axis=0)) @ rotation
                  + tgt.mean(axis=0))
        assert np.abs(report.rotation - rotation).max() <= 1e-12
        assert abs(report.residual - residual) <= 1e-12
        assert np.abs(aligned.matrix - mapped).max() <= 1e-12
        assert report.anchors_used == anchors

    def test_peak_within_bound(self):
        rng = np.random.default_rng(9)
        n, dim = 20_000, 50
        words, source, target = self.rotated_pair(rng, n, dim)
        peak = traced_peak(lambda: procrustes_align(source, target, words))
        assert peak <= 3 * n * dim * 8

    @pytest.mark.parametrize("order", ["in_order", "shuffled"])
    def test_blocked_passes_peak(self, monkeypatch, order):
        # Blocks of 256 rows: beyond the aligned matrix, the passes hold
        # only blocks, not a centered copy of either space's anchors.
        rng = np.random.default_rng(10)
        n, dim = 20_000, 50
        words, source, target = self.rotated_pair(rng, n, dim)
        anchors = words if order == "in_order" else list(
            rng.permutation(words))
        monkeypatch.setattr(alignment, "_BLOCK_BYTES", 8 * dim * 256)
        peak = traced_peak(lambda: procrustes_align(source, target, anchors))
        assert peak <= 1.6 * n * dim * 8


class TestUnderdetermined:
    """Centered anchors span at most n - 1 dimensions, so the rotation is
    flagged underdetermined unless there are more distinct anchors than
    dimensions, however often each is repeated."""

    @staticmethod
    def report(n_distinct, repeats=1, dim=4):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(50)]
        source = random_space(rng, "src", words, dim)
        target = EmbeddingSpace.from_rows(
            "tgt", words, source.matrix @ random_rotation(rng, dim))
        return procrustes_align(source, target,
                                words[:n_distinct] * repeats)[1]

    @pytest.mark.parametrize("n_distinct, repeats", [(1, 1), (3, 1), (4, 1),
                                                     (3, 10), (4, 10)])
    def test_flagged(self, n_distinct, repeats):
        report = self.report(n_distinct, repeats)
        assert report.underdetermined is True
        assert report.to_dict()["n_anchors"] == n_distinct * repeats

    @pytest.mark.parametrize("n_distinct, repeats", [(5, 1), (5, 10), (50, 1)])
    def test_not_flagged(self, n_distinct, repeats):
        assert self.report(n_distinct, repeats).underdetermined is False

    def test_rotation_recovered_from_d_plus_one(self):
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(50)]
        source = random_space(rng, "src", words, 4)
        rot = random_rotation(rng, 4)
        target = EmbeddingSpace.from_rows("tgt", words, source.matrix @ rot)
        _, report = procrustes_align(source, target, words[:5] * 3)
        assert np.abs(report.rotation - rot).max() <= 1e-12


class TestRoundTripStability:
    def test_identical_spaces_all_stable(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(15)]
        space1 = random_space(rng, "s1", words, 4)
        space2 = EmbeddingSpace.from_rows("s2", words, space1.matrix)
        for w in words:
            assert round_trip_stability([w], space1, space2)[0]

    def test_swapped_pair_unstable(self):
        base = {
            "p": (1.0, 0.0, 0.0),
            "q": (0.0, 1.0, 0.0),
            "x": (0.0, 0.0, 1.0),
            "y": (0.7, 0.7, 0.0),
        }
        swapped = dict(base)
        swapped["x"], swapped["y"] = base["y"], base["x"]
        space1 = make_space("s1", base)
        space2 = make_space("s2", swapped)
        assert not round_trip_stability(["x"], space1, space2)[0]
        assert not round_trip_stability(["y"], space1, space2)[0]
        assert round_trip_stability(["p"], space1, space2)[0]
        assert round_trip_stability(["q"], space1, space2)[0]

    def test_symmetric_in_spaces(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)]
        space1 = random_space(rng, "s1", words, 4)
        space2 = random_space(rng, "s2", words, 4)
        for w in words:
            assert round_trip_stability([w], space1, space2) == (
                round_trip_stability([w], space2, space1))

    def test_absent_word_is_error(self):
        space1 = make_space("s1", {"x": (1.0, 0.0)})
        space2 = make_space("s2", {"y": (1.0, 0.0)})
        with pytest.raises(VocabularyError):
            round_trip_stability(["x"], space1, space2)


class TestResidualFromAlignedRows:
    """The residual is taken from the aligned space that is returned, and
    anchors that are the source vocabulary in order are read as slices,
    with the same bits as gathers."""

    @staticmethod
    def pair(seed, n=900, dim=6):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(n)]
        source = random_space(rng, "src", words, dim)
        # The target lists its words in another order.
        order = rng.permutation(n)
        target = EmbeddingSpace.from_rows(
            "tgt", [words[i] for i in order],
            (source.matrix @ random_rotation(rng, dim)
             + rng.normal(scale=0.01, size=(n, dim)))[order] + 0.5)
        return rng, words, source, target

    @pytest.mark.parametrize("anchors", ["vocabulary", "shuffled", "subset",
                                         "repeated"])
    def test_residual_is_mean_distance_of_returned_rows(self, monkeypatch,
                                                        anchors):
        # Small blocks, so the map and the residual run many blocks.
        monkeypatch.setattr(alignment, "_BLOCK_BYTES", 8 * 6 * 37)
        rng, words, source, target = self.pair(31)
        anchors = {"vocabulary": words,
                   "shuffled": list(rng.permutation(words)),
                   "subset": words[5::2],
                   "repeated": words[:50] * 3}[anchors]
        aligned, report = procrustes_align(source, target, anchors)
        diff = aligned.rows(anchors) - target.rows(anchors)
        assert report.residual == float(np.mean(np.sum(diff ** 2, axis=1)))
        assert 0.0 < report.residual < 1e-3

    @pytest.mark.parametrize("block_rows", [1, 37, 10_000])
    def test_slices_give_the_bits_of_gathers(self, monkeypatch, block_rows):
        monkeypatch.setattr(alignment, "_BLOCK_BYTES", 8 * 6 * block_rows)
        _, words, source, target = self.pair(32)
        sliced = procrustes_align(source, target, words)
        monkeypatch.setattr(alignment, "_positions",
                            lambda space, ws: [space._index.get(w) for w in ws])
        gathered = procrustes_align(source, target, words)
        for (aligned, report) in (sliced, gathered):
            assert not aligned.matrix.flags.writeable
        assert sliced[0].matrix.tobytes() == gathered[0].matrix.tobytes()
        assert sliced[0]._norms.tobytes() == gathered[0]._norms.tobytes()
        assert sliced[1].rotation.tobytes() == gathered[1].rotation.tobytes()
        assert sliced[1].residual == gathered[1].residual

    def test_aligned_space_stores_no_second_matrix(self):
        _, words, source, target = self.pair(33)
        aligned, _ = procrustes_align(source, target, words[::2])
        arrays = [v for v in vars(aligned).values()
                  if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(900, 6), (900,)]

    def test_map_allocates_only_the_aligned_matrix(self):
        # No centered copy of either space is made, so the map holds one
        # copy of the rows beyond the two spaces: the aligned matrix.
        rng = np.random.default_rng(34)
        n, dim = 20_000, 50
        words = [f"w{i}" for i in range(n)]
        source = random_space(rng, "src", words, dim)
        target = EmbeddingSpace.from_rows(
            "tgt", words, source.matrix @ random_rotation(rng, dim))
        peak = traced_peak(lambda: procrustes_align(source, target, words))
        assert peak <= 2.5 * n * dim * 8

    def test_missing_anchors_named(self):
        space1 = make_space("s1", {"a": (1.0, 0.0), "b": (0.0, 1.0)})
        space2 = make_space("s2", {"a": (1.0, 0.0), "c": (0.0, 1.0)})
        with pytest.raises(VocabularyError) as exc:
            procrustes_align(space1, space2, ["a", "c", "b", "z"])
        assert str(exc.value) == ("anchors missing from one of the spaces: "
                                  "b, c, z")
        assert sorted(exc.value.missing) == ["b", "c", "z"]


class TestDefaultAnchors:
    """``anchors: auto`` scores each distinct count once and keeps what the
    per-word rule keeps."""

    @staticmethod
    def per_word(space1, space2, table1, table2, threshold):
        shared = [w for w in space1.words if w in space2]
        frequent = [w for w in shared
                    if w in table1 and w in table2
                    and table1.zipf(w) > threshold
                    and table2.zipf(w) > threshold]
        return frequent or shared

    @staticmethod
    def tables(rng, words, total=10 ** 9):
        """Two tables over most of ``words`` with many distinct counts,
        some at 10**5 (Zipf exactly 5.0) or next to it."""
        tables = []
        for _ in range(2):
            counts = {}
            for w in words:
                if rng.random() < 0.1:
                    continue  # not in this table
                pick = rng.random()
                counts[w] = (10 ** 5 if pick < 0.1
                             else 10 ** 5 + 1 if pick < 0.15
                             else 10 ** 5 - 1 if pick < 0.2
                             else int(rng.integers(1, 10 ** 7)))
            tables.append(FrequencyTable(counts, total))
        return tables

    @pytest.mark.parametrize("threshold", [5.0, 4.0, 6.5])
    def test_matches_per_word_rule(self, monkeypatch, threshold):
        rng = np.random.default_rng(41)
        words1 = [f"w{i}" for i in range(3_000)]
        words2 = list(rng.permutation(words1[500:])) + ["x1", "x2"]
        space1 = random_space(rng, "s1", words1, 3)
        space2 = random_space(rng, "s2", words2, 3)
        table1, table2 = self.tables(rng, words1 + ["x1"])
        expected = self.per_word(space1, space2, table1, table2, threshold)
        calls = []
        real = FrequencyTable.zipf

        def counting_zipf(table, word):
            calls.append((id(table), table.counts[word]))
            return real(table, word)

        monkeypatch.setattr(FrequencyTable, "zipf", counting_zipf)
        got = alignment.default_anchors(space1, space2, table1, table2,
                                        threshold)
        assert got == expected
        assert 0 < len(got) < 2_500
        # One call per distinct count of a shared word in each table.
        assert len(calls) == len(set(calls))
        shared = set(words1[500:])
        assert len(calls) == sum(
            len({t.counts[w] for w in shared if w in t.counts})
            for t in (table1, table2))

    def test_threshold_score_is_excluded(self):
        table = FrequencyTable({"a": 10 ** 5, "b": 10 ** 5 + 1, "c": 10 ** 5},
                               10 ** 9)
        assert table.zipf("a") == 5.0
        space = make_space("s", {"a": (1.0, 0.0), "b": (0.0, 1.0),
                                 "c": (1.0, 1.0)})
        assert alignment.default_anchors(space, space, table, table) == ["b"]

    def test_no_frequent_word_keeps_shared(self):
        table = FrequencyTable({"a": 10, "b": 10 ** 5}, 10 ** 9)
        space1 = make_space("s1", {"b": (1.0, 0.0), "a": (0.0, 1.0),
                                   "z": (1.0, 1.0)})
        space2 = make_space("s2", {"a": (1.0, 0.0), "b": (0.0, 1.0)})
        assert alignment.default_anchors(space1, space2, table, table) == [
            "b", "a"]
