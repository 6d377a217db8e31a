import numpy as np
import pytest

from sweatkit import (
    DataError,
    VocabularyError,
    cosine,
    procrustes_align,
    round_trip_stable,
)
from sweatkit import alignment
from sweatkit.embeddings import EmbeddingSpace

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


class TestRoundTripStability:
    def test_identical_spaces_all_stable(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(15)]
        space1 = random_space(rng, "s1", words, 4)
        space2 = EmbeddingSpace.from_rows("s2", words, space1.matrix)
        for w in words:
            assert round_trip_stable(w, space1, space2)

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
        assert not round_trip_stable("x", space1, space2)
        assert not round_trip_stable("y", space1, space2)
        assert round_trip_stable("p", space1, space2)
        assert round_trip_stable("q", space1, space2)

    def test_symmetric_in_spaces(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)]
        space1 = random_space(rng, "s1", words, 4)
        space2 = random_space(rng, "s2", words, 4)
        for w in words:
            assert round_trip_stable(w, space1, space2) == round_trip_stable(
                w, space2, space1
            )

    def test_absent_word_is_error(self):
        space1 = make_space("s1", {"x": (1.0, 0.0)})
        space2 = make_space("s2", {"y": (1.0, 0.0)})
        with pytest.raises(VocabularyError):
            round_trip_stable("x", space1, space2)
