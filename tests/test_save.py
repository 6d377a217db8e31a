"""save_word2vec_text: the forked parallel write gives the same bytes as the
in-process write, and leaves no worker process behind."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sweatkit.embeddings as embeddings
from sweatkit import EmbeddingSpace, save_word2vec_text
from sweatkit.cli import main

from conftest import assert_reaped, use_cpus

# Rows per block at dimension 4 once the block size is patched down: 23
# rows make 5 blocks, the last one short.
DIM = 4
BLOCK_FLOATS = 5 * DIM


def reference_text(space):
    """The file as the row-by-row write produces it."""
    lines = [f"{len(space)} {space.dimension}\n"]
    for word, row in zip(space.words, space.matrix):
        lines.append(word + " " + " ".join(repr(c) for c in row.tolist()) + "\n")
    return "".join(lines).encode("utf-8")


def awkward_space(n=23, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim))
    matrix[1, :3] = [-0.0, 5e-324, 1e22]
    words = [f"w{i}" for i in range(n)]
    words[2] = "naïve_東京"
    return EmbeddingSpace.from_rows("s", words, matrix)


class TestParallelSave:
    def test_pool_matches_in_process(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        space = awkward_space()
        use_cpus(monkeypatch, 2)
        save_word2vec_text(space, str(tmp_path / "pool.txt"))
        assert len(forks) == 2
        assert_reaped(forks)
        use_cpus(monkeypatch, 1)
        save_word2vec_text(space, str(tmp_path / "serial.txt"))
        assert len(forks) == 2
        pooled = (tmp_path / "pool.txt").read_bytes()
        assert pooled == (tmp_path / "serial.txt").read_bytes()
        assert pooled == reference_text(space)
        text = pooled.decode("utf-8")
        for token in (" -0.0 ", " 5e-324 ", " 1e+22 ", "\nnaïve_東京 "):
            assert token in text

    def test_one_cpu_writes_in_process(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        use_cpus(monkeypatch, 1)
        space = awkward_space()
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert forks == []
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)

    def test_one_block_starts_no_worker(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 4)
        space = awkward_space()
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)

    def test_detected_cpus(self, tmp_path, monkeypatch, forks):
        """With the real CPU query, the write forks only where this process
        may run on more than one CPU; the bytes are the same either way."""
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        space = awkward_space()
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:
            usable = os.cpu_count() or 1
        assert len(forks) == (0 if usable == 1 else min(usable, 5))
        assert_reaped(forks)

    def test_align_into_missing_directory(self, tmp_path, monkeypatch, forks,
                                          capsys):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        use_cpus(monkeypatch, 2)
        space = awkward_space()
        src = tmp_path / "src.txt"
        save_word2vec_text(space, str(src))
        forks.clear()
        out = tmp_path / "missing" / "aligned.txt"
        assert main(["align", "--source", str(src), "--target", str(src),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("io error:"), err
        assert forks == []
        assert_reaped(forks)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses writes")
    def test_failed_write_stops_workers(self, tmp_path, monkeypatch, forks,
                                        capsys):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", 200)
        use_cpus(monkeypatch, 2)
        space = awkward_space(n=400, dim=10)
        src = tmp_path / "src.txt"
        save_word2vec_text(space, str(src))
        forks.clear()
        assert main(["align", "--source", str(src), "--target", str(src),
                     "--out", "/dev/full"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("io error:"), err
        assert len(forks) == 2
        assert_reaped(forks)


def test_cli_import_loads_no_multiprocessing():
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    code = ("import sys, sweatkit.cli; "
            "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_cli_import_loads_no_xml_or_network_modules():
    # The charts escape their own text; importing xml.sax.saxutils for it
    # would pull in urllib.request and http.client at every start.
    # urllib.parse is not asked about: numpy's own import of pathlib loads
    # it.
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    code = ("import sys, sweatkit.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('xml', 'http', 'email') "
            "or m.startswith('urllib.') and m != 'urllib.parse'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
