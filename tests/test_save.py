"""save_word2vec_text: the forked parallel write gives the same bytes as the
in-process write, ends with an error rather than a hang when a worker dies,
and leaves no worker process behind."""

import errno
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import sweatkit.embeddings as embeddings
from sweatkit import EmbeddingSpace, save_word2vec_text
from sweatkit.cli import main

from conftest import assert_no_children, assert_reaped, use_cpus

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

    @pytest.mark.parametrize("fails_at", [0, 1])
    def test_failed_fork_writes_here(self, tmp_path, monkeypatch, fails_at):
        """A fork that fails leaves its worker's blocks to this process."""
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        use_cpus(monkeypatch, 2)
        real_fork, calls, pids = os.fork, [], []

        def flaky_fork():
            calls.append(None)
            if len(calls) > fails_at:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily "
                                      "unavailable")
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", flaky_fork)
        space = awkward_space()
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir(
            "/proc/self/fd") else None
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)
        assert (len(calls), len(pids)) == (fails_at + 1, fails_at)
        assert_reaped(pids)
        assert_no_children()
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds


# Runs sweatkit in a subprocess as if it may use two CPUs, with blocks of
# 200 components; the test's code follows.
ON_TWO_CPUS = """\
import os, signal, sys, time
import sweatkit.embeddings as embeddings
from sweatkit.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
embeddings._BLOCK_FLOATS = 200
"""


def start(code, *args):
    """The subprocess running ``ON_TWO_CPUS`` and ``code`` with ``args`` as
    its arguments, in a session of its own."""
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    return subprocess.Popen(
        [sys.executable, "-c", ON_TWO_CPUS + code, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONPATH": src})


def finish(proc, timeout=60):
    """Exit code, stdout and stderr of ``proc``. A run that outlasts
    ``timeout`` fails the test, and its process group is killed."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the run did not end within {timeout} s")
    return proc.returncode, out, err


def source_file(tmp_path, n, dim=10):
    src = tmp_path / "src.txt"
    src.write_bytes(reference_text(awkward_space(n=n, dim=dim)))
    return src


def live_members(pgid):
    """Pids of the processes in process group ``pgid`` that have not
    ended (zombies, which run nothing, are left out)."""
    pids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # the process ended while the list was read
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(name))
    return pids


class TestDeadProcesses:
    """A worker or a parent that dies mid-write ends the run, never hangs
    it, and leaves no process running."""

    def test_killed_worker_is_io_error(self, tmp_path):
        code = """
format_block, parent = embeddings._format_block, os.getpid()

def killed(space, lo, hi):
    if lo == 60 and os.getpid() != parent:  # worker 1's second block
        os.kill(os.getpid(), signal.SIGKILL)
    return format_block(space, lo, hi)

embeddings._format_block = killed
code = main(["align", "--source", sys.argv[1], "--target", sys.argv[1],
             "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    print(code, "a child is left")
except ChildProcessError:
    print(code, "no child is left")
"""
        src, out = source_file(tmp_path, 400), tmp_path / "aligned.txt"
        status, stdout, err = finish(start(code, src, out))
        assert (status, stdout) == (0, "3 no child is left\n"), err
        assert err == (f"io error: {out}: the process formatting it ended "
                       "without a result\n")

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="needs /proc to list a process group")
    def test_killed_parent_leaves_no_worker(self, tmp_path):
        # Each worker's share of the text is many times a pipe's buffer,
        # so the workers are still writing when the parent dies.
        code = """
frame = embeddings._frame

def stalled(*args):
    payload = frame(*args)
    print("writing", flush=True)
    time.sleep(60)
    return payload

embeddings._frame = stalled
main(["align", "--source", sys.argv[1], "--target", sys.argv[1],
      "--out", sys.argv[2]])
"""
        proc = start(code, source_file(tmp_path, 4000),
                     tmp_path / "aligned.txt")
        try:
            assert proc.stdout.readline() == "writing\n", proc.stderr.read()
            assert len(live_members(proc.pid)) == 3  # the parent, 2 workers
        finally:
            proc.kill()
            proc.communicate()
        deadline = time.monotonic() + 10
        while live_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live_members(proc.pid) == []


def test_cli_import_loads_no_multiprocessing(tmp_path):
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    code = ("import sys, sweatkit.cli; "
            "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
    # Nor does a full align whose write forks workers for several blocks.
    code = """
real_fork, forks = os.fork, []

def counting_fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counting_fork
code = main(["align", "--source", sys.argv[1], "--target", sys.argv[1],
             "--out", sys.argv[2]])
print(code, len(forks),
      sorted(m for m in sys.modules if "multiprocessing" in m))
"""
    status, out, err = finish(start(code, source_file(tmp_path, 400),
                                    tmp_path / "aligned.txt"))
    assert status == 0 and out.splitlines()[-1] == "0 2 []", err


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
