"""save_word2vec_text: the forked parallel write gives the same bytes as the
in-process write, ends with an error rather than a hang when a worker dies,
and leaves no worker process behind."""

import errno
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import sweatkit.embeddings as embeddings
from sweatkit import DataError, EmbeddingSpace, save_word2vec_text
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


def leftovers(directory):
    """Names in ``directory`` that a write through a new file would leave."""
    return sorted(n for n in os.listdir(directory) if n.endswith(".tmp"))


class TestReplacingWrite:
    """A write to an absent path or a regular file goes through a new file
    beside it, so a failure leaves the old file, or none, whole; anything
    else is written in place."""

    def test_replaces_and_keeps_mode(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        out = tmp_path / "out.txt"
        out.write_bytes(b"old")
        os.chmod(out, 0o640)
        space = awkward_space()
        save_word2vec_text(space, str(out))
        assert out.read_bytes() == reference_text(space)
        assert os.stat(out).st_mode & 0o7777 == 0o640
        assert leftovers(tmp_path) == []

    def test_new_file_mode_follows_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            save_word2vec_text(awkward_space(), str(tmp_path / "out.txt"))
        finally:
            os.umask(mask)
        assert os.stat(tmp_path / "out.txt").st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch, cpus):
        """The disk fills at the second block, whether this process formats
        it or collects it from a worker."""
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", BLOCK_FLOATS)
        use_cpus(monkeypatch, cpus)
        parent, blocks = os.getpid(), []

        def filling(real):
            def call(*args):
                if os.getpid() == parent:
                    blocks.append(None)
                    if len(blocks) == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                return real(*args)
            return call

        for name in ("_format_block", "_frame"):
            monkeypatch.setattr(embeddings, name,
                                filling(getattr(embeddings, name)))
        out = tmp_path / "out.txt"
        out.write_bytes(b"old")
        with pytest.raises(OSError, match="No space left"):
            save_word2vec_text(awkward_space(), str(out))
        assert out.read_bytes() == b"old"
        assert leftovers(tmp_path) == []
        assert_no_children()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def broken(space, lo, hi):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(embeddings, "_format_block", broken)
        use_cpus(monkeypatch, 1)
        with pytest.raises(OSError):
            save_word2vec_text(awkward_space(), str(tmp_path / "out.txt"))
        assert os.listdir(tmp_path) == []

    def test_symlink_is_followed(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_bytes(b"old")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        space = awkward_space()
        save_word2vec_text(space, str(link))
        assert link.is_symlink()
        assert real.read_bytes() == reference_text(space)
        assert leftovers(tmp_path) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        space = awkward_space()
        save_word2vec_text(space, str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [reference_text(space)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.fifo"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="needs a device")
    def test_device_written_in_place(self, monkeypatch):
        made = []
        real_create = embeddings._create_beside
        monkeypatch.setattr(embeddings, "_create_beside",
                            lambda real: made.append(real) or real_create(real))
        save_word2vec_text(awkward_space(), "/dev/null")
        if os.path.exists("/dev/full"):
            with pytest.raises(OSError):
                save_word2vec_text(awkward_space(), "/dev/full")
            assert stat.S_ISCHR(os.stat("/dev/full").st_mode)
        assert made == []
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_directory_without_new_files_writes_in_place(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(embeddings, "_create_beside", lambda real: None)
        out = tmp_path / "out.txt"
        out.write_bytes(b"old")
        space = awkward_space()
        save_word2vec_text(space, str(out))
        assert out.read_bytes() == reference_text(space)

    def test_stale_new_file_is_left_alone(self, tmp_path):
        stale = tmp_path / f".out.txt.{os.getpid()}-0.tmp"
        stale.write_bytes(b"another process's")
        space = awkward_space()
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert stale.read_bytes() == b"another process's"
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)
        assert leftovers(tmp_path) == [stale.name]

    def test_missing_directory_names_out(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        save_word2vec_text(awkward_space(), str(src))
        out = tmp_path / "missing" / "aligned.txt"
        assert main(["align", "--source", str(src), "--target", str(src),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("io error: [Errno 2] No such file or directory: "
                       f"'{out}'\n")

    def test_failed_replace_names_out(self, tmp_path, monkeypatch):
        def refused(src, dst):
            raise PermissionError(errno.EACCES, "Permission denied", src, dst)

        monkeypatch.setattr(os, "replace", refused)
        out = tmp_path / "out.txt"
        with pytest.raises(PermissionError) as exc:
            save_word2vec_text(awkward_space(), str(out))
        assert str(exc.value) == f"[Errno 13] Permission denied: '{out}'"
        assert os.listdir(tmp_path) == []

    def test_killed_worker_leaves_earlier_file(self, tmp_path):
        code = """
format_block, parent = embeddings._format_block, os.getpid()

def killed(space, lo, hi):
    if lo == 60 and os.getpid() != parent:  # worker 1's second block
        os.kill(os.getpid(), signal.SIGKILL)
    return format_block(space, lo, hi)

embeddings._format_block = killed
print(main(["align", "--source", sys.argv[1], "--target", sys.argv[1],
            "--out", sys.argv[2]]))
"""
        src = source_file(tmp_path, 400)
        out = tmp_path / "out" / "aligned.txt"
        out.parent.mkdir()
        earlier = reference_text(awkward_space(n=30, dim=10, seed=5))
        out.write_bytes(earlier)
        status, stdout, err = finish(start(code, src, out))
        assert (status, stdout) == (0, "3\n"), err
        assert err == (f"io error: {out}: the process formatting it ended "
                       "without a result\n")
        assert out.read_bytes() == earlier
        assert os.listdir(out.parent) == ["aligned.txt"]


def repr_lines(words, rows):
    """Rows as the per-value ``repr`` write produces them."""
    return "".join(word + " " + " ".join(repr(c) for c in row) + "\n"
                   for word, row in zip(words, rows.tolist())).encode("utf-8")


def seventeen_digits(rng, n):
    """``n`` floats whose repr has 17 significant digits."""
    found = []
    while len(found) < n:
        for x in (rng.random(1000) * 10.0 ** rng.integers(-4, 16)).tolist():
            text = repr(x)
            if "e" not in text and len(text.replace(".", "").lstrip("0")) == 17:
                found.append(x)
    return found[:n]


# Zero, subnormal, largest and smallest normal; both sides of repr's switch
# to exponents; powers of two, whose lower neighbour is nearer than the
# upper; short binary fractions; 17-digit values; and values whose digit
# removal ends with the lower bound's digits.
EDGES = [
    -0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
    1e-4, float(np.nextafter(1e-4, 0.0)), 9.999999999999999e15, 1e16,
    2.0 ** 50, 2.0 ** 53, *(2.0 ** k for k in range(-40, 61)),
    0.1, 1.0, 100.0, 123456.0, 0.5, 0.375, 1.5, 0.30000000000000004,
    *seventeen_digits(np.random.default_rng(0), 20),
    float.fromhex("0x1.5a20000000000p-12"),
    float.fromhex("0x1.5f7e804000000p+5"),
]


def value_class(kind, rng, n):
    """``n`` values of one kind, for comparison with ``repr``."""
    if kind in ("rotated", "unrotated"):
        rows = np.round(rng.normal(size=(n // 100, 100)), 5)
        if kind == "rotated":
            rows = rows @ np.linalg.qr(rng.normal(size=(100, 100)))[0]
        return rows.reshape(-1)
    if kind == "bit_patterns":
        values = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(
            np.float64)
        return values[np.isfinite(values)]
    if kind == "log_uniform":
        return np.exp(rng.uniform(math.log(1e-6), math.log(1e18), size=n))
    if kind == "short_decimals":
        return rng.integers(-10 ** 6, 10 ** 6, size=n) / 10.0 ** rng.integers(
            0, 7, size=n)
    assert kind == "four_decimal_neighbours"
    toward = np.where(rng.random(n) < 0.5, -np.inf, np.inf)
    return np.nextafter(rng.integers(-10 ** 5, 10 ** 5, size=n) / 1e4, toward)


KINDS = ["rotated", "unrotated", "bit_patterns", "log_uniform",
         "short_decimals", "four_decimal_neighbours"]


class TestShortestText:
    """Every float is written byte for byte as ``repr`` writes it, whether
    the vectorized kernel or ``repr`` itself formats it."""

    @staticmethod
    def assert_as_repr(values, dim=1):
        values = np.concatenate([values, -values])
        rows = values.reshape(-1, dim)
        words = [f"w{i}" for i in range(len(rows))]
        assert embeddings._format_rows(words, rows) == repr_lines(words, rows)

    def test_edges(self):
        self.assert_as_repr(np.array(EDGES))
        self.assert_as_repr(np.array(EDGES), dim=len(EDGES))

    def test_taken_and_left_to_repr(self):
        _, _, _, taken = embeddings._shortest(np.array(
            [0.12345, -42.17, 1e-4, 9.999e-5, 2.0 ** -3, 1e16, 5e-324]))
        assert taken.tolist() == [True, True, True, False, False, False,
                                  False]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_repr(self, kind):
        for seed in range(3):
            values = value_class(kind, np.random.default_rng(seed), 10_000)
            self.assert_as_repr(values, dim=1 if len(values) % 100 else 100)

    @pytest.mark.slow
    def test_bit_patterns_sweep(self):
        # 10**6 values with their negatives.
        values = value_class("bit_patterns", np.random.default_rng(7),
                             500_000)
        for lo in range(0, len(values), 50_000):
            self.assert_as_repr(values[lo:lo + 50_000])

    @pytest.mark.parametrize("pass_values", [1, 7, 40])
    def test_block_of_several_passes(self, tmp_path, monkeypatch,
                                     pass_values):
        monkeypatch.setattr(embeddings, "_BLOCK_FLOATS", 60)
        monkeypatch.setattr(embeddings, "_PASS_VALUES", pass_values)
        use_cpus(monkeypatch, 1)
        space = awkward_space(n=37, dim=5)
        save_word2vec_text(space, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_bytes() == reference_text(space)


class TestUnwritableWords:
    """A word the text format cannot hold is refused before anything is
    written, as the reload would fail or read other words."""

    @pytest.mark.parametrize("c", [" ", "\n", "\r"],
                             ids=["space", "newline", "return"])
    def test_refused_before_writing(self, tmp_path, c):
        space = EmbeddingSpace.from_rows(
            "s", ["ok", f"new{c}york", f"{c}a"], np.eye(3))
        out = tmp_path / "out.txt"
        out.write_bytes(b"old")
        with pytest.raises(DataError) as exc:
            save_word2vec_text(space, str(out))
        assert str(exc.value) == (
            "words holding a space or a line break cannot be written as "
            f"word2vec text: {sorted([f'new{c}york', f'{c}a'])[0]!r}, "
            f"{sorted([f'new{c}york', f'{c}a'])[1]!r}")
        assert out.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
        with pytest.raises(DataError):
            save_word2vec_text(space, str(tmp_path / "new.txt"))
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
