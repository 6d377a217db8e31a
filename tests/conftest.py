import contextlib
import errno
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import sweatkit.errors as errors
from sweatkit import EmbeddingSpace, PoleWordsets, TopicWordset

# When a property test fails, Hypothesis's pytest plugin imports libcst to
# write the failing example as a patch, and that import warns through
# mypy_extensions; pyproject.toml makes the warning an error, which pytest
# prints as an INTERNALERROR after the failure. So libcst, where installed,
# is imported here once with that one warning ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict",
                            DeprecationWarning)
    import libcst  # noqa: F401


def make_space(label, mapping):
    return EmbeddingSpace.from_dict(label, mapping)


def random_space(rng, label, words, dim):
    return EmbeddingSpace.from_rows(label, words, rng.normal(size=(len(words), dim)))


def brute_nearest(space, query):
    """Reference nearest neighbour: one dot product per vocabulary row, the
    largest cosine wins, and exact ties go to the smallest word."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    sims = [float(np.dot(row, q)) for row in space._unit]
    best = max(sims)
    return min(w for w, s in zip(space.words, sims) if s == best)


def traced_peak(call):
    """Peak bytes that ``call()`` allocates above what is allocated before
    it, as tracemalloc counts them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def feed_fifo(tmp_path, text):
    """A FIFO holding ``text``, written by a thread as it is read; returns
    the path and the thread."""
    fifo = tmp_path / "v.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)
        except BrokenPipeError:  # the reader stopped at an error
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    return fifo, writer


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked while the test runs."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def failing_writes(monkeypatch):
    """Each file that sweatkit opens for writing fails after its first 16
    bytes, as on a full disk."""
    def opener(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            write = fh.write

            def fail(data):
                write(data[:16])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = fail
        return fh

    monkeypatch.setattr(errors, "open", opener, raising=False)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert_no_children()


def assert_no_children():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def perturbed_unit(rng, center, sigma=0.1):
    v = center + rng.normal(scale=sigma, size=center.shape)
    return v / np.linalg.norm(v)


def polarized_fixture(seed=12345, dim=10, n_poles=8, n_topic=12):
    """Synthetic two-space setup where the topic provably flips poles.

    Pole A sits near e1 and pole B near e2, identically in both spaces.
    Topic words sit near e1 in space1 and near e2 in space2; control words
    sit near e3 identically in both spaces.
    """
    rng = np.random.default_rng(seed)
    e1, e2, e3 = np.eye(dim)[0], np.eye(dim)[1], np.eye(dim)[2]

    vectors1, vectors2 = {}, {}
    for i in range(n_poles):
        a = perturbed_unit(rng, e1)
        b = perturbed_unit(rng, e2)
        vectors1[f"good{i}"] = vectors2[f"good{i}"] = a
        vectors1[f"bad{i}"] = vectors2[f"bad{i}"] = b
    for i in range(n_topic):
        vectors1[f"topic{i}"] = perturbed_unit(rng, e1)
        vectors2[f"topic{i}"] = perturbed_unit(rng, e2)
    for i in range(n_topic):
        c = perturbed_unit(rng, e3)
        vectors1[f"ctrl{i}"] = vectors2[f"ctrl{i}"] = c

    space1 = make_space("S1", vectors1)
    space2 = make_space("S2", vectors2)
    poles = PoleWordsets(
        "pos", "neg",
        [f"good{i}" for i in range(n_poles)],
        [f"bad{i}" for i in range(n_poles)],
    )
    topic = TopicWordset("polarized", [f"topic{i}" for i in range(n_topic)])
    control = TopicWordset("control", [f"ctrl{i}" for i in range(n_topic)])
    return space1, space2, topic, control, poles


@pytest.fixture
def toy_pair():
    """2D toy from the score definitions: topic word w flips from pole a's
    direction in space1 to pole b's direction in space2."""
    space1 = make_space("E1", {"w": (1.0, 0.0), "a": (1.0, 0.0), "b": (0.0, 1.0)})
    space2 = make_space("E2", {"w": (0.0, 1.0), "a": (1.0, 0.0), "b": (0.0, 1.0)})
    poles = PoleWordsets("A", "B", ["a"], ["b"])
    topic = TopicWordset("toy", ["w"])
    return space1, space2, topic, poles
