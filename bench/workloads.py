"""Benchmark workloads: seeded input generators, CLI invocations and the
output checks that decide whether a run counts as correct.

Each workload is built once per benchmark invocation. ``build`` writes the
inputs under a work directory and precomputes the oracles; ``argv`` gives
the CLI arguments for one run writing into ``out_dir``; ``check`` inspects
that run's outputs and returns a list of problems (empty when correct).

Oracles here use plain numpy on the generated matrices and never import
sweatkit, so a defect in the program cannot also hide in its check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import combinations

import numpy as np

# The order in which sweatkit.lexicon reports the first failing filter.
REJECT_REASONS = (
    "oov_space1",
    "oov_space2",
    "oov_frequency",
    "unstable_roundtrip",
    "low_zipf_1",
    "low_zipf_2",
)

# Tie slack of the permutation test: permuted scores within this of the
# observed one count as at least as extreme (as in sweatkit.association).
TIE_EPS = 1e-10

# Inputs carry 5 decimals, so each component is off by at most this.
ROUNDING = 0.5e-5

SIZES = {
    "full": {
        "sweat_50k": {"vocab": 50_000, "dim": 100, "n_topic": 12,
                      "n_pole": 10, "samples": 10_000},
        "sweat_lexicon": {"vocab": 5_000, "dim": 100, "n_topic": 10,
                          "n_candidates": 1_000, "per_reason": 50},
        "align_50k": {"vocab": 50_000, "dim": 100},
    },
    "tiny": {
        "sweat_50k": {"vocab": 600, "dim": 20, "n_topic": 12,
                      "n_pole": 10, "samples": 1_000},
        "sweat_lexicon": {"vocab": 400, "dim": 50, "n_topic": 5,
                          "n_candidates": 60, "per_reason": 4},
        "align_50k": {"vocab": 600, "dim": 20},
    },
}


def _fmt_rows(words, mat) -> list:
    fmt = " ".join(["%.5f"] * mat.shape[1])
    return [f"{w} {fmt % tuple(row)}\n" for w, row in zip(words, mat.tolist())]


def write_space(path, words, mat) -> np.ndarray:
    """Write a text word2vec file with 5-decimal components, as acceptance
    criterion 10 does, and return the matrix the file now holds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {mat.shape[1]}\n")
        fh.writelines(_fmt_rows(words, mat))
    return np.round(mat, 5)


def write_freq(path, counts: dict, total: int = 1_000_000) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#total\t{total}\n")
        fh.writelines(f"{w}\t{c}\n" for w, c in counts.items())


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _unit(mat):
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def associations(topic, pole_a, pole_b):
    """s(w) = mean cos(w, A) - mean cos(w, B) for each row w of ``topic``."""
    w, a, b = _unit(topic), _unit(pole_a), _unit(pole_b)
    return (w @ a.T).mean(axis=1) - (w @ b.T).mean(axis=1)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(paths) -> str:
    """Digest of the given output files; a JSON report is hashed without its
    ``meta`` object, which holds timestamps and timings."""
    h = hashlib.sha256()
    for path in paths:
        if path.endswith(".json"):
            doc = read_json(path)
            if isinstance(doc, dict):
                doc.pop("meta", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        else:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _rotated_pair(rng, vocab, dim):
    """Criterion 10's generator: space 2 is an exact rotation of space 1."""
    mat1 = rng.normal(size=(vocab, dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    rot = q * np.sign(np.diag(r))
    return mat1, mat1 @ rot


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, work_dir: str):
        self.size = size
        self.seed = seed
        self.dir = work_dir
        self.inputs: list = []  # files the program reads, warmed before timing

    def path(self, name):
        return os.path.join(self.dir, name)


class SweatWorkload(Workload):
    """``sweatkit sweat`` from a generated config, writing both SVGs."""

    def write_config(self, space_files, alignment, permutations):
        config = {
            "embeddings": [
                {"label": label, "path": self.path(space),
                 "frequency_table": self.path(freq)}
                for label, space, freq in (("S1", space_files[0], "f1.tsv"),
                                           ("S2", space_files[1], "f2.tsv"))
            ],
            "alignment": alignment,
            "refinement": {"enabled": True, "zipf_threshold": 5.0},
            "topic": {"label": self.name, "words": self.topic},
            "poles": {"label_a": "A", "label_b": "B",
                      "words_a": self.words_a, "words_b": self.words_b},
            "permutations": permutations,
            "outputs": {"report": "report.json",
                        "cumulative_svg": "cum.svg",
                        "detail_svg": "det.svg"},
        }
        _write_json(self.path("config.json"), config)
        self.inputs = [self.path(n) for n in
                       (*space_files, "f1.tsv", "f2.tsv", "config.json")]

    def argv(self, out_dir):
        return ["sweat", "--config", self.path("config.json"),
                "--out-dir", out_dir]

    def output_files(self, out_dir):
        return [os.path.join(out_dir, n)
                for n in ("report.json", "cum.svg", "det.svg")]

    def check_report(self, out_dir):
        """Checks common to both sweat workloads: (problems, report)."""
        problems = []
        for name in ("cum.svg", "det.svg"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                body = fh.read()
            if not body.startswith((b"<svg", b"<?xml")) or \
                    not body.rstrip().endswith(b"</svg>"):
                problems.append(f"{name} is not a complete SVG document")
        doc = read_json(os.path.join(out_dir, "report.json"))
        per_word = {w: (v1, v2) for w, v1, v2 in doc["result"]["per_word"]}
        if list(per_word) != self.topic:
            problems.append("per-word values do not cover the topic")
        else:
            got = np.array([per_word[w] for w in self.topic])
            err = np.max(np.abs(got - np.column_stack([self.s1, self.s2])))
            if not err <= 1e-9:
                problems.append(f"s(w) off the numpy oracle by {err:.3g}")
        return problems, doc


class Sweat50k(SweatWorkload):
    """Acceptance criterion 10 with its generator, sizes and config."""

    name = "sweat_50k"

    def build(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.topic = [f"t{i}" for i in range(s["n_topic"])]
        self.words_a = [f"a{i}" for i in range(s["n_pole"])]
        self.words_b = [f"b{i}" for i in range(s["n_pole"])]
        words = (self.topic + self.words_a + self.words_b
                 + [f"v{i}" for i in range(s["vocab"] - len(self.topic)
                                           - 2 * s["n_pole"])])
        mat1, mat2 = _rotated_pair(rng, s["vocab"], s["dim"])
        self._oracle(words, write_space(self.path("big1.txt"), words, mat1),
                     write_space(self.path("big2.txt"), words, mat2))
        for name in ("f1.tsv", "f2.tsv"):
            write_freq(self.path(name), {w: 1000 for w in words})  # zipf 6
        self.write_config(("big1.txt", "big2.txt"),
                          {"mode": "procrustes", "anchors": "auto"},
                          {"mode": "montecarlo", "samples": s["samples"],
                           "seed": 1})

    def _oracle(self, words, m1, m2):
        """Procrustes of space 2 onto space 1 over every word (what
        ``anchors: auto`` picks when every word is frequent), then s(w)."""
        mu1, mu2 = m1.mean(axis=0), m2.mean(axis=0)
        u, _, vt = np.linalg.svd((m2 - mu2).T @ (m1 - mu1))
        row = {w: i for i, w in enumerate(words)}

        def rows(m, ws):
            return m[[row[w] for w in ws]]

        def aligned(ws):
            return (rows(m2, ws) - mu2) @ (u @ vt) + mu1

        self.s1 = associations(*(rows(m1, ws) for ws in
                                 (self.topic, self.words_a, self.words_b)))
        self.s2 = associations(*(aligned(ws) for ws in
                                 (self.topic, self.words_a, self.words_b)))
        self.score = math.fsum(self.s1) - math.fsum(self.s2)

    def check(self, out_dir) -> list:
        problems, doc = self.check_report(out_dir)
        res = doc["result"]
        if not doc["alignment"]["residual"] < 1e-6:
            problems.append("alignment residual "
                            f"{doc['alignment']['residual']}")
        ref = doc["refinement"]
        if ref["kept_a"] != self.words_a or ref["kept_b"] != self.words_b:
            problems.append(f"kept {len(ref['kept_a'])}+{len(ref['kept_b'])} "
                            "pole words, not all")
        # The score of a rotated copy is 0 up to the 5-decimal rounding of
        # the inputs, which leaves about 1e-6 (1.2e-6 at seed 1); the oracle,
        # computed from the same rounded matrices, pins it exactly.
        if not abs(res["score"] - self.score) <= 1e-9:
            problems.append(f"score {res['score']} != oracle {self.score}")
        if not abs(res["score"]) < 1e-5:
            problems.append(f"score {res['score']} on a rotated copy")
        # The Monte Carlo p-value is not pinned: its estimator may change.
        if res["method"] != "montecarlo" or \
                res["n_permutations"] != self.size["samples"]:
            problems.append(f"{res['method']} test with "
                            f"{res['n_permutations']} permutations")
        return problems


class SweatLexicon(SweatWorkload):
    """Pre-aligned noisy copy; refinement over a planted mix of every
    rejection reason; a topic small enough for the exact test."""

    name = "sweat_lexicon"

    def build(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        dim = s["dim"]
        self.topic = [f"t{i}" for i in range(s["n_topic"])]
        # Plant the reasons per pole: per_reason words each, the rest kept.
        self.planted = {}  # word -> reason, None when kept
        cand = {}
        for pole in ("a", "b"):
            labels = [r for r in REJECT_REASONS
                      for _ in range(s["per_reason"])]
            labels += [None] * (s["n_candidates"] - len(labels))
            labels = [labels[i] for i in rng.permutation(len(labels))]
            cand[pole] = [f"p{pole}{i}" for i in range(s["n_candidates"])]
            self.planted.update(zip(cand[pole], labels))
        self.words_a, self.words_b = cand["a"], cand["b"]
        self.kept_a = [w for w in cand["a"] if self.planted[w] is None]
        self.kept_b = [w for w in cand["b"] if self.planted[w] is None]
        only1 = [w for w, r in self.planted.items() if r == "oov_space2"]
        only2 = [w for w, r in self.planted.items() if r == "oov_space1"]
        shared = self.topic + [w for w, r in self.planted.items()
                               if r not in ("oov_space1", "oov_space2")]
        fillers = [f"v{i}" for i in range(s["vocab"] - len(shared)
                                          - len(only1))]
        words1 = shared + only1 + fillers
        words2 = shared + only2 + fillers
        every = list(dict.fromkeys(words1 + words2))
        base = dict(zip(every, rng.normal(size=(len(every), dim))))
        noise = rng.normal(scale=0.1, size=(len(words2), dim))
        mat1 = np.array([base[w] for w in words1])
        # Space 2 is space 1 plus noise, so cos(w1, w2) is about 0.995 and
        # every word is its own nearest neighbor across spaces, except the
        # unstable ones, which point the opposite way.
        mat2 = np.array([
            (-base[w] if self.planted.get(w) == "unstable_roundtrip"
             else base[w]) + n for w, n in zip(words2, noise)])
        self.m1 = dict(zip(words1, write_space(self.path("s1.txt"),
                                               words1, mat1)))
        self.m2 = dict(zip(words2, write_space(self.path("s2.txt"),
                                               words2, mat2)))
        counts1 = {w: 1000 for w in words1}  # zipf 6
        counts2 = {w: 1000 for w in words2}
        oov_freq = [w for w, r in self.planted.items() if r == "oov_frequency"]
        for i, w in enumerate(oov_freq):
            del (counts1 if i % 2 else counts2)[w]
        for w, r in self.planted.items():
            if r == "low_zipf_1":
                counts1[w] = 50  # zipf 4.7
            elif r == "low_zipf_2":
                counts2[w] = 50
        write_freq(self.path("f1.tsv"), counts1)
        write_freq(self.path("f2.tsv"), counts2)
        self.write_config(("s1.txt", "s2.txt"), {"mode": "pre_aligned"},
                          {"mode": "auto", "samples": 10_000, "seed": 0})
        self._oracle()

    def _oracle(self):
        """Per-word s(w) and the exact p-value by full enumeration."""
        def assoc(m):
            return associations(*(np.array([m[x] for x in ws]) for ws in
                                  (self.topic, self.kept_a, self.kept_b)))

        self.s1, self.s2 = assoc(self.m1), assoc(self.m2)
        pool = np.concatenate([self.s1, self.s2])
        n = len(self.topic)
        s_obs = math.fsum(self.s1) - math.fsum(self.s2)
        idx = np.array(list(combinations(range(2 * n), n)), dtype=np.int8)
        s_perm = 2.0 * pool[idx].sum(axis=1) - pool.sum()
        if s_obs >= 0:
            hits = np.count_nonzero(s_perm >= s_obs - TIE_EPS)
        else:
            hits = np.count_nonzero(s_perm <= s_obs + TIE_EPS)
        self.n_partitions = len(idx)
        self.p_exact = hits / len(idx)

    def check(self, out_dir) -> list:
        problems, doc = self.check_report(out_dir)
        res, ref = doc["result"], doc["refinement"]
        if set(ref["kept_a"]) != set(self.kept_a) or \
                set(ref["kept_b"]) != set(self.kept_b):
            problems.append("kept pole words differ from the planted ones")
        rejected = {w: r for w, r in ref["rejected"]}
        planted = {w: r for w, r in self.planted.items() if r is not None}
        if rejected != planted:
            wrong = sorted(set(rejected.items()) ^ set(planted.items()))
            problems.append(f"rejections differ from the planted ones: "
                            f"{wrong[:4]}")
        if res["method"] != "exact" or \
                res["n_permutations"] != self.n_partitions:
            problems.append(f"{res['method']} test with "
                            f"{res['n_permutations']} permutations")
        if abs(res["p_value"] - self.p_exact) > 0.5 / self.n_partitions:
            problems.append(f"p-value {res['p_value']} != enumerated "
                            f"{self.p_exact}")
        return problems


class Align50k(Workload):
    """``sweatkit align`` on criterion 10's pair with every word an anchor."""

    name = "align_50k"

    def build(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.words = [f"w{i}" for i in range(s["vocab"])]
        mat1, mat2 = _rotated_pair(rng, s["vocab"], s["dim"])
        self.target = write_space(self.path("big1.txt"), self.words, mat1)
        write_space(self.path("big2.txt"), self.words, mat2)
        self.inputs = [self.path("big1.txt"), self.path("big2.txt")]
        # Each aligned row is off the target by the target's rounding plus
        # the rotated rounding of the source row: at most 2 * 0.5e-5 * sqrt(d)
        # in Euclidean norm. 1% covers the rotation's own estimation error.
        self.max_dist = 1.01 * 2 * ROUNDING * math.sqrt(s["dim"])

    def argv(self, out_dir):
        return ["align", "--source", self.path("big2.txt"),
                "--target", self.path("big1.txt"), "--anchors", "auto",
                "--out", os.path.join(out_dir, "aligned.txt"),
                "--report", os.path.join(out_dir, "align_report.json")]

    def output_files(self, out_dir):
        return [os.path.join(out_dir, n)
                for n in ("align_report.json", "aligned.txt")]

    def check(self, out_dir) -> list:
        problems = []
        rep = read_json(os.path.join(out_dir, "align_report.json"))
        if rep["n_anchors"] != len(self.words):
            problems.append(f"{rep['n_anchors']} anchors, not "
                            f"{len(self.words)}")
        if not rep["residual"] < 1e-6:
            problems.append(f"alignment residual {rep['residual']}")
        with open(os.path.join(out_dir, "aligned.txt"), "r",
                  encoding="utf-8") as fh:
            header = fh.readline().split()
            words, rows = [], []
            for line in fh:
                word, _, rest = line.partition(" ")
                words.append(word)
                rows.append(rest)
        if header != [str(len(self.words)), str(self.size["dim"])] or \
                words != self.words:
            return problems + [f"aligned file has {len(words)} rows under "
                               f"header {header}"]
        mat = np.loadtxt(rows, dtype=np.float64, ndmin=2)
        if mat.shape != self.target.shape:
            return problems + [f"aligned matrix shape {mat.shape}"]
        dist = float(np.max(np.linalg.norm(mat - self.target, axis=1)))
        if not dist <= self.max_dist:
            problems.append(f"aligned row {dist:.3g} from target "
                            f"(limit {self.max_dist:.3g})")
        return problems


WORKLOADS = {w.name: w for w in (Sweat50k, SweatLexicon, Align50k)}
