"""sweatkit benchmark: runs one workload as real CLI processes and prints its
metrics.

    python3 bench/run.py --workload sweat_50k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Closed loop with one client: the CLI runs one process at a time, each in
its own child (``child.py``), until ``--seconds`` have passed. Inputs are
generated from ``--seed`` once, outside the timed region, and read once
before the first run so every run sees the same warm page cache (cold-cache
runs are not measured: dropping the page cache is a machine setting). Every
run's outputs are checked, then deleted.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` traced and untraced runs alternate and it carries the
per-layer metrics of the traced runs. Lines before the last one start with
``#`` and give the same figures with sample counts, the metrics absent on
the workload, and a stamp of the machine and the code measured. The last
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import REJECT_REASONS, SIZES, WORKLOADS, fingerprint

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
RUN_TIMEOUT_S = 60.0
# No run starts after this much of the invocation has passed, so that an
# invocation ends well within three minutes.
LAST_START_S = 90.0
# At least this many runs of the kind the result is taken from (untraced
# with --trace 0, traced with --trace 1), so that a median is never of one
# or two. A traced invocation also makes at least MIN_UNTRACED untraced runs
# for the tracing overhead.
MIN_RUNS = 3
MIN_UNTRACED = 2
# With OpenBLAS's default threads, refinement times varied 0.5-1.7 s between
# runs (threading noise on small matrix-vector products) and the import took
# longer, so every child runs BLAS on one thread, on every commit measured.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _lexicon_rejected(reason):
    def value(s):
        return s.count("lexicon.refine", "rejected." + reason, default=0)
    return value


def _ratio(num, den):
    return None if num is None or not den else num / den


def _sum(*values):
    present = [v for v in values if v is not None]
    return sum(present) if present else None


# Per-layer metric -> (unit, value from one traced run's TraceSummary).
# A value of None means the layer did not run on this workload.
PER_LAYER = {
    "embeddings.load_s": ("s", lambda s: s.total(
        "embeddings.load_word2vec_text")),
    "embeddings.load_mb_per_s": ("MB/s", lambda s: _ratio(
        _ratio(s.count("embeddings.load_word2vec_text", "bytes"), 1e6),
        s.total("embeddings.load_word2vec_text"))),
    "embeddings.rows_loaded": ("count", lambda s: s.count(
        "embeddings.load_word2vec_text", "rows")),
    "embeddings.bytes_read": ("bytes", lambda s: s.count(
        "embeddings.load_word2vec_text", "bytes")),
    "embeddings.save_s": ("s", lambda s: s.total(
        "embeddings.save_word2vec_text")),
    "embeddings.bytes_written": ("bytes", lambda s: s.count(
        "embeddings.save_word2vec_text", "bytes")),
    "embeddings.nn_queries": ("count", lambda s: s.calls(
        "embeddings.nearest_neighbor")),
    "embeddings.nn_s": ("s", lambda s: s.total(
        "embeddings.nearest_neighbor")),
    "embeddings.cosine_calls": ("count", lambda s: s.calls(
        "embeddings.cosine")),
    "alignment.anchors_s": ("s", lambda s: s.total(
        "alignment.default_anchors")),
    "alignment.n_anchors": ("count", lambda s: s.count(
        "alignment.procrustes_align", "anchors")),
    "alignment.procrustes_s": ("s", lambda s: s.total(
        "alignment.procrustes_align")),
    "alignment.residual": ("sq_dist", lambda s: s.count(
        "alignment.procrustes_align", "residual")),
    "lexicon.freq_load_s": ("s", lambda s: s.total(
        "lexicon.load_frequency_table")),
    "lexicon.refine_s": ("s", lambda s: s.total("lexicon.refine")),
    "lexicon.words_checked": ("count", lambda s: s.count(
        "lexicon.refine", "checked")),
    "lexicon.kept_ratio": ("ratio", lambda s: _ratio(
        s.count("lexicon.refine", "kept"),
        s.count("lexicon.refine", "checked"))),
    **{f"lexicon.rejected.{r}": ("count", _lexicon_rejected(r))
       for r in REJECT_REASONS},
    "association.run_s": ("s", lambda s: s.total("association.run_sweat")),
    "association.kernel_s": ("s", lambda s: s.total(
        "association.single_word_association")),
    "association.kernel_calls": ("count", lambda s: s.calls(
        "association.single_word_association")),
    "association.effect_size_s": ("s", lambda s: s.total(
        "association.effect_size")),
    "association.permutation_s": ("s", lambda s: s.total(
        "association.permutation_test")),
    "association.n_permutations": ("count", lambda s: s.count(
        "association.permutation_test", "permutations")),
    "association.permutations_per_s": ("1/s", lambda s: _ratio(
        s.count("association.permutation_test", "permutations"),
        s.total("association.permutation_test"))),
    "viz.data_s": ("s", lambda s: _sum(
        s.total("viz.cumulative_data"), s.total("viz.detail_data"))),
    "viz.render_s": ("s", lambda s: _sum(
        s.total("viz.render_cumulative"), s.total("viz.render_detail"))),
    "viz.svg_bytes": ("bytes", lambda s: _sum(
        s.count("viz.render_cumulative", "bytes"),
        s.count("viz.render_detail", "bytes"))),
    "cli.config_s": ("s", lambda s: s.total("cli.validate_config")),
    "cli.self_s": ("s", lambda s: s.self_time("cli.main")),
    "cli.report_bytes": ("bytes", lambda s: s.report_bytes),
    "cli.cpu_s": ("s", lambda s: s.doc["cpu_s"]),
}


class TraceSummary:
    """Accessors over the per-span-name sums a traced child wrote, plus the
    size of the reports that run wrote."""

    def __init__(self, doc, report_bytes):
        self.doc = doc
        self.spans = doc["spans"]
        self.report_bytes = report_bytes

    def total(self, name):
        span = self.spans.get(name)
        return None if span is None else span["total_s"]

    def self_time(self, name):
        span = self.spans.get(name)
        return None if span is None else span["self_s"]

    def calls(self, name):
        span = self.spans.get(name)
        return None if span is None else span["calls"]

    def count(self, name, key, default=None):
        span = self.spans.get(name)
        if span is None:
            return None
        return span["counts"].get(key, default)


@dataclass
class Run:
    """One CLI process: its timings, resources and check outcome."""

    traced: bool
    wall_s: float | None = None
    cpu_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    problems: list = field(default_factory=list)
    trace: TraceSummary | None = None


class Bench:
    def __init__(self, root, workload, seed, size="full", corrupt=None):
        self.root = root = os.path.abspath(root)
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "sweatkit", "cli.py")):
            raise BenchError(f"no sweatkit sources under {self.src}")
        self.seed = seed
        self.corrupt = corrupt  # self-test hook: damages a run's outputs
        base = os.path.join(root, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
        inputs = os.path.join(self.work, "inputs")
        os.mkdir(inputs)
        self.out_dir = os.path.join(self.work, "out")
        self.wl = WORKLOADS[workload](SIZES[size][workload], seed, inputs)
        self.env = dict(os.environ, **CHILD_ENV)
        self.reference = None  # fingerprint of the first correct run

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def prepare(self):
        """Build inputs and oracles, flush them to disk so no write-back
        overlaps a timed run, warm the page cache, and check that the
        program imports (which also compiles its bytecode)."""
        t = time.monotonic()
        self.wl.build()
        self.build_s = time.monotonic() - t
        for path in self.wl.inputs:
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
                while fh.read(1 << 22):
                    pass
        run = self.spawn([], probe=True)
        if run.problems:
            raise BenchError("set-up probe failed: " + "; ".join(run.problems))

    def spawn(self, argv, probe=False, traced=False) -> Run:
        run = Run(traced)
        os.mkdir(self.out_dir)
        stamp = os.path.join(self.work, "stamp")
        trace_path = os.path.join(self.work, "trace.json")
        cmd = [sys.executable, CHILD, stamp, self.src]
        cmd += ["--probe"] if probe else []
        cmd += ["--trace", trace_path] if traced else []
        cmd += ["--"] + argv
        log = os.path.join(self.work, "child.log")
        for stale in (stamp, trace_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
        try:
            with open(log, "wb") as fh:
                start = time.monotonic()
                proc = subprocess.Popen(cmd, stdout=fh, stderr=fh,
                                        cwd=self.out_dir, env=self.env)
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [],
                                                RUN_TIMEOUT_S)
                    if not ready:
                        proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    end = time.monotonic()
                finally:
                    os.close(pidfd)
                proc.returncode = os.waitstatus_to_exitcode(status)
            if not ready:
                run.problems.append(f"timed out after {RUN_TIMEOUT_S} s")
            elif proc.returncode != 0:
                with open(log, "r", encoding="utf-8", errors="replace") as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                run.problems.append(f"exit {proc.returncode}: "
                                    + " ".join(tail))
            else:
                with open(stamp, "r") as fh:
                    run.setup_s = float(fh.read()) - start
                run.wall_s = end - start
                run.cpu_s = usage.ru_utime + usage.ru_stime
                run.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
                if not probe:
                    self._check(run, trace_path)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return run

    def _check(self, run, trace_path):
        try:
            if self.corrupt is not None:
                self.corrupt(self.wl, self.out_dir)
            run.problems += self.wl.check(self.out_dir)
            outputs = self.wl.output_files(self.out_dir)
            digest = fingerprint(outputs)
            if run.traced:
                with open(trace_path, "r", encoding="utf-8") as fh:
                    run.trace = TraceSummary(
                        json.load(fh), sum(os.path.getsize(p) for p in outputs
                                           if p.endswith(".json")))
        except Exception as exc:  # a missing or malformed output
            run.problems.append(f"output check raised {exc!r}")
            return
        if self.reference is None and not run.problems:
            self.reference = digest
        elif self.reference is not None and digest != self.reference:
            run.problems.append("outputs outside meta differ from the "
                                "first run of this invocation")

    def measure(self, seconds, trace):
        """Closed loop until ``seconds`` pass and enough runs are done; with
        ``trace`` traced and untraced runs alternate, traced first."""
        start = time.monotonic()
        runs = []
        while True:
            elapsed = time.monotonic() - start
            n_traced = sum(r.traced for r in runs)
            if trace:
                enough = (n_traced >= MIN_RUNS
                          and len(runs) - n_traced >= MIN_UNTRACED)
            else:
                enough = len(runs) >= MIN_RUNS
            if enough and elapsed >= seconds:
                break
            if elapsed >= LAST_START_S and runs:
                break
            traced = trace and len(runs) % 2 == 0
            runs.append(self.spawn(self.wl.argv(self.out_dir),
                                   traced=traced))
        self.measure_s = time.monotonic() - start
        return runs


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def stamp(root, seed):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        # Pruned in place, so compiled bytecode (whose headers hold mtimes)
        # never enters the digest.
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "child_thread_env": CHILD_ENV,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def summarise(bench, runs, trace):
    """Print the '#' lines and return the result object."""
    ok = [r for r in runs if not r.problems]
    failed = len(runs) - len(ok)
    untraced = [r for r in ok if not r.traced] or \
        [r for r in runs if r.wall_s is not None and not r.traced]
    name = bench.wl.name
    print(f"# {name} seed={bench.seed} trace={int(trace)}: {len(runs)} runs "
          f"in {bench.measure_s:.1f} s (inputs built in {bench.build_s:.1f} s)"
          f", {failed} failed")
    for i, r in enumerate(runs):
        kind = "traced" if r.traced else "untraced"
        if r.wall_s is not None:
            print(f"# run {i} {kind}: wall {r.wall_s:.4f} s  cpu "
                  f"{r.cpu_s:.4f} s  setup {r.setup_s:.4f} s  peak "
                  f"{r.peak_rss_mb:.1f} MB")
        for p in r.problems:
            print(f"# FAILED run {i} {kind}: {p}")
    print(f"# error_rate   {failed / len(runs):.4g} ratio  ({failed} failed "
          f"of {len(runs)} attempted runs)")
    traced = [r for r in ok if r.traced]
    if not untraced or (trace and not traced):
        return {"correct": False, "attempted": len(runs), "failed": failed,
                "metrics": {}}
    samples = {
        "wall_s": [r.wall_s for r in untraced],
        "cpu_s": [r.cpu_s for r in untraced],
        "setup_s": [r.setup_s for r in untraced],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
    }
    for key, values in samples.items():
        print(f"# {key:<12} median {statistics.median(values):.4f} "
              f"{END_TO_END[key]}  max {max(values):.4f}  n={len(values)}")
    print("# no percentile above the median has ten samples beyond it at "
          f"n={len(untraced)}; the max is shown instead")
    metrics = {}
    if not trace:
        for key, values in samples.items():
            metrics[key] = {"value": statistics.median(values),
                            "unit": END_TO_END[key]}
    else:
        metrics, absent = _per_layer(traced, untraced)
        print(f"# per-layer: median of {len(traced)} traced runs; absent on "
              f"{name} (reported as 0): {', '.join(absent) or 'none'}")
        for key, label in (("absent", "wrapped names missing from the "
                                "program"),
                           ("count_errors", "counts that could not be read")):
            found = sorted({a for r in traced for a in r.trace.doc[key]})
            if found:
                print(f"# {label}: {'; '.join(found)}")
        for r in traced[-1:]:
            spans = r.trace.spans
            for span in sorted(spans, key=lambda k: -spans[k]["self_s"]):
                v = spans[span]
                print(f"#   {span:<40} calls {v['calls']:>7}  total "
                      f"{v['total_s']:.4f} s  self {v['self_s']:.4f} s")
        for key, m in metrics.items():
            print(f"# {key:<40} {m['value']:.6g} {m['unit']}")
    print("# stamp " + json.dumps(stamp(bench.root, bench.seed)))
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def _per_layer(traced, untraced):
    metrics, absent = {}, []
    for key, (unit, fn) in PER_LAYER.items():
        values = [v for v in (fn(r.trace) for r in traced) if v is not None]
        if values:
            metrics[key] = {"value": statistics.median_low(values),
                            "unit": unit}
        else:
            metrics[key] = {"value": 0, "unit": unit}
            absent.append(key)
    # A ratio, so that it stays positive where tracing costs less than the
    # run-to-run noise; the difference in seconds is printed beside it.
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.wall_ratio"] = {"value": traced_wall / untraced_wall,
                                   "unit": "ratio"}
    print(f"# trace.overhead_s {traced_wall - untraced_wall:+.4f} s  "
          f"(median traced wall {traced_wall:.4f} s of {len(traced)} runs "
          f"- median untraced wall {untraced_wall:.4f} s of "
          f"{len(untraced)} runs; trace.wall_ratio is their quotient)")
    return metrics, absent


def run_workload(root, workload, seed, seconds, trace, size="full",
                 corrupt=None):
    bench = Bench(root, workload, seed, size, corrupt)
    try:
        bench.prepare()
        runs = bench.measure(seconds, trace)
        return summarise(bench, runs, trace)
    finally:
        bench.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(BENCH_DIR)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
