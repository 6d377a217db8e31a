"""Fast self-test of the benchmark itself (about 20 seconds).

    python3 bench/selftest.py

Runs every workload at a tiny size through the same code as a real run and
checks that:
- every run passes its output checks and prints every metric named in
  BENCHMARK.json with its unit, end-to-end metrics untraced and per-layer
  metrics traced;
- a deliberately corrupted output is counted as a failed run;
- the tracer records a wrapped name the program no longer has as absent;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import child
import run
from workloads import read_json

ROOT = os.path.dirname(run.BENCH_DIR)


def _corrupt_score(wl, out_dir):
    path = os.path.join(out_dir, "report.json")
    doc = read_json(path)
    doc["result"]["per_word"][0][1] += 1e-6
    doc["result"]["score"] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _corrupt_refinement(wl, out_dir):
    path = os.path.join(out_dir, "report.json")
    doc = read_json(path)
    doc["refinement"]["kept_a"].pop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _corrupt_row(wl, out_dir):
    path = os.path.join(out_dir, "aligned.txt")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    word, first, rest = lines[1].split(" ", 2)
    lines[1] = f"{word} {float(first) + 1e-3!r} {rest}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


CORRUPT = {
    "sweat_50k": _corrupt_refinement,
    "sweat_lexicon": _corrupt_score,
    "align_50k": _corrupt_row,
}


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _check_metrics(result, specs, label):
    problems = []
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        "missing or unexpected")
    for name, unit in want.items():
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{label}: {name} has unit {got[name]['unit']}, "
                            f"not {unit}")
    return problems


def _empty_checkout():
    """The benchmark alone, without the program, must refuse to run."""
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweat_lexicon",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "{" in proc.stdout:
        return [f"bare checkout: exit {proc.returncode}, stdout "
                f"{proc.stdout[-200:]!r}"]
    return []


def _missing_name():
    tracer = child.Tracer()
    module = types.ModuleType("sweatkit.gone")
    tracer.wrap(module, "run_weat", "association.run_weat", None)
    if tracer.absent != ["sweatkit.gone.run_weat"]:
        return [f"tracer: missing name recorded as {tracer.absent}"]
    return []


def main():
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    problems = []
    for name in sorted(run.WORKLOADS):
        for trace, specs in ((False, spec["end_to_end"]),
                             (True, spec["per_layer"])):
            label = f"{name} trace={int(trace)}"
            result = _quiet(run.run_workload, ROOT, name, 1, 0.5, trace,
                            size="tiny")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} runs failed")
            problems += _check_metrics(result, specs, label)
        result = _quiet(run.run_workload, ROOT, name, 1, 0.5, False,
                        size="tiny", corrupt=CORRUPT[name])
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: corrupted output counted as correct")
    problems += _missing_name()
    problems += _empty_checkout()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
