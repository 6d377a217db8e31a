"""Child process for one timed CLI run.

    python3 child.py STAMP SRC_DIR [--probe] [--trace OUT.json] -- ARGV...

Imports ``sweatkit.cli`` from SRC_DIR, writes the monotonic clock reading
taken right after that import to STAMP (the parent subtracts its own reading
at spawn to get the set-up time), then calls ``sweatkit.cli.main(ARGV)`` and
exits with its return code. ``--probe`` stops after the stamp.

With ``--trace`` the public functions of each sweatkit module are wrapped
at the names the CLI resolves them through before ``main`` runs. Every call
is a span with a name, start, end and parent; the spans are summed per name
after ``main`` returns and written to OUT.json. A wrapped name that no longer
exists is recorded as absent and the run goes on, so the traced run survives
refactors of the program. Untraced runs install no wrappers.
"""

import os
import sys
import time


def _size(path):
    return os.path.getsize(path)


# span name -> (module, attribute) pairs to wrap, and a function of
# (args, kwargs, result) giving the counts recorded on that span.
SPANS = {
    "cli.validate_config": ([("sweatkit.cli", "validate_config")], None),
    "embeddings.load_word2vec_text": (
        [("sweatkit.cli", "load_word2vec_text")],
        lambda a, k, r: {"rows": len(r), "bytes": _size(a[0])}),
    "embeddings.save_word2vec_text": (
        [("sweatkit.cli", "save_word2vec_text")],
        lambda a, k, r: {"bytes": _size(a[1])}),
    "embeddings.nearest_neighbor": (
        [("sweatkit.alignment", "nearest_neighbor")], None),
    "embeddings.cosine": (
        [("sweatkit.association", "cosine"), ("sweatkit.viz", "cosine")],
        None),
    "lexicon.load_frequency_table": (
        [("sweatkit.cli", "load_frequency_table")], None),
    "alignment.default_anchors": (
        [("sweatkit.cli", "default_anchors")],
        lambda a, k, r: {"anchors": len(r)}),
    "alignment.procrustes_align": (
        [("sweatkit.cli", "procrustes_align")],
        lambda a, k, r: {"anchors": len(r[1].anchors_used),
                         "residual": r[1].residual}),
    "lexicon.refine": (
        [("sweatkit.cli", "refine")],
        lambda a, k, r: _refine_counts(r)),
    "association.run_sweat": ([("sweatkit.cli", "run_sweat")], None),
    "association.single_word_association": (
        [("sweatkit.association", "single_word_association"),
         ("sweatkit.viz", "single_word_association")], None),
    "association.effect_size": (
        [("sweatkit.association", "effect_size")], None),
    "association.permutation_test": (
        [("sweatkit.association", "permutation_test")],
        lambda a, k, r: {"permutations": r[1]}),
    "viz.cumulative_data": ([("sweatkit.cli", "cumulative_data")], None),
    "viz.detail_data": ([("sweatkit.cli", "detail_data")], None),
    "viz.render_cumulative": (
        [("sweatkit.cli", "render_cumulative")],
        lambda a, k, r: {"bytes": _size(a[1])}),
    "viz.render_detail": (
        [("sweatkit.cli", "render_detail")],
        lambda a, k, r: {"bytes": _size(a[1])}),
}


def _refine_counts(report):
    counts = {"kept": len(report.kept_a) + len(report.kept_b),
              "checked": (len(report.kept_a) + len(report.kept_b)
                          + len(report.rejected))}
    for _, reason in report.rejected:
        counts["rejected." + reason] = counts.get("rejected." + reason, 0) + 1
    return counts


class Tracer:
    """In-memory span recorder.

    Spans are [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []  # "module.attr" names that could not be wrapped
        self.count_errors = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, module, attr, name, counter):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                try:
                    self.spans[idx][4] = counter(args, kwargs, result)
                except Exception as exc:  # a refactor changed the shape
                    self.count_errors.append(f"{name}: {exc!r}")
            return result

        setattr(module, attr, traced)

    def install(self):
        import importlib
        for name, (targets, counter) in SPANS.items():
            for modname, attr in targets:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self.wrap(module, attr, name, counter)

    def summary(self):
        """Per span name: calls, total and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    stamp, src = opts[0], opts[1]
    sys.path.insert(0, src)
    import sweatkit.cli
    imported = time.monotonic()
    if not sweatkit.cli.__file__.startswith(src):
        print(f"sweatkit imported from {sweatkit.cli.__file__}, not {src}",
              file=sys.stderr)
        return 90
    with open(stamp, "w") as fh:
        fh.write(repr(imported))
    if "--probe" in opts:
        return 0
    if "--trace" not in opts:
        return sweatkit.cli.main(cli_argv)

    tracer = Tracer()
    tracer.install()
    cpu = time.process_time()
    root = tracer.open("cli.main")
    try:
        code = sweatkit.cli.main(cli_argv)
    finally:
        tracer.close(root)
    cpu = time.process_time() - cpu
    import json
    with open(opts[opts.index("--trace") + 1], "w") as fh:
        json.dump({"spans": tracer.summary(), "cpu_s": cpu,
                   "absent": tracer.absent,
                   "count_errors": tracer.count_errors}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
