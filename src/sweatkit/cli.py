"""Command-line pipeline: config validation, dispatch, and report emission.

Exit codes: 0 success, 1 config/validation error, 2 data error (missing
words, malformed files, degenerate statistics), 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .alignment import default_anchors, procrustes_align
from .association import (
    TAILS,
    PermutationConfig,
    PoleWordsets,
    SweatResult,
    TopicWordset,
    require_targets,
    run_weat,
    topic_associations,
)
from .embeddings import (
    load_word2vec_pair,
    load_word2vec_text,
    save_word2vec_text,
)
from .errors import (ConfigError, DataError, _replacing, _text, open_text,
                     read_json)
from .lexicon import (
    Lexicon,
    candidate_topics,
    load_frequency_table,
    load_lexicon,
    refine,
)
from .viz import (
    CumulativePlotData,
    DetailPlotData,
    render_cumulative,
    render_detail,
)

SCHEMA_VERSION = 1

UNDERDETERMINED_WARNING = (
    "warning: no more distinct anchors than dimensions; rotation is "
    "underdetermined"
)


@dataclass
class EmbeddingEntry:
    label: str | None  # None: the file's name
    path: str
    frequency_table: str | None = None


@dataclass
class RunConfig:
    embeddings: list
    topic: TopicWordset | None = None
    topic_x: TopicWordset | None = None
    topic_y: TopicWordset | None = None
    lexicon: Lexicon | None = None  # the pole wordsets and their provenance
    alignment_mode: str = "pre_aligned"
    anchors: str = "auto"
    refinement_enabled: bool = False
    zipf_threshold: float = 5.0
    permutations: PermutationConfig = field(default_factory=PermutationConfig)
    tail: str = "directional"
    report: str = "sweat_report.json"
    cumulative_svg: str | None = None
    detail_svg: str | None = None
    inputs: dict = field(default_factory=dict)  # each input named, by key path

    def echo(self) -> dict:
        echo = {
            "embeddings": [asdict(e) for e in self.embeddings],
            "topic": self.topic and asdict(self.topic),
            "topic_x": self.topic_x and asdict(self.topic_x),
            "topic_y": self.topic_y and asdict(self.topic_y),
            "poles": self.lexicon and {**asdict(self.lexicon.poles),
                                       "provenance": self.lexicon.provenance},
            "alignment": {"anchors": self.anchors},
            "permutations": asdict(self.permutations),
        }
        # Each scalar under the key path it is read from.
        for name, attr, _, _ in _SCALARS:
            section, _, key = name.rpartition(".")
            into = echo.setdefault(section, {}) if section else echo
            into[key] = getattr(self, attr)
        return echo


def _number(text: str):
    """A JSON number: integral ones, such as 1e4, read as ints."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _read_wordlist(path: str) -> list:
    """The nonblank lines of ``path``, stripped."""
    with open_text(path) as fh:
        return [word for word in map(str.strip, fh) if word]


def _readable(path) -> bool:
    """Whether ``path`` is a string naming an existing path that is not a
    directory: a file, a pipe or a device. It is only stat'ed."""
    return (isinstance(path, str) and os.path.exists(path)
            and not os.path.isdir(path))


def _checked(make, prefix, errors):
    """What ``make()`` returns, or None with its DataError recorded."""
    try:
        return make()
    except DataError as exc:
        errors.append(f"{prefix}{exc}")
        return None


def _check_topic(raw, name, errors, inputs) -> TopicWordset | None:
    if not isinstance(raw, dict):
        errors.append(f"{name}: must be an object")
        return None
    words = raw.get("words")
    if "file" in raw:
        inputs[f"{name}.file"] = raw["file"]
        if not _readable(raw["file"]):  # named by _check_files
            return None
        words = _checked(lambda: _read_wordlist(raw["file"]), f"{name}.file: ",
                         errors)
        if words is None:
            return None
    # A TopicWordset error starts with the name of the field at fault.
    return _checked(lambda: TopicWordset(raw.get("label"), words), f"{name}.",
                    errors)


def _check_poles(raw, errors, inputs) -> Lexicon | None:
    if isinstance(raw, dict) and "file" in raw:
        inputs["poles.file"] = raw["file"]
        if not _readable(raw["file"]):  # named by _check_files
            return None
        return _checked(lambda: load_lexicon(raw["file"]), "poles.file: ",
                        errors)
    return _checked(lambda: Lexicon.from_dict(raw), "poles: ", errors)


def _section(raw, key, errors) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        errors.append(f"{key}: must be an object")
        return {}
    return value


def _finite(value) -> bool:
    """A JSON number that reads as a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _output(value) -> bool:
    """An output path, or None for no output."""
    return value is None or isinstance(value, str) and "\0" not in value


# Each scalar field: key path, RunConfig attribute (and default), rule, test.
_SCALARS = (
    ("alignment.mode", "alignment_mode", "pre_aligned or procrustes",
     ("pre_aligned", "procrustes").__contains__),
    ("refinement.enabled", "refinement_enabled", "true or false",
     lambda v: isinstance(v, bool)),
    ("refinement.zipf_threshold", "zipf_threshold", "a finite number", _finite),
    ("tail", "tail", " or ".join(TAILS), TAILS.__contains__),
    ("outputs.report", "report", "a path string",
     lambda v: v and _output(v)),
    ("outputs.cumulative_svg", "cumulative_svg", "a path string", _output),
    ("outputs.detail_svg", "detail_svg", "a path string", _output),
)

# Each flag value rule, in the same form: flag, attribute, rule, test.
_FLAG_VALUES = (
    ("--zipf-threshold", "zipf_threshold", "a finite number", _finite),
    ("--top", "top", "at least 0", lambda v: v >= 0),
)


def validate_config(path: str, command: str = "sweat", seed=None,
                    samples=None, tail=None, out_dir=None) -> RunConfig:
    """Parse and fully validate a run config, reporting every error found.
    ``seed``, ``samples`` and ``tail``, where not None, replace the config's
    values before they are checked. ``out_dir`` takes each output by its
    file name; it must name a directory or nothing yet, and is made once
    every check has passed."""
    try:
        raw = read_json(path, parse_float=_number)
    except (OSError, DataError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            [f"config must be a JSON object, got {type(raw).__name__}"]
        )
    errors: list = []
    cfg = RunConfig(embeddings=[], inputs={"--config": path})

    embeddings = raw.get("embeddings")
    want = 2 if command == "sweat" else 1
    if not isinstance(embeddings, list) or len(embeddings) < want:
        errors.append(f"embeddings: need at least {want} entries")
        embeddings = []
    elif command == "sweat" and len(embeddings) > 2:
        errors.append("embeddings: sweat compares exactly 2 spaces, got "
                      f"{len(embeddings)}")
    labels = []
    for i, entry in enumerate(embeddings):
        entry = entry if isinstance(entry, dict) else {}
        label = _checked(lambda: _text(entry.get("label"),
                                       f"embeddings[{i}].label"), "", errors)
        epath = cfg.inputs[f"embeddings[{i}].path"] = entry.get("path")
        ftable = entry.get("frequency_table")
        if ftable is not None:
            cfg.inputs[f"embeddings[{i}].frequency_table"] = ftable
        labels.append(label)
        cfg.embeddings.append(
            EmbeddingEntry(label=label or f"space{i + 1}", path=epath or "",
                           frequency_table=ftable)
        )
    if len(labels) != len(set(labels)):
        errors.append("embeddings: labels must be distinct")

    if command == "sweat":
        if "topic" not in raw:
            errors.append("topic: required")
        else:
            cfg.topic = _check_topic(raw["topic"], "topic", errors,
                                     cfg.inputs)
    elif command == "weat":
        for key in ("topic_x", "topic_y"):
            if key not in raw:
                errors.append(f"{key}: required")
            else:
                setattr(cfg, key,
                        _check_topic(raw[key], key, errors, cfg.inputs))
        if cfg.topic_x and cfg.topic_y:
            _checked(lambda: require_targets(cfg.topic_x, cfg.topic_y),
                     "topic_x/topic_y: ", errors)

    if "poles" not in raw:
        errors.append("poles: required")
    else:
        cfg.lexicon = _check_poles(raw["poles"], errors, cfg.inputs)

    sections = {"": raw}
    for key in ("alignment", "refinement", "permutations", "outputs"):
        sections[key] = _section(raw, key, errors)
    for section, key, value in (("", "tail", tail),
                                ("permutations", "seed", seed),
                                ("permutations", "samples", samples)):
        if value is not None:
            sections[section][key] = value
    for name, attr, rule, ok in _SCALARS:
        section, _, key = name.rpartition(".")
        value = sections[section].get(key, getattr(cfg, attr))
        if ok(value):
            setattr(cfg, attr, value)
        else:
            errors.append(f"{name}: must be {rule}, got {value!r}")
    cfg.zipf_threshold = float(cfg.zipf_threshold)

    cfg.anchors = sections["alignment"].get("anchors", cfg.anchors)
    if cfg.anchors != "auto":
        cfg.inputs["alignment.anchors"] = cfg.anchors
    if cfg.refinement_enabled:
        for i, entry in enumerate(cfg.embeddings):
            if not entry.frequency_table:
                errors.append(
                    f"embeddings[{i}].frequency_table: required when "
                    "refinement is enabled"
                )

    cfg.permutations = PermutationConfig(**{
        key: sections["permutations"].get(key, default)
        for key, default in asdict(PermutationConfig()).items()})
    # WEAT tests each target set; n = 0 stands for a topic that failed.
    topic = cfg.topic or cfg.topic_x
    errors.extend(cfg.permutations.errors(len(topic.words) if topic else 0))

    outputs = {}
    for attr in ("report", "cumulative_svg", "detail_svg"):
        value = getattr(cfg, attr)
        if value and out_dir is not None:
            value = os.path.join(out_dir, os.path.basename(value))
            setattr(cfg, attr, value)
        outputs[f"outputs.{attr}"] = value
    _check_files(cfg.inputs, outputs, errors, out_dir)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    return cfg


def _check_files(inputs: dict, outputs: dict, errors=(),
                 out_dir=None) -> None:
    """Raise a ConfigError of ``errors`` and a line, by key, for each input
    that is not ``_readable``, output whose directory does not exist, and
    output naming the file of an input or an output before it (the same
    path once resolved, or one file by two names). An output of None, or
    one that exists and is no regular file (written in place), is exempt
    from the last. ``out_dir``, made later to hold every output, must name
    a directory or nothing yet."""
    errors = list(errors)
    taken = []
    for key, path in inputs.items():
        if _readable(path):
            taken.append((key, path))
        else:
            errors.append(f"{key}: unreadable path '{path}'")
    if out_dir is not None and (not out_dir or os.path.lexists(out_dir)
                                and not os.path.isdir(out_dir)):
        errors.append(f"--out-dir: must name a directory, got {out_dir!r}")
    for key, path in outputs.items():
        folder = os.path.dirname(path or "")
        if out_dir is None and folder and not os.path.isdir(folder):
            errors.append(f"{key}: directory '{folder}' does not exist")
        if not path or os.path.exists(path) and not os.path.isfile(path):
            continue
        same = next((other for other, named in taken
                     if _same_file(path, named)), None)
        if same:
            errors.append(f"{key}: '{path}' names the same file as {same}")
        taken.append((key, path))
    if errors:
        raise ConfigError(errors)


def _check_flags(args) -> None:
    """Raise a ConfigError of each flag value of ``args`` that breaks its
    rule and each fault of the files its command's flags name (``_FLAGS``);
    an absent flag, and ``--anchors auto``, name no file."""
    errors = [f"{flag}: must be {rule}, got {getattr(args, attr)!r}"
              for flag, attr, rule, ok in _FLAG_VALUES
              if hasattr(args, attr) and not ok(getattr(args, attr))]
    _, inputs, outputs, _ = _FLAGS[args.command]
    value = {flag: getattr(args, flag[2:]) for flag in (*inputs, *outputs)}
    if value.get("--anchors") == "auto":
        value["--anchors"] = None
    _check_files({flag: value[flag] for flag in inputs
                  if value[flag] is not None},
                 {flag: value[flag] for flag in outputs}, errors)


def _same_file(path, other) -> bool:
    """Whether two paths name one file: equal once resolved, or, where both
    exist, one file by two names."""
    try:
        return (os.path.realpath(path) == os.path.realpath(other)
                or os.path.samefile(path, other))
    except OSError:  # one of them does not exist
        return False


def _json_dump(obj, path) -> None:
    """Write ``obj`` to ``path`` whole, as indented JSON with sorted keys, in
    one write: ``json.dump`` would write each token on its own."""
    with _replacing(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _load_pair(entry1, entry2) -> tuple:
    """The spaces of two embedding entries, read at once, then their
    frequency tables: None for an entry that names none."""
    spaces = load_word2vec_pair((entry1.path, entry1.label),
                                (entry2.path, entry2.label))
    return (*spaces, *(load_frequency_table(e.frequency_table)
                       if e.frequency_table else None
                       for e in (entry1, entry2)))


def _blas() -> dict:
    """numpy's BLAS library, where its build config names it, and the
    thread variables this run saw: an aligned space's last bits can depend
    on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # a numpy without this config
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _peak_rss_mb() -> float | None:
    """This process's peak resident memory so far (VmHWM), in MB; None
    where ``/proc/self/status`` is absent."""
    try:
        with open("/proc/self/status", "rb") as fh:
            return next(int(line.split()[1]) * 1024 / 1e6 for line in fh
                        if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        return None


def _write_report(cfg, command, title, result, timings, alignment=None,
                  refinement=None, plots=None) -> None:
    """Write the run's JSON report and print its one-line summary."""
    _json_dump({
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "config": cfg.echo(),
        "alignment": alignment,
        "refinement": refinement,
        "result": result.to_dict(),
        "plots": plots,
        "meta": {
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "timings": timings,
            "blas": _blas(),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }, cfg.report)
    print(
        f"{title}: score={result.score:.6f} "
        f"d={result.effect_size:.6f} p={result.p_value:.6g} "
        f"({result.method}, {result.tail}); "
        + "; ".join(result.associations)
    )


def cmd_sweat(args) -> int:
    cfg = validate_config(args.config, "sweat", args.seed, args.samples,
                          args.tail, args.out_dir)
    timings: dict = {}

    t0 = time.perf_counter()
    space1, space2, table1, table2 = _load_pair(*cfg.embeddings)
    timings["load"] = time.perf_counter() - t0

    alignment_info = None
    if cfg.alignment_mode == "procrustes":
        t0 = time.perf_counter()
        if cfg.anchors == "auto":
            anchors = default_anchors(space1, space2, table1, table2,
                                      cfg.zipf_threshold)
        else:
            anchors = _read_wordlist(cfg.anchors)
        # space2 is mapped into space1's coordinate system.
        space2, report = procrustes_align(space2, space1, anchors)
        alignment_info = report.to_dict()
        if report.underdetermined:
            print(UNDERDETERMINED_WARNING, file=sys.stderr)
        timings["alignment"] = time.perf_counter() - t0

    poles = cfg.lexicon.poles
    refinement_info = None
    if cfg.refinement_enabled:
        t0 = time.perf_counter()
        report = refine(cfg.lexicon, space1, space2, table1, table2,
                        cfg.zipf_threshold)
        refinement_info = report.to_dict()
        if not report.kept_a or not report.kept_b:
            raise DataError(
                "refinement emptied a pole wordset; cannot run the test"
            )
        poles = PoleWordsets(poles.label_a, poles.label_b,
                             report.kept_a, report.kept_b)
        timings["refinement"] = time.perf_counter() - t0

    topic = cfg.topic
    t0 = time.perf_counter()
    pair = topic_associations(topic, space1, space2, poles)
    result = SweatResult.from_associations(topic, pair, poles,
                                           cfg.permutations, cfg.tail)
    timings["sweat"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cum = CumulativePlotData.from_associations(topic, pair, poles)
    det = DetailPlotData.from_associations(topic, pair, poles)
    if cfg.cumulative_svg:
        render_cumulative(cum, cfg.cumulative_svg)
    if cfg.detail_svg:
        render_detail(det, cfg.detail_svg)
    timings["viz"] = time.perf_counter() - t0

    _write_report(cfg, "sweat", f"SWEAT {topic.label}", result, timings,
                  alignment=alignment_info, refinement=refinement_info,
                  plots={"cumulative": cum.to_dict(), "detail": det.to_dict()})
    return 0


def cmd_weat(args) -> int:
    cfg = validate_config(args.config, "weat", args.seed, args.samples,
                          args.tail, args.out_dir)
    timings: dict = {}

    t0 = time.perf_counter()
    space = load_word2vec_text(cfg.embeddings[0].path, cfg.embeddings[0].label)
    timings["load"] = time.perf_counter() - t0

    x, y = cfg.topic_x, cfg.topic_y
    t0 = time.perf_counter()
    result = run_weat(x, y, space, cfg.lexicon.poles, cfg.permutations,
                      cfg.tail)
    timings["weat"] = time.perf_counter() - t0

    _write_report(cfg, "weat", f"WEAT {x.label} vs {y.label}", result,
                  timings)
    return 0


def cmd_align(args) -> int:
    source, target = load_word2vec_pair((args.source, None),
                                        (args.target, None))
    if args.anchors == "auto":
        anchors = default_anchors(source, target)
    else:
        anchors = _read_wordlist(args.anchors)
    aligned, report = procrustes_align(source, target, anchors)
    save_word2vec_text(aligned, args.out)
    if args.report:
        _json_dump({**report.to_dict(), "meta": {
            "blas": _blas(), "peak_rss_mb": _peak_rss_mb()}}, args.report)
    print(
        f"aligned '{source.label}' onto '{target.label}' with "
        f"{len(anchors)} anchors, residual {report.residual:.3e}"
    )
    if report.underdetermined:
        print(UNDERDETERMINED_WARNING, file=sys.stderr)
    return 0


def cmd_refine(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    space1, space2, table1, table2 = _load_pair(
        EmbeddingEntry(None, args.space1, args.freq1),
        EmbeddingEntry(None, args.space2, args.freq2))
    report = refine(lexicon, space1, space2, table1, table2,
                    args.zipf_threshold)
    _json_dump(report.to_dict(), args.out)
    if not report.kept_a or not report.kept_b:
        print("warning: refinement emptied a pole wordset", file=sys.stderr)
    print(
        f"kept {len(report.kept_a)}+{len(report.kept_b)} words, "
        f"rejected {len(report.rejected)}"
    )
    return 0


def cmd_candidates(args) -> int:
    space1, space2, table1, table2 = _load_pair(
        EmbeddingEntry(None, args.space1, args.freq1),
        EmbeddingEntry(None, args.space2, args.freq2))
    stopwords = _read_wordlist(args.stopwords) if args.stopwords else []
    ranked = candidate_topics(space1, space2, table1, table2, stopwords,
                              args.top)
    for word, mean_zipf in ranked:
        print(f"{word}\t{mean_zipf:.4f}")
    return 0


def cmd_plot(args) -> int:
    doc = read_json(args.report)
    plots = doc.get("plots") if isinstance(doc, dict) else None
    if not plots:
        raise DataError(f"report '{args.report}' carries no plot data")
    try:  # both charts are drawn before either is written
        cum = args.cumulative and render_cumulative(
            CumulativePlotData.from_dict(plots["cumulative"]), None)
        det = args.detail and render_detail(
            DetailPlotData.from_dict(plots["detail"]), None)
    except (DataError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(
            f"report '{args.report}' has malformed plot data "
            f"({type(exc).__name__}: {exc})"
        ) from None
    for svg, path in ((cum, args.cumulative), (det, args.detail)):
        if path:
            svg.write(path)
    return 0


def cmd_inspect(args) -> int:
    space = load_word2vec_text(args.embeddings)
    table = load_frequency_table(args.freq) if args.freq else None
    print(f"# label={space.label} vocab={len(space)} dim={space.dimension}")
    if table is not None:
        print(f"# frequency_table words={len(table.counts)} "
              f"total_tokens={table.total_tokens}")
    for word, norm in zip(space.words, space._norms):
        print(f"{word}\t{norm:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is a config error (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


# Each command: its function, its flags naming files it reads, those naming
# files it writes (each checked by _check_flags before the command runs), and
# the parser options of each flag that may be left out; others are required.
_RUN_OPTIONS = {"--seed": {"type": int}, "--samples": {"type": int},
                "--tail": {"choices": TAILS}, "--out-dir": {}}
_FLAGS = {
    "sweat": (cmd_sweat, ("--config",), (), _RUN_OPTIONS),
    "weat": (cmd_weat, ("--config",), (), _RUN_OPTIONS),
    "align": (cmd_align, ("--source", "--target", "--anchors"),
              ("--out", "--report"), {"--report": {}, "--anchors": {
                  "default": "auto", "help": "word-per-line file, or 'auto' "
                  "for the shared vocab"}}),
    "refine": (cmd_refine, ("--lexicon", "--space1", "--space2", "--freq1",
                            "--freq2"), ("--out",),
               {"--zipf-threshold": {"type": float, "default": 5.0}}),
    "candidates": (cmd_candidates, ("--space1", "--space2", "--freq1",
                                    "--freq2", "--stopwords"), (),
                   {"--stopwords": {}, "--top": {"type": int, "default": 100}}),
    "plot": (cmd_plot, ("--report",), ("--cumulative", "--detail"),
             {"--cumulative": {}, "--detail": {}}),
    "inspect": (cmd_inspect, ("--embeddings", "--freq"), (), {"--freq": {}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sweatkit",
        description="Relative polarization of a topical wordset across two "
        "aligned word-embedding spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, inputs, outputs, options) in _FLAGS.items():
        p = sub.add_parser(name)
        for flag in dict.fromkeys((*inputs, *outputs, *options)):
            p.add_argument(flag, required=flag not in options,
                           **options.get(flag, {}))
        p.set_defaults(fn=fn)
    return parser


# Each character str.splitlines breaks at, and the escape that keeps it out.
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        return args.fn(args)
    except ConfigError as exc:
        code, prefix, messages = 1, "config error", exc.errors
    except DataError as exc:
        code, prefix, messages = 2, "data error", [exc]
    except OSError as exc:
        code, prefix, messages = 3, "io error", [exc]
    for text in messages:
        print(f"{prefix}: {str(text).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
