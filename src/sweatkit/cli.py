"""Command-line pipeline: config validation, dispatch, and report emission.

Exit codes: 0 success, 1 config/validation error, 2 data error (missing
words, malformed files, degenerate statistics), 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .alignment import default_anchors, procrustes_align
from .association import (
    PermutationConfig,
    PoleWordsets,
    TopicWordset,
    run_sweat,
    run_weat,
)
from .embeddings import load_word2vec_text, save_word2vec_text
from .errors import ConfigError, DataError, open_text
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
    cumulative_data,
    detail_data,
    render_cumulative,
    render_detail,
)

SCHEMA_VERSION = 1

UNDERDETERMINED_WARNING = (
    "warning: fewer anchors than dimensions; rotation is underdetermined"
)


@dataclass
class EmbeddingEntry:
    label: str
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
    report_path: str = "sweat_report.json"
    cumulative_svg: str | None = None
    detail_svg: str | None = None
    plot_json: bool = False

    def echo(self) -> dict:
        return {
            "embeddings": [asdict(e) for e in self.embeddings],
            "topic": self.topic and asdict(self.topic),
            "topic_x": self.topic_x and asdict(self.topic_x),
            "topic_y": self.topic_y and asdict(self.topic_y),
            "poles": self.lexicon and {**asdict(self.lexicon.poles),
                                       "provenance": self.lexicon.provenance},
            "alignment": {"mode": self.alignment_mode, "anchors": self.anchors},
            "refinement": {
                "enabled": self.refinement_enabled,
                "zipf_threshold": self.zipf_threshold,
            },
            "permutations": asdict(self.permutations),
            "tail": self.tail,
            "outputs": {
                "report": self.report_path,
                "cumulative_svg": self.cumulative_svg,
                "detail_svg": self.detail_svg,
                "plot_json": self.plot_json,
            },
        }


def _read_wordlist(path: str) -> list:
    with open_text(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def _readable(path, name, errors) -> bool:
    """Whether ``path`` is a string naming an existing file; if not,
    records an error."""
    if isinstance(path, str) and os.path.isfile(path):
        return True
    errors.append(f"{name}: unreadable path '{path}'")
    return False


def _check_topic(raw, name, errors) -> TopicWordset | None:
    if not isinstance(raw, dict):
        errors.append(f"{name}: must be an object")
        return None
    label = raw.get("label")
    if not label or not isinstance(label, str):
        errors.append(f"{name}.label: required nonempty string")
    words = raw.get("words")
    if "file" in raw:
        if not _readable(raw["file"], f"{name}.file", errors):
            return None
        try:
            words = _read_wordlist(raw["file"])
        except DataError as exc:
            errors.append(f"{name}.file: {exc}")
            return None
    try:
        return TopicWordset(label or name, words)
    except DataError as exc:
        errors.append(f"{name}.words: {exc}")
        return None


def _check_poles(raw, errors) -> Lexicon | None:
    if not isinstance(raw, dict):
        errors.append("poles: must be an object")
        return None
    if "file" in raw:
        if not _readable(raw["file"], "poles.file", errors):
            return None
        try:
            return load_lexicon(raw["file"])
        except DataError as exc:
            errors.append(f"poles.file: {exc}")
            return None
    missing = [k for k in ("label_a", "label_b", "words_a", "words_b")
               if k not in raw]
    if missing:
        errors.append("poles: missing fields: " + ", ".join(missing))
        return None
    try:
        return Lexicon(PoleWordsets(raw["label_a"], raw["label_b"],
                                    raw["words_a"], raw["words_b"]),
                       raw.get("provenance", ""))
    except DataError as exc:
        errors.append(f"poles: {exc}")
        return None


def _section(raw, key, errors) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        errors.append(f"{key}: must be an object")
        return {}
    return value


def _integer(section, key, default, name, errors) -> int:
    value = section.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{name}: must be an integer, got {value!r}")
        return default
    return value


def _permutation_errors(perms: PermutationConfig) -> list:
    errors = []
    try:
        perms.validate()
    except DataError as exc:
        errors.append(f"permutations: {exc}")
    if perms.samples < 1:
        errors.append("permutations.samples: must be a positive integer")
    if perms.seed < 0:
        errors.append("permutations.seed: must be a nonnegative integer")
    return errors


def validate_config(path: str, command: str = "sweat") -> RunConfig:
    """Parse and fully validate a run config, reporting every error found."""
    try:
        with open_text(path) as fh:
            raw = json.load(fh)
    except (OSError, DataError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config parse error at line {exc.lineno}, column {exc.colno}: "
             f"{exc.msg}"]
        ) from exc

    if not isinstance(raw, dict):
        raise ConfigError(
            [f"config must be a JSON object, got {type(raw).__name__}"]
        )
    errors: list = []
    cfg = RunConfig(embeddings=[])

    embeddings = raw.get("embeddings")
    want = 2 if command == "sweat" else 1
    if not isinstance(embeddings, list) or len(embeddings) < want:
        errors.append(f"embeddings: need at least {want} entries")
        embeddings = []
    labels = []
    for i, entry in enumerate(embeddings):
        label = entry.get("label") if isinstance(entry, dict) else None
        epath = entry.get("path") if isinstance(entry, dict) else None
        if not label:
            errors.append(f"embeddings[{i}].label: required nonempty string")
        if not epath:
            errors.append(f"embeddings[{i}].path: required nonempty path")
        else:
            _readable(epath, f"embeddings[{i}].path", errors)
        ftable = entry.get("frequency_table") if isinstance(entry, dict) else None
        if ftable:
            _readable(ftable, f"embeddings[{i}].frequency_table", errors)
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
            cfg.topic = _check_topic(raw["topic"], "topic", errors)
    elif command == "weat":
        for key in ("topic_x", "topic_y"):
            if key not in raw:
                errors.append(f"{key}: required")
            else:
                setattr(cfg, key, _check_topic(raw[key], key, errors))
        if cfg.topic_x and cfg.topic_y:
            overlap = set(cfg.topic_x.words) & set(cfg.topic_y.words)
            if overlap:
                errors.append(
                    "topic_x/topic_y: overlapping words: "
                    + ", ".join(sorted(overlap))
                )

    if "poles" not in raw:
        errors.append("poles: required")
    else:
        cfg.lexicon = _check_poles(raw["poles"], errors)

    alignment = _section(raw, "alignment", errors)
    cfg.alignment_mode = alignment.get("mode", "pre_aligned")
    if cfg.alignment_mode not in ("pre_aligned", "procrustes"):
        errors.append(
            f"alignment.mode: must be pre_aligned or procrustes, "
            f"got '{cfg.alignment_mode}'"
        )
    cfg.anchors = alignment.get("anchors", "auto")
    if cfg.anchors != "auto":
        _readable(cfg.anchors, "alignment.anchors", errors)

    refinement = _section(raw, "refinement", errors)
    cfg.refinement_enabled = bool(refinement.get("enabled", False))
    threshold = refinement.get("zipf_threshold", 5.0)
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not math.isfinite(threshold)):
        errors.append(
            f"refinement.zipf_threshold: must be a finite number, "
            f"got {threshold!r}"
        )
    else:
        cfg.zipf_threshold = float(threshold)
    if cfg.refinement_enabled:
        for i, entry in enumerate(cfg.embeddings):
            if not entry.frequency_table:
                errors.append(
                    f"embeddings[{i}].frequency_table: required when "
                    "refinement is enabled"
                )

    perms = _section(raw, "permutations", errors)
    cfg.permutations = PermutationConfig(
        mode=perms.get("mode", "auto"),
        samples=_integer(perms, "samples", 10_000, "permutations.samples",
                         errors),
        seed=_integer(perms, "seed", 0, "permutations.seed", errors),
        exact_limit=_integer(perms, "exact_limit", 500_000,
                             "permutations.exact_limit", errors),
    )
    errors.extend(_permutation_errors(cfg.permutations))

    cfg.tail = raw.get("tail", "directional")
    if cfg.tail not in ("directional", "two_sided"):
        errors.append(f"tail: must be directional or two_sided, got '{cfg.tail}'")

    outputs = _section(raw, "outputs", errors)
    cfg.report_path = outputs.get("report", "sweat_report.json")
    if not cfg.report_path:
        errors.append("outputs.report: path must be nonempty")
    cfg.cumulative_svg = outputs.get("cumulative_svg")
    cfg.detail_svg = outputs.get("detail_svg")
    cfg.plot_json = bool(outputs.get("plot_json", False))

    if errors:
        raise ConfigError(errors)
    return cfg


def _apply_overrides(cfg: RunConfig, args) -> None:
    if args.seed is not None:
        cfg.permutations.seed = args.seed
    if args.samples is not None:
        cfg.permutations.samples = args.samples
    errors = _permutation_errors(cfg.permutations)
    if errors:
        raise ConfigError(errors)
    if args.tail is not None:
        cfg.tail = args.tail
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        cfg.report_path = os.path.join(
            args.out_dir, os.path.basename(cfg.report_path)
        )
        for attr in ("cumulative_svg", "detail_svg"):
            value = getattr(cfg, attr)
            if value:
                setattr(cfg, attr, os.path.join(args.out_dir,
                                                os.path.basename(value)))


def _json_dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_tables(cfg):
    tables = []
    for entry in cfg.embeddings:
        tables.append(
            load_frequency_table(entry.frequency_table)
            if entry.frequency_table
            else None
        )
    return tables


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
        },
    }, cfg.report_path)
    print(
        f"{title}: score={result.score:.6f} "
        f"d={result.effect_size:.6f} p={result.p_value:.6g} "
        f"({result.method}, {result.tail}); "
        + "; ".join(result.associations)
    )


def cmd_sweat(args) -> int:
    cfg = validate_config(args.config, command="sweat")
    _apply_overrides(cfg, args)
    timings: dict = {}

    t0 = time.perf_counter()
    space1 = load_word2vec_text(cfg.embeddings[0].path, cfg.embeddings[0].label)
    space2 = load_word2vec_text(cfg.embeddings[1].path, cfg.embeddings[1].label)
    table1, table2 = _load_tables(cfg)
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
    result = run_sweat(topic, space1, space2, poles, cfg.permutations, cfg.tail)
    timings["sweat"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cum = cumulative_data(topic, space1, space2, poles)
    det = detail_data(topic, space1, space2, poles)
    if cfg.cumulative_svg:
        render_cumulative(cum, cfg.cumulative_svg)
    if cfg.detail_svg:
        render_detail(det, cfg.detail_svg)
    if cfg.plot_json:
        base, _ = os.path.splitext(cfg.report_path)
        _json_dump(cum.to_dict(), base + ".cumulative.json")
        _json_dump(det.to_dict(), base + ".detail.json")
    timings["viz"] = time.perf_counter() - t0

    _write_report(cfg, "sweat", f"SWEAT {topic.label}", result, timings,
                  alignment=alignment_info, refinement=refinement_info,
                  plots={"cumulative": cum.to_dict(), "detail": det.to_dict()})
    return 0


def cmd_weat(args) -> int:
    cfg = validate_config(args.config, command="weat")
    _apply_overrides(cfg, args)
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
    source = load_word2vec_text(args.source)
    target = load_word2vec_text(args.target)
    if args.anchors == "auto":
        anchors = default_anchors(source, target)
    else:
        anchors = _read_wordlist(args.anchors)
    aligned, report = procrustes_align(source, target, anchors)
    save_word2vec_text(aligned, args.out)
    if args.report:
        _json_dump(report.to_dict(), args.report)
    print(
        f"aligned '{source.label}' onto '{target.label}' with "
        f"{len(anchors)} anchors, residual {report.residual:.3e}"
    )
    if report.underdetermined:
        print(UNDERDETERMINED_WARNING, file=sys.stderr)
    return 0


def cmd_refine(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    space1 = load_word2vec_text(args.space1)
    space2 = load_word2vec_text(args.space2)
    table1 = load_frequency_table(args.freq1)
    table2 = load_frequency_table(args.freq2)
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
    space1 = load_word2vec_text(args.space1)
    space2 = load_word2vec_text(args.space2)
    table1 = load_frequency_table(args.freq1)
    table2 = load_frequency_table(args.freq2)
    stopwords = _read_wordlist(args.stopwords) if args.stopwords else []
    ranked = candidate_topics(space1, space2, table1, table2, stopwords,
                              args.top)
    for word, mean_zipf in ranked:
        print(f"{word}\t{mean_zipf:.4f}")
    return 0


def cmd_plot(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise DataError(f"report '{args.report}' is not JSON: {exc}") from None
    plots = doc.get("plots") if isinstance(doc, dict) else None
    if not plots:
        raise DataError(f"report '{args.report}' carries no plot data")
    try:
        if args.cumulative:
            render_cumulative(
                CumulativePlotData.from_dict(plots["cumulative"]),
                args.cumulative,
            )
        if args.detail:
            render_detail(DetailPlotData.from_dict(plots["detail"]), args.detail)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"report '{args.report}' has malformed plot data "
            f"({type(exc).__name__}: {exc})"
        ) from None
    return 0


def cmd_inspect(args) -> int:
    space = load_word2vec_text(args.embeddings)
    print(f"# label={space.label} vocab={len(space)} dim={space.dimension}")
    if args.freq:
        table = load_frequency_table(args.freq)
        print(f"# frequency_table words={len(table.counts)} "
              f"total_tokens={table.total_tokens}")
    norms = np.linalg.norm(space.matrix, axis=1)
    for word, norm in zip(space.words, norms):
        print(f"{word}\t{norm:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweatkit",
        description="Relative polarization of a topical wordset across two "
        "aligned word-embedding spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("sweat", cmd_sweat), ("weat", cmd_weat)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tail", choices=["directional", "two_sided"])
        p.add_argument("--out-dir")
        p.set_defaults(fn=fn)

    p = sub.add_parser("align")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--anchors", default="auto",
                   help="word-per-line file, or 'auto' for the shared vocab")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("refine")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--space1", required=True)
    p.add_argument("--space2", required=True)
    p.add_argument("--freq1", required=True)
    p.add_argument("--freq2", required=True)
    p.add_argument("--zipf-threshold", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("candidates")
    p.add_argument("--space1", required=True)
    p.add_argument("--space2", required=True)
    p.add_argument("--freq1", required=True)
    p.add_argument("--freq2", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--top", type=int, default=100)
    p.set_defaults(fn=cmd_candidates)

    p = sub.add_parser("plot")
    p.add_argument("--report", required=True)
    p.add_argument("--cumulative")
    p.add_argument("--detail")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("inspect")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--freq")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
