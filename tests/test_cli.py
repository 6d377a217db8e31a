import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweatkit import load_word2vec_text, save_word2vec_text
from sweatkit.cli import main, validate_config
from sweatkit.errors import ConfigError

from conftest import polarized_fixture, random_space


def write_fixture(tmp_path, seed=12345, counts_zipf=6.0):
    """Materialize the polarized fixture as on-disk pipeline inputs."""
    space1, space2, topic, control, poles = polarized_fixture(seed=seed)
    p1 = tmp_path / "space1.txt"
    p2 = tmp_path / "space2.txt"
    save_word2vec_text(space1, str(p1))
    save_word2vec_text(space2, str(p2))
    total = 10**6
    count = int(round(10**counts_zipf * total / 1e9))
    freqs = {}
    for name, space in (("freq1.tsv", space1), ("freq2.tsv", space2)):
        path = tmp_path / name
        lines = [f"#total\t{total}"] + [f"{w}\t{count}" for w in space.words]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        freqs[name] = path
    return {
        "space1": p1,
        "space2": p2,
        "freq1": freqs["freq1.tsv"],
        "freq2": freqs["freq2.tsv"],
        "topic": topic,
        "control": control,
        "poles": poles,
    }


def base_config(tmp_path, fx, **overrides):
    cfg = {
        "embeddings": [
            {"label": "S1", "path": str(fx["space1"]),
             "frequency_table": str(fx["freq1"])},
            {"label": "S2", "path": str(fx["space2"]),
             "frequency_table": str(fx["freq2"])},
        ],
        "topic": {"label": fx["topic"].label, "words": fx["topic"].words},
        "poles": {
            "label_a": fx["poles"].label_a,
            "label_b": fx["poles"].label_b,
            "words_a": fx["poles"].words_a,
            "words_b": fx["poles"].words_b,
        },
        "permutations": {"mode": "montecarlo", "samples": 2000, "seed": 7},
        "outputs": {"report": str(tmp_path / "report.json")},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path, cfg


class TestValidateConfig:
    def test_minimal_config_defaults(self, tmp_path):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        cfg = validate_config(str(path))
        assert cfg.alignment_mode == "pre_aligned"
        assert cfg.zipf_threshold == 5.0
        assert cfg.tail == "directional"
        assert cfg.permutations.exact_limit == 500_000

    def test_identical_labels_rejected(self, tmp_path):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][1]["label"] = "S1"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match="labels must be distinct"):
            validate_config(str(path))

    def test_missing_lexicon_file_named(self, tmp_path):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["poles"] = {"file": str(tmp_path / "nope.json")}
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            validate_config(str(path))
        assert any("poles.file" in e and "nope.json" in e for e in exc.value.errors)

    def test_all_errors_collected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "embeddings": [
                        {"label": "A", "path": str(tmp_path / "missing1.txt")},
                        {"label": "A", "path": str(tmp_path / "missing2.txt")},
                    ],
                    "tail": "sideways",
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as exc:
            validate_config(str(path))
        joined = "\n".join(exc.value.errors)
        assert "labels must be distinct" in joined
        assert "topic: required" in joined
        assert "poles: required" in joined
        assert "tail:" in joined
        assert "missing1.txt" in joined and "missing2.txt" in joined

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            validate_config(str(path))


class TestSweatCommand:
    def test_end_to_end_polarized(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"]["cumulative_svg"] = str(tmp_path / "cum.svg")
        raw["outputs"]["detail_svg"] = str(tmp_path / "det.svg")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["result"]["score"] > 0
        assert report["result"]["p_value"] < 0.01
        assert (tmp_path / "cum.svg").exists()
        assert (tmp_path / "det.svg").exists()

    def test_missing_topic_word_exit_2(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["topic"]["words"] = raw["topic"]["words"] + ["unicorn"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 2
        assert "unicorn" in capsys.readouterr().err

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1

    def test_io_error_exit_3(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"]["report"] = str(tmp_path / "no" / "dir" / "r.json")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 3

    def test_determinism_outside_meta(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        assert main(["sweat", "--config", str(path)]) == 0
        first = json.loads((tmp_path / "report.json").read_text())
        assert main(["sweat", "--config", str(path)]) == 0
        second = json.loads((tmp_path / "report.json").read_text())
        first.pop("meta")
        second.pop("meta")
        assert first == second

    def test_refinement_and_alignment_in_pipeline(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        # Second space is an exact rotation of the first, so alignment
        # recovers it and refinement keeps the (stable) pole words.
        space1 = load_word2vec_text(str(fx["space1"]))
        rng = np.random.default_rng(0)
        q, r = np.linalg.qr(rng.normal(size=(10, 10)))
        rot = q * np.sign(np.diag(r))
        from sweatkit.embeddings import EmbeddingSpace

        rotated = EmbeddingSpace.from_rows(
            "S2", space1.words, space1.matrix @ rot
        )
        save_word2vec_text(rotated, str(fx["space2"]))
        path, raw = base_config(tmp_path, fx)
        raw["alignment"] = {"mode": "procrustes", "anchors": "auto"}
        raw["refinement"] = {"enabled": True, "zipf_threshold": 5.0}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["alignment"]["residual"] >= 0
        assert report["refinement"] is not None

    def test_seed_override_changes_echo(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        assert main(["sweat", "--config", str(path), "--seed", "99"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["permutations"]["seed"] == 99


    def test_underdetermined_alignment_warns(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("ctrl0\nctrl1\n", encoding="utf-8")
        path, raw = base_config(tmp_path, fx)
        raw["alignment"] = {"mode": "procrustes", "anchors": str(anchors)}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: fewer anchors than dimensions; rotation is "
                       "underdetermined\n")


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    return err


class TestConfigTypes:
    """Bad overrides and wrongly typed config values are config errors."""

    def test_samples_override_below_minimum(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        assert main(["sweat", "--config", str(path), "--samples", "5"]) == 1
        assert "at least 100 samples" in one_line_error(capsys, "config error:")

    def test_negative_seed_override(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        assert main(["sweat", "--config", str(path), "--seed", "-1"]) == 1
        assert "permutations.seed" in one_line_error(capsys, "config error:")

    def test_top_level_array(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert "JSON object" in one_line_error(capsys, "config error:")

    @pytest.mark.parametrize("section, key, value", [
        ("permutations", "samples", "lots"),
        ("permutations", "seed", 1.5),
        ("permutations", "exact_limit", True),
        ("refinement", "zipf_threshold", "high"),
    ])
    def test_non_numeric_field(self, tmp_path, capsys, section, key, value):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw.setdefault(section, {})[key] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert f"{section}.{key}: must be" in err and repr(value) in err

    def test_section_not_an_object(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["permutations"] = [1000]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert "permutations: must be an object" in one_line_error(
            capsys, "config error:")


class TestWeatCommand:
    def test_weat_runs(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        raw = {
            "embeddings": [{"label": "S1", "path": str(fx["space1"])}],
            "topic_x": {"label": "topic", "words": fx["topic"].words},
            "topic_y": {"label": "ctrl", "words": fx["control"].words},
            "poles": {
                "label_a": "pos", "label_b": "neg",
                "words_a": fx["poles"].words_a,
                "words_b": fx["poles"].words_b,
            },
            "permutations": {"mode": "montecarlo", "samples": 1000, "seed": 3},
            "outputs": {"report": str(tmp_path / "weat.json")},
        }
        path = tmp_path / "weat_config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "weat.json").read_text())
        assert report["command"] == "weat"
        assert 0.0 <= report["result"]["p_value"] <= 1.0


class TestOtherCommands:
    def test_align_command(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        source = random_space(rng, "src", words, 6)
        q, r = np.linalg.qr(rng.normal(size=(6, 6)))
        rot = q * np.sign(np.diag(r))
        from sweatkit.embeddings import EmbeddingSpace

        target = EmbeddingSpace.from_rows("tgt", words, source.matrix @ rot)
        src_p, tgt_p = tmp_path / "src.txt", tmp_path / "tgt.txt"
        save_word2vec_text(source, str(src_p))
        save_word2vec_text(target, str(tgt_p))
        out = tmp_path / "aligned.txt"
        rep = tmp_path / "align_report.json"
        assert main([
            "align", "--source", str(src_p), "--target", str(tgt_p),
            "--anchors", "auto", "--out", str(out), "--report", str(rep),
        ]) == 0
        aligned = load_word2vec_text(str(out))
        assert np.allclose(aligned.matrix, target.matrix, atol=1e-6)
        report = json.loads(rep.read_text())
        assert report["residual"] < 1e-8

    def test_refine_command(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        lex = tmp_path / "lex.json"
        lex.write_text(
            json.dumps(
                {
                    "label_a": "pos", "label_b": "neg",
                    "words_a": fx["poles"].words_a,
                    "words_b": fx["poles"].words_b,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "refined.json"
        assert main([
            "refine", "--lexicon", str(lex),
            "--space1", str(fx["space1"]), "--space2", str(fx["space2"]),
            "--freq1", str(fx["freq1"]), "--freq2", str(fx["freq2"]),
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"kept_a", "kept_b", "rejected"}

    def test_candidates_command(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        assert main([
            "candidates",
            "--space1", str(fx["space1"]), "--space2", str(fx["space2"]),
            "--freq1", str(fx["freq1"]), "--freq2", str(fx["freq2"]),
            "--top", "5",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all("\t" in line for line in lines)

    def test_plot_reproduces_svgs(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"]["cumulative_svg"] = str(tmp_path / "cum.svg")
        raw["outputs"]["detail_svg"] = str(tmp_path / "det.svg")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        original_cum = (tmp_path / "cum.svg").read_bytes()
        original_det = (tmp_path / "det.svg").read_bytes()
        assert main([
            "plot", "--report", str(tmp_path / "report.json"),
            "--cumulative", str(tmp_path / "cum2.svg"),
            "--detail", str(tmp_path / "det2.svg"),
        ]) == 0
        assert (tmp_path / "cum2.svg").read_bytes() == original_cum
        assert (tmp_path / "det2.svg").read_bytes() == original_det

    def test_plot_non_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{truncated", encoding="utf-8")
        assert main(["plot", "--report", str(report),
                     "--cumulative", str(tmp_path / "cum.svg")]) == 2
        assert "not JSON" in one_line_error(capsys, "data error:")

    def test_plot_report_missing_fields(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"plots": {"cumulative": {"bars": []},
                                                "detail": {}}}),
                          encoding="utf-8")
        assert main(["plot", "--report", str(report),
                     "--cumulative", str(tmp_path / "cum.svg")]) == 2
        assert "topic_label" in one_line_error(capsys, "data error:")
        assert not (tmp_path / "cum.svg").exists()

    def test_inspect_prints_norm_lines(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        assert main(["inspect", "--embeddings", str(fx["space1"])]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# label=")
        assert "\t" in out[1]


NOT_UTF8 = b"w\t1\n\xff\t2\n"


def weat_raw(fx, tmp_path):
    return {
        "embeddings": [{"label": "S1", "path": str(fx["space1"])}],
        "topic_x": {"label": "topic", "words": fx["topic"].words},
        "topic_y": {"label": "ctrl", "words": fx["control"].words},
        "poles": {"label_a": "pos", "label_b": "neg",
                  "words_a": fx["poles"].words_a,
                  "words_b": fx["poles"].words_b},
        "outputs": {"report": str(tmp_path / "weat.json")},
    }


class TestInputFaults:
    """Undecodable files and wrongly typed paths or words end in a one-line
    error with their documented exit code, never a traceback."""

    @pytest.mark.parametrize("target", ["config", "topic.file", "poles.file"])
    def test_config_file_not_utf8(self, tmp_path, capsys, target):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        if target == "topic.file":
            raw["topic"] = {"label": "t", "file": str(bad)}
        elif target == "poles.file":
            raw["poles"] = {"file": str(bad)}
        path.write_bytes(json.dumps(raw).encode()
                         + (b"\xff" if target == "config" else b""))
        assert main(["sweat", "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert "not valid UTF-8" in err and (
            target == "config" or f"{target}:" in err)

    @pytest.mark.parametrize("target", [
        "embeddings", "frequency_table", "anchors", "lexicon", "stopwords",
    ])
    def test_data_file_not_utf8(self, tmp_path, capsys, target):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        pair = ["--space1", str(fx["space1"]), "--space2", str(fx["space2"]),
                "--freq1", str(fx["freq1"]), "--freq2", str(fx["freq2"])]
        argv = ["sweat", "--config", str(path)]
        if target == "embeddings":
            argv = ["inspect", "--embeddings", str(bad)]
        elif target == "frequency_table":
            raw["embeddings"][1]["frequency_table"] = str(bad)
        elif target == "anchors":
            raw["alignment"] = {"mode": "procrustes", "anchors": str(bad)}
        elif target == "lexicon":
            argv = ["refine", "--lexicon", str(bad), *pair,
                    "--out", str(tmp_path / "refined.json")]
        else:
            argv = ["candidates", *pair, "--stopwords", str(bad)]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(argv) == 2
        err = one_line_error(capsys, "data error:")
        assert f"{bad}: not valid UTF-8" in err

    @pytest.mark.parametrize("field", [
        "embeddings[0].path", "embeddings[0].frequency_table", "topic.file",
        "poles.file", "alignment.anchors",
    ])
    def test_non_string_path(self, tmp_path, capsys, field):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        if field.startswith("embeddings"):
            raw["embeddings"][0][field.split(".")[1]] = ["x"]
        elif field == "topic.file":
            raw["topic"] = {"label": "t", "file": ["x"]}
        elif field == "poles.file":
            raw["poles"] = {"file": ["x"]}
        else:
            raw["alignment"] = {"mode": "procrustes", "anchors": ["x"]}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert f"{field}: unreadable path" in err

    @pytest.mark.parametrize("bad", [[1], [["a"]], [""]])
    @pytest.mark.parametrize("key", ["topic", "words_a", "words_b"])
    def test_non_string_sweat_word(self, tmp_path, capsys, key, bad):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        if key == "topic":
            raw["topic"]["words"] = raw["topic"]["words"] + bad
        else:
            raw["poles"][key] = raw["poles"][key] + bad
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert "nonempty strings" in one_line_error(capsys, "config error:")

    @pytest.mark.parametrize("bad", [[1], [["a"]], [""]])
    @pytest.mark.parametrize("key", ["topic_x", "topic_y"])
    def test_non_string_weat_word(self, tmp_path, capsys, key, bad):
        fx = write_fixture(tmp_path)
        raw = weat_raw(fx, tmp_path)
        raw[key]["words"] = raw[key]["words"][:-1] + bad
        path = tmp_path / "weat_config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert f"{key}.words:" in err and "nonempty strings" in err


    def test_non_string_embedding_label(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["label"] = ["a"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: embeddings[0].label: required nonempty string\n")

    @pytest.mark.parametrize("key", ["label_a", "label_b"])
    def test_non_string_pole_label(self, tmp_path, capsys, key):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["poles"][key] = ["a"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert "pole labels must be nonempty strings" in one_line_error(
            capsys, "config error:")

    @pytest.mark.parametrize("key, value", [
        ("report", 5), ("report", "r\0.json"), ("cumulative_svg", ["x"]),
        ("detail_svg", 1.5),
    ])
    def test_non_string_output_path(self, tmp_path, capsys, key, value):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"][key] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert f"outputs.{key}: must be a path string" in one_line_error(
            capsys, "config error:")

    def test_lexicon_not_an_object_refine(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        lex = tmp_path / "lex.json"
        lex.write_text("5", encoding="utf-8")
        assert main([
            "refine", "--lexicon", str(lex),
            "--space1", str(fx["space1"]), "--space2", str(fx["space2"]),
            "--freq1", str(fx["freq1"]), "--freq2", str(fx["freq2"]),
            "--out", str(tmp_path / "refined.json"),
        ]) == 2
        err = one_line_error(capsys, "data error:")
        assert f"{lex}: lexicon must be a JSON object, got int" in err

    def test_lexicon_not_an_object_poles_file(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        lex = tmp_path / "lex.json"
        lex.write_text("5", encoding="utf-8")
        raw["poles"] = {"file": str(lex)}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert err.startswith(f"config error: poles.file: {lex}: lexicon must")


# JSON values of every type, for the config fuzz. Strings use an alphabet
# without "/" so that a fuzzed output path stays in the working directory;
# numbers stay small so that a fuzzed sample count cannot run for long.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf])
    | st.text(alphabet="ab. \x00é", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)

# Where the fuzz puts its value: a key path into the sweat or weat config.
# Each section appears whole and field by field; list entries stand for
# the labels, paths and words inside them.
FUZZ_TARGETS = [
    ("sweat", ()),
    ("sweat", ("embeddings",)),
    ("sweat", ("embeddings", 0)),
    ("sweat", ("embeddings", 0, "label")),
    ("sweat", ("embeddings", 1, "label")),
    ("sweat", ("embeddings", 0, "path")),
    ("sweat", ("embeddings", 1, "frequency_table")),
    ("sweat", ("topic",)),
    ("sweat", ("topic", "label")),
    ("sweat", ("topic", "words")),
    ("sweat", ("topic", "words", 0)),
    ("sweat", ("topic", "file")),
    ("sweat", ("poles",)),
    ("sweat", ("poles", "file")),
    ("sweat", ("poles", "label_a")),
    ("sweat", ("poles", "label_b")),
    ("sweat", ("poles", "words_a")),
    ("sweat", ("poles", "words_b", 0)),
    ("sweat", ("poles", "provenance")),
    ("sweat", ("alignment",)),
    ("sweat", ("alignment", "mode")),
    ("sweat", ("alignment", "anchors")),
    ("sweat", ("refinement",)),
    ("sweat", ("refinement", "enabled")),
    ("sweat", ("refinement", "zipf_threshold")),
    ("sweat", ("permutations",)),
    ("sweat", ("permutations", "mode")),
    ("sweat", ("permutations", "samples")),
    ("sweat", ("permutations", "seed")),
    ("sweat", ("permutations", "exact_limit")),
    ("sweat", ("tail",)),
    ("sweat", ("outputs",)),
    ("sweat", ("outputs", "report")),
    ("sweat", ("outputs", "cumulative_svg")),
    ("sweat", ("outputs", "detail_svg")),
    ("sweat", ("outputs", "plot_json")),
    ("weat", ("embeddings", 0, "label")),
    ("weat", ("topic_x",)),
    ("weat", ("topic_x", "label")),
    ("weat", ("topic_y", "words", 0)),
    ("weat", ("poles", "label_b")),
]

# The stderr prefix of each failing exit code.
EXIT_PREFIX = {1: "config error:", 2: "data error:", 3: "io error:"}


def _put(raw, keys, value):
    """``raw`` with the entry at ``keys`` replaced by ``value``."""
    if not keys:
        return value
    raw = copy.deepcopy(raw)
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return raw


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    fx = write_fixture(tmp_path)
    _, sweat = base_config(tmp_path, fx)
    sweat.update(alignment={"mode": "pre_aligned", "anchors": "auto"},
                 refinement={"enabled": False, "zipf_threshold": 5.0},
                 tail="directional")
    sweat["outputs"].update(cumulative_svg="cum.svg", detail_svg="det.svg",
                            plot_json=False)
    return tmp_path, {"sweat": sweat, "weat": weat_raw(fx, tmp_path)}


class TestConfigFuzz:
    """No config ends in a traceback: every run exits 0, 1, 2 or 3, and a
    failing run prints only its documented one-line messages."""

    @pytest.mark.parametrize("command, keys", FUZZ_TARGETS,
                             ids=[f"{c}:{'.'.join(map(str, k)) or 'config'}"
                                  for c, k in FUZZ_TARGETS])
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON_VALUES)
    def test_fuzzed_value(self, fuzz_inputs, monkeypatch, capsys, command,
                          keys, value):
        tmp_path, configs = fuzz_inputs
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(_put(configs[command], keys, value)),
                        encoding="utf-8")
        capsys.readouterr()
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if code:
            lines = err.splitlines()
            assert lines and all(
                line.startswith(EXIT_PREFIX[code]) for line in lines), err
            assert code == 1 or len(lines) == 1, err
