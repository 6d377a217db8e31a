import copy
import errno
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sweatkit.association as association
import sweatkit.embeddings as embeddings
from sweatkit import load_word2vec_text, save_word2vec_text
from sweatkit.cli import (_FLAGS, UNDERDETERMINED_WARNING, main,
                          validate_config)
from sweatkit.errors import ConfigError

from conftest import (
    assert_no_children,
    failing_writes,
    feed_fifo,
    polarized_fixture,
    random_space,
    use_cpus,
)


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


@pytest.fixture
def no_load(monkeypatch):
    """Loading a space fails the test: the run must stop before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a space was loaded")

    for name in ("load_word2vec_pair", "load_word2vec_text"):
        monkeypatch.setattr(f"sweatkit.cli.{name}", refuse)


class TestValidateConfig:
    def test_readme_config_example(self, tmp_path, monkeypatch):
        # Stub inputs: the config's checks read only the lexicon.
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("### Config example\n", 1)[1]
        raw = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        monkeypatch.chdir(tmp_path)
        for entry in raw["embeddings"]:
            for key in ("path", "frequency_table"):
                (tmp_path / entry[key]).write_text("", encoding="utf-8")
        (tmp_path / raw["poles"]["file"]).write_text(json.dumps({
            "label_a": "pos", "label_b": "neg", "words_a": ["good"],
            "words_b": ["bad"]}), encoding="utf-8")
        (tmp_path / "config.json").write_text(json.dumps(raw),
                                              encoding="utf-8")
        echo = validate_config("config.json").echo()
        for key in ("alignment", "refinement", "permutations", "tail",
                    "outputs"):
            assert echo[key] == raw[key], key

    def test_minimal_config_defaults(self, tmp_path):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        cfg = validate_config(str(path))
        assert cfg.alignment_mode == "pre_aligned"
        assert cfg.zipf_threshold == 5.0
        assert cfg.tail == "directional"

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

    def test_one_message_is_a_list_of_one(self):
        assert ConfigError("one").errors == ["one"]

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            validate_config(str(path))


def test_sweat_run_imports_no_numpy_ma(tmp_path):
    # numpy.ma took about 13.5 ms to import; nothing a run does needs it.
    fx = write_fixture(tmp_path)
    path, raw = base_config(tmp_path, fx)
    raw["outputs"]["cumulative_svg"] = str(tmp_path / "cum.svg")
    raw["outputs"]["detail_svg"] = str(tmp_path / "det.svg")
    path.write_text(json.dumps(raw), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(embeddings.__file__))
    code = ("import sys; from sweatkit.cli import main; "
            f"code = main(['sweat', '--config', {str(path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert (tmp_path / "det.svg").exists()
    assert out.splitlines()[-1] == "0 False"


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
        # The report's directory exists, but the report path is a directory.
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        (tmp_path / "r.json").mkdir()
        raw["outputs"]["report"] = str(tmp_path / "r.json")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 3
        assert "r.json" in one_line_error(capsys, "io error:")

    @pytest.mark.parametrize("key", ["report", "cumulative_svg",
                                     "detail_svg"])
    def test_output_without_its_directory_is_config_error(
            self, tmp_path, capsys, no_load, key):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"][key] = str(tmp_path / "x" / "out")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: outputs.{key}: directory '{tmp_path / 'x'}' "
            "does not exist\n")

    def test_out_dir_takes_each_output_by_name(self, tmp_path, capsys,
                                               monkeypatch):
        # Output directories that do not exist are not used: each output
        # goes to --out-dir under its own file name.
        monkeypatch.chdir(tmp_path)
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"] = {"report": "sub/r.json", "cumulative_svg": "x/c.svg",
                          "detail_svg": "d.svg"}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path), "--out-dir",
                     "outd"]) == 0
        assert sorted(os.listdir("outd")) == ["c.svg", "d.svg", "r.json"]
        assert not any(os.path.exists(name) for name in ("sub", "x", "d.svg"))

    def test_refinement_needs_frequency_tables(self, tmp_path, capsys,
                                               no_load):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        for entry in raw["embeddings"]:
            del entry["frequency_table"]
        raw["refinement"] = {"enabled": True}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "".join(
            f"config error: embeddings[{i}].frequency_table: required when "
            "refinement is enabled\n" for i in range(2))

    def test_refinement_emptying_a_pole_is_data_error(self, tmp_path,
                                                      capsys):
        # Every word of pole B is rare in space 1's table: Zipf 3 < 5.
        fx = write_fixture(tmp_path)
        lines = fx["freq1"].read_text(encoding="utf-8").splitlines()
        fx["freq1"].write_text("".join(
            line.partition("\t")[0] + "\t1\n" if line.startswith("bad")
            else line + "\n" for line in lines), encoding="utf-8")
        path, raw = base_config(tmp_path, fx)
        raw["refinement"] = {"enabled": True}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 2
        assert one_line_error(capsys, "data error:") == (
            "data error: refinement emptied a pole wordset; cannot run the "
            "test\n")

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
        assert err == ("warning: no more distinct anchors than dimensions; "
                       "rotation is underdetermined\n")

    def test_one_association_pass_per_space(self, tmp_path, capsys,
                                             monkeypatch):
        import sweatkit.cli
        import sweatkit.viz

        spaces = []
        real = association.associations

        def spy(words, space, poles):
            spaces.append(space.label)
            return real(words, space, poles)

        for module in (association, sweatkit.viz, sweatkit.cli):
            if hasattr(module, "associations"):
                monkeypatch.setattr(module, "associations", spy)
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"]["cumulative_svg"] = str(tmp_path / "cum.svg")
        raw["outputs"]["detail_svg"] = str(tmp_path / "det.svg")
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        assert spaces == ["S1", "S2"]

    def test_plot_json_key_is_ignored(self, tmp_path, capsys):
        # The plot data is the report's "plots": no other file holds it.
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"]["plot_json"] = True
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        assert [p.name for p in tmp_path.glob("report*")] == ["report.json"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["outputs"] == {
            "report": str(tmp_path / "report.json"), "cumulative_svg": None,
            "detail_svg": None}


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    return err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_pipe_header_sizes_nothing(tmp_path, capsys):
    # A pipe has no size to bound its header by; the matrix grows with the
    # rows read, so a huge header is the validator's error, not a failed
    # allocation.
    fifo, writer = feed_fifo(tmp_path, "1000000000000 100\na 1\n")
    try:
        assert main(["inspect", "--embeddings", str(fifo)]) == 2
    finally:
        writer.join()
    err = one_line_error(capsys, "data error:")
    assert err == f"data error: {fifo}:2: expected 101 fields, got 2\n"


@pytest.mark.filterwarnings("error")
def test_norm_overflow_is_data_error(tmp_path, capsys):
    # Finite components whose squares pass the float range.
    path = tmp_path / "v.txt"
    path.write_text("3 2\nb 1 0\na 1e200 1e200\nc 0 -1e300\n", encoding="utf-8")
    assert main(["inspect", "--embeddings", str(path)]) == 2
    err = one_line_error(capsys, "data error:")
    assert err == "data error: vector norm overflows for words: a, c\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, message", [
    # Nonzero components whose squares all underflow.
    ("a 1e-200 1e-200", "vector norm underflows for words: a"),
    ("a 0 0", "{path}:3: zero-norm vector for 'a'"),
], ids=["underflow", "zero"])
def test_norm_reading_zero_is_data_error(tmp_path, capsys, row, message):
    path = tmp_path / "v.txt"
    path.write_text(f"2 2\nb 1 0\n{row}\n", encoding="utf-8")
    assert main(["inspect", "--embeddings", str(path)]) == 2
    err = one_line_error(capsys, "data error:")
    assert err == f"data error: {message.format(path=path)}\n"


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


class TestMethodAtConfigTime:
    """The topic size fixes the test ``auto`` runs when the config is read,
    so a rule of that test fails before any space is loaded."""

    def auto_config(self, tmp_path, n):
        fx = write_fixture(tmp_path)
        words = (fx["topic"].words + fx["control"].words)[:n]
        return base_config(tmp_path, fx, topic={"label": "t", "words": words},
                           permutations={"mode": "auto", "samples": 1})[0]

    def test_auto_past_sixteen_words_needs_montecarlo_samples(
            self, tmp_path, capsys, no_load):
        path = self.auto_config(tmp_path, 17)
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: permutations.samples: auto mode with more than 16 "
            "topic words needs at least 100 samples, got 1\n")

    def test_auto_runs_exact_through_sixteen_words(self, tmp_path):
        path = self.auto_config(tmp_path, 12)
        assert main(["sweat", "--config", str(path)]) == 0
        result = json.loads((tmp_path / "report.json").read_text())["result"]
        assert (result["method"], result["n_permutations"]) == (
            "exact", math.comb(24, 12))

    def test_weat_targets_of_unequal_size(self, tmp_path, capsys, no_load):
        fx = write_fixture(tmp_path)
        raw = weat_raw(fx, tmp_path)
        raw["topic_x"]["words"] = fx["topic"].words[:3]
        raw["topic_y"]["words"] = fx["control"].words[:4]
        path = tmp_path / "weat.config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: topic_x/topic_y: target wordsets must be of equal "
            "size, got 3 and 4\n")

    @pytest.mark.parametrize("command", ["sweat", "weat"])
    def test_exact_past_24_words_is_config_error(self, tmp_path, capsys,
                                                 no_load, command):
        # 2^25 subset sums per half would be built; the config says so
        # before any file is read.
        fx = write_fixture(tmp_path)
        words = [f"w{i}" for i in range(50)]
        if command == "sweat":
            path, raw = base_config(tmp_path, fx)
            raw["topic"]["words"] = words[:25]
        else:
            raw = weat_raw(fx, tmp_path)
            raw["topic_x"]["words"] = words[:25]
            raw["topic_y"]["words"] = words[25:]
            path = tmp_path / "weat.config.json"
        raw["permutations"] = {"mode": "exact"}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: permutations.mode: exact needs at most 24 topic "
            "words, got 25; use montecarlo\n")

    def test_weat_without_topic_x(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        raw = weat_raw(fx, tmp_path)
        del raw["topic_x"]
        path = tmp_path / "weat.config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: topic_x: required\n")

    def test_exact_limit_is_ignored(self, tmp_path):
        # Configs from before the size rule may still set it.
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx, permutations={
            "mode": "auto", "samples": 500, "exact_limit": 1})
        cfg = validate_config(str(path))
        assert cfg.echo()["permutations"] == {
            "mode": "auto", "samples": 500, "seed": 0}


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


class TestReportMeta:
    """``meta`` records the BLAS library, the thread variables the run saw
    and the process's peak memory; the report outside ``meta`` does not
    depend on them."""

    THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    KEYS = ["alignment", "command", "config", "meta", "plots", "refinement",
            "result", "schema_version", "toolkit_version"]

    def run(self, tmp_path, command):
        fx = write_fixture(tmp_path)
        if command == "sweat":
            path, _ = base_config(tmp_path, fx)
            report = tmp_path / "report.json"
        else:
            path = tmp_path / "weat.config.json"
            path.write_text(json.dumps(weat_raw(fx, tmp_path)),
                            encoding="utf-8")
            report = tmp_path / "weat.json"
        assert main([command, "--config", str(path)]) == 0
        return json.loads(report.read_text())

    @pytest.mark.parametrize("command", ["sweat", "weat"])
    def test_keys_present(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        report = self.run(tmp_path, command)
        assert sorted(report) == self.KEYS
        meta = report["meta"]
        assert sorted(meta) == ["blas", "created", "peak_rss_mb", "timings"]
        assert sorted(meta["blas"]) == ["name", "threads", "version"]
        assert sorted(meta["blas"]["threads"]) == sorted(self.THREADS)
        assert meta["blas"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert meta["blas"]["threads"]["MKL_NUM_THREADS"] is None
        if os.path.exists("/proc/self/status"):
            assert meta["peak_rss_mb"] > 1.0

    @pytest.mark.parametrize("command", ["sweat", "weat"])
    def test_outside_meta_unchanged(self, tmp_path, capsys, monkeypatch,
                                    command):
        # The variables are read after numpy's BLAS has started, so only
        # what is recorded differs between the runs.
        reports = []
        for threads in ("1", "3"):
            for var in self.THREADS:
                monkeypatch.setenv(var, threads)
            reports.append(self.run(tmp_path, command))
        metas = [r.pop("meta") for r in reports]
        assert reports[0] == reports[1]
        assert [m["blas"]["threads"] for m in metas] == [
            dict.fromkeys(self.THREADS, t) for t in ("1", "3")]

    def test_align_report_keys(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        fx = write_fixture(tmp_path)
        argv = pair_argv("align", tmp_path, fx, fx["space1"], fx["space2"])
        assert main(argv) == 0
        report = json.loads((tmp_path / "out" / "align.json").read_text())
        assert sorted(report) == ["meta", "n_anchors", "residual",
                                  "source_label", "target_label",
                                  "underdetermined"]
        meta = report["meta"]
        assert sorted(meta) == ["blas", "peak_rss_mb"]
        assert sorted(meta["blas"]) == ["name", "threads", "version"]
        assert meta["blas"]["threads"]["OPENBLAS_NUM_THREADS"] == "2"
        if os.path.exists("/proc/self/status"):
            assert meta["peak_rss_mb"] > 1.0

    def test_absent_sources_read_null(self, tmp_path, capsys, monkeypatch):
        import builtins

        import sweatkit.cli

        def no_proc(path, *args, **kwargs):
            if path == "/proc/self/status":
                raise FileNotFoundError(path)
            return builtins.open(path, *args, **kwargs)

        def no_config(*args, **kwargs):
            raise TypeError("show_config() got an unexpected keyword")

        monkeypatch.setattr(sweatkit.cli, "open", no_proc, raising=False)
        monkeypatch.setattr(sweatkit.cli.np, "show_config", no_config)
        meta = self.run(tmp_path, "sweat")["meta"]
        assert meta["peak_rss_mb"] is None
        assert (meta["blas"]["name"], meta["blas"]["version"]) == (None, None)


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
        assert one_line_error(capsys, "data error:").startswith(
            f"data error: {report}: invalid JSON: ")

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

    def test_inspect_prints_the_frequency_table_size(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        assert main(["inspect", "--embeddings", str(fx["space1"]), "--freq",
                     str(fx["freq1"])]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "# frequency_table words=40 total_tokens=1000000"
        assert len(out) == 2 + 40

    def test_inspect_prints_nothing_unless_its_table_loads(self, tmp_path,
                                                          capsys):
        fx = write_fixture(tmp_path)
        text = fx["freq1"].read_text(encoding="utf-8")
        fx["freq1"].write_text(text.split("\n", 1)[1], encoding="utf-8")
        assert main(["inspect", "--embeddings", str(fx["space1"]), "--freq",
                     str(fx["freq1"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"data error: {fx['freq1']}: missing "
                       "'#total<TAB><total_tokens>' header\n")

    def test_inspect_prints_the_norm_of_each_row(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        space = load_word2vec_text(str(fx["space1"]))
        assert main(["inspect", "--embeddings", str(fx["space1"])]) == 0
        norms = np.linalg.norm(space.matrix, axis=1)
        assert capsys.readouterr().out == "".join(
            [f"# label=space1 vocab={len(space)} dim={space.dimension}\n"]
            + [f"{w}\t{n:.6f}\n" for w, n in zip(space.words, norms)])

    @pytest.mark.parametrize("text, where", [
        ("1 2\na 1_0.5 2\n", ":2: non-numeric component"),
        ("1 2\na \u0663 2\n", ":2: non-numeric component"),
        ("+1 +2\na 1 2\n", ":1: non-integer header fields"),
    ], ids=["underscore", "other_digit", "plus_header"])
    def test_inspect_number_only_float_reads(self, tmp_path, capsys, text,
                                             where):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["inspect", "--embeddings", str(path)]) == 2
        assert one_line_error(capsys, "data error:") == (
            f"data error: {path}{where}\n")


PAIR_COMMANDS = ("sweat", "align", "refine", "candidates")
NAN_ROW = "3 3\ncat 1 0 0\ndog 0 nan 0\nfox 0 0 1\n"
REPEATED_WORD = "3 3\ncat 1 0 0\ndog 0 1 0\ncat 0 0 1\n"


def pair_argv(command, tmp_path, fx, space1, space2):
    """Arguments that make ``command`` read ``space1`` and ``space2`` and
    write its outputs, if any, into ``tmp_path / "out"``."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    if command == "sweat":
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["path"] = str(space1)
        raw["embeddings"][1]["path"] = str(space2)
        raw["alignment"] = {"mode": "procrustes", "anchors": "auto"}
        raw["outputs"]["report"] = str(out / "report.json")
        path.write_text(json.dumps(raw), encoding="utf-8")
        return ["sweat", "--config", str(path)]
    if command == "align":
        return ["align", "--source", str(space1), "--target", str(space2),
                "--out", str(out / "aligned.txt"),
                "--report", str(out / "align.json")]
    tables = ["--freq1", str(fx["freq1"]), "--freq2", str(fx["freq2"])]
    spaces = ["--space1", str(space1), "--space2", str(space2)]
    if command == "candidates":
        return ["candidates", *spaces, *tables, "--top", "5"]
    lexicon = tmp_path / "lex.json"
    lexicon.write_text(json.dumps({
        "label_a": "pos", "label_b": "neg", "words_a": fx["poles"].words_a,
        "words_b": fx["poles"].words_b}), encoding="utf-8")
    return ["refine", "--lexicon", str(lexicon), *spaces, *tables,
            "--out", str(out / "refined.json")]


def collision_inputs(tmp_path, fx):
    """A sweat config reading a topic file, a lexicon file and an anchors
    file besides its spaces and tables, and each input by key path."""
    path, raw = base_config(tmp_path, fx)
    topic, poles, anchors = (tmp_path / n for n in ("topic.txt", "poles.json",
                                                    "anchors.txt"))
    topic.write_text("\n".join(fx["topic"].words) + "\n", encoding="utf-8")
    poles.write_text(json.dumps(raw["poles"]), encoding="utf-8")
    anchors.write_text("\n".join(fx["poles"].words_a) + "\n",
                       encoding="utf-8")
    raw["topic"] = {"label": "t", "file": str(topic)}
    raw["poles"] = {"file": str(poles)}
    raw["alignment"] = {"mode": "procrustes", "anchors": str(anchors)}
    inputs = {"--config": path, "topic.file": topic, "poles.file": poles,
              "alignment.anchors": anchors}
    for i, entry in enumerate(raw["embeddings"]):
        inputs[f"embeddings[{i}].path"] = entry["path"]
        inputs[f"embeddings[{i}].frequency_table"] = entry["frequency_table"]
    return path, raw, inputs


def snapshot(folder):
    """The bytes of each file in ``folder``, by name."""
    return {p.name: p.read_bytes() for p in folder.iterdir() if p.is_file()}


class TestOutputCollisions:
    """An output that would replace an input, or another output, is one
    config error line (exit 1), raised before any space is loaded, and
    leaves every file as it was."""

    @pytest.mark.parametrize("key", ["report", "cumulative_svg",
                                     "detail_svg"])
    @pytest.mark.parametrize("source", [
        "--config", "embeddings[0].path", "embeddings[1].path",
        "embeddings[0].frequency_table", "embeddings[1].frequency_table",
        "topic.file", "poles.file", "alignment.anchors"])
    def test_output_naming_an_input(self, tmp_path, capsys, no_load, key,
                                    source):
        fx = write_fixture(tmp_path)
        path, raw, inputs = collision_inputs(tmp_path, fx)
        raw["outputs"][key] = str(inputs[source])
        path.write_text(json.dumps(raw), encoding="utf-8")
        before = snapshot(tmp_path)
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: outputs.{key}: '{inputs[source]}' names the "
            f"same file as {source}\n")
        assert snapshot(tmp_path) == before

    def test_other_names_of_an_input(self, tmp_path, capsys, no_load,
                                     monkeypatch):
        # A relative path, a symbolic link and a hard link to a space.
        monkeypatch.chdir(tmp_path)
        fx = write_fixture(tmp_path)
        os.symlink(fx["space1"], tmp_path / "soft.txt")
        os.link(fx["space2"], tmp_path / "hard.txt")
        path, raw = base_config(tmp_path, fx)
        raw["outputs"] = {"report": "./sub/../space1.txt",
                          "cumulative_svg": "soft.txt",
                          "detail_svg": "hard.txt"}
        (tmp_path / "sub").mkdir()
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: outputs.report: './sub/../space1.txt' names the "
            "same file as embeddings[0].path\n"
            "config error: outputs.cumulative_svg: 'soft.txt' names the "
            "same file as embeddings[0].path\n"
            "config error: outputs.detail_svg: 'hard.txt' names the same "
            "file as embeddings[1].path\n")

    def test_two_outputs_naming_one_file(self, tmp_path, capsys, no_load):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        same = str(tmp_path / "same.out")
        raw["outputs"] = {"report": same, "cumulative_svg": same}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: outputs.cumulative_svg: '{same}' names the same "
            "file as outputs.report\n")
        assert not os.path.exists(same)

    def test_out_dir_file_names_collide(self, tmp_path, capsys, no_load,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["outputs"] = {"report": "r.json", "cumulative_svg": "a/plot.svg",
                          "detail_svg": "b/plot.svg"}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path), "--out-dir",
                     "outd"]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: outputs.detail_svg: 'outd/plot.svg' names the "
            "same file as outputs.cumulative_svg\n")
        assert not os.path.exists("outd")

    def test_weat_report_naming_its_space(self, tmp_path, capsys, no_load):
        fx = write_fixture(tmp_path)
        raw = weat_raw(fx, tmp_path)
        raw["outputs"]["report"] = str(fx["space1"])
        path = tmp_path / "weat.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: outputs.report: '{fx['space1']}' names the same "
            "file as embeddings[0].path\n")

    @pytest.mark.parametrize("flag, other", [
        ("--out", "--source"), ("--out", "--target"), ("--out", "--anchors"),
        ("--report", "--source"), ("--report", "--anchors"),
        ("--report", "--out")])
    def test_align(self, tmp_path, capsys, no_load, flag, other):
        fx = write_fixture(tmp_path)
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("\n".join(fx["poles"].words_a) + "\n",
                           encoding="utf-8")
        args = {"--source": str(fx["space2"]), "--target": str(fx["space1"]),
                "--anchors": str(anchors), "--out": str(tmp_path / "al.txt"),
                "--report": str(tmp_path / "al.json")}
        args[flag] = args[other]
        before = snapshot(tmp_path)
        assert main(["align", *(x for kv in args.items() for x in kv)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: {flag}: '{args[flag]}' names the same file as "
            f"{other}\n")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("other", ["--lexicon", "--space1", "--space2",
                                       "--freq1", "--freq2"])
    def test_refine(self, tmp_path, capsys, no_load, other):
        fx = write_fixture(tmp_path)
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(json.dumps({
            "label_a": "pos", "label_b": "neg",
            "words_a": fx["poles"].words_a, "words_b": fx["poles"].words_b}),
            encoding="utf-8")
        args = {"--lexicon": str(lexicon), "--space1": str(fx["space1"]),
                "--space2": str(fx["space2"]), "--freq1": str(fx["freq1"]),
                "--freq2": str(fx["freq2"])}
        args["--out"] = args[other]
        before = snapshot(tmp_path)
        assert main(["refine", *(x for kv in args.items() for x in kv)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: --out: '{args[other]}' names the same file as "
            f"{other}\n")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("flag, other", [
        ("--cumulative", "--report"), ("--detail", "--report"),
        ("--detail", "--cumulative")])
    def test_plot(self, tmp_path, capsys, flag, other):
        report = tmp_path / "report.json"
        report.write_text("{}", encoding="utf-8")
        args = {"--report": str(report), "--cumulative": str(tmp_path / "c"),
                "--detail": str(tmp_path / "d")}
        args[flag] = args[other]
        assert main(["plot", *(x for kv in args.items() for x in kv)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: {flag}: '{args[flag]}' names the same file as "
            f"{other}\n")
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="needs a device")
    def test_every_output_may_be_dev_null(self, tmp_path, capsys):
        # The report is written through a link to /dev/null.
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        os.symlink("/dev/null", tmp_path / "r.json")
        raw["outputs"] = {"report": str(tmp_path / "r.json"),
                          "cumulative_svg": "/dev/null",
                          "detail_svg": "/dev/null"}
        path.write_text(json.dumps(raw), encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        assert main(["sweat", "--config", str(path)]) == 0
        assert sorted(os.listdir(tmp_path)) == before
        assert os.path.islink(tmp_path / "r.json")
        assert main(["align", "--source", str(fx["space2"]), "--target",
                     str(fx["space1"]), "--out", "/dev/null", "--report",
                     "/dev/null"]) == 0


class TestWholeWrites:
    """A report or SVG whose write fails part-way leaves the file it
    replaces as it was, and no new file beside it."""

    @pytest.mark.parametrize("output", ["report", "cumulative_svg",
                                        "detail_svg"])
    def test_failed_write_leaves_the_old_file(self, tmp_path, capsys,
                                              monkeypatch, output):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        out = tmp_path / "out"
        out.mkdir()
        # The first file written is the one under test.
        raw["outputs"] = {"report": str(out / "report.json")}
        if output != "report":
            raw["outputs"][output] = str(out / "chart.svg")
            name = "chart.svg"
        else:
            name = "report.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        (out / name).write_bytes(b"previous\n")
        failing_writes(monkeypatch)
        assert main(["sweat", "--config", str(path)]) == 3
        assert one_line_error(capsys, "io error:") == (
            f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert snapshot(out) == {name: b"previous\n"}
        assert os.listdir(out) == [name]


class TestConcurrentLoad:
    """Every command that reads two spaces prints, writes and exits as with
    two serial loads when the second is read in a forked process, and
    leaves no process behind."""

    @staticmethod
    def run(monkeypatch, capsys, tmp_path, argv, concurrent):
        """Exit code, stdout, stderr and outputs (reports without ``meta``)
        of one run; the outputs are removed."""
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES",
                            0 if concurrent else 1 << 62)
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert_no_children()
        written = {}
        for path in sorted((tmp_path / "out").iterdir()):
            if path.suffix == ".json":
                doc = json.loads(path.read_text(encoding="utf-8"))
                doc.pop("meta", None)
                written[path.name] = doc
            else:
                written[path.name] = path.read_bytes()
            path.unlink()
        return code, out, err, written

    def compare(self, monkeypatch, capsys, tmp_path, forks, argv):
        serial = self.run(monkeypatch, capsys, tmp_path, argv,
                          concurrent=False)
        assert forks == []
        together = self.run(monkeypatch, capsys, tmp_path, argv,
                            concurrent=True)
        assert len(forks) == 1
        assert together == serial
        return together

    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    def test_same_output(self, tmp_path, monkeypatch, capsys, forks,
                         command):
        fx = write_fixture(tmp_path)
        argv = pair_argv(command, tmp_path, fx, fx["space1"], fx["space2"])
        code, out, err, written = self.compare(monkeypatch, capsys,
                                               tmp_path, forks, argv)
        assert code == 0 and out
        assert len(written) == {"sweat": 1, "align": 2, "refine": 1,
                                "candidates": 0}[command]

    @pytest.mark.parametrize("where", ["first", "second", "both"])
    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    def test_same_error(self, tmp_path, monkeypatch, capsys, forks, command,
                        where):
        fx = write_fixture(tmp_path)
        bad1, bad2 = tmp_path / "bad1.txt", tmp_path / "bad2.txt"
        bad1.write_text(NAN_ROW, encoding="utf-8")
        bad2.write_text(REPEATED_WORD, encoding="utf-8")
        space1 = fx["space1"] if where == "second" else bad1
        space2 = fx["space2"] if where == "first" else bad2
        argv = pair_argv(command, tmp_path, fx, space1, space2)
        code, out, err, written = self.compare(monkeypatch, capsys,
                                               tmp_path, forks, argv)
        assert (code, out, written) == (2, "", {})
        # The first file's error wins when both are bad.
        assert err == (f"data error: {bad1}:3: non-finite component\n"
                       if where != "second" else
                       f"data error: {bad2}:4: duplicate word 'cat'\n")

    @pytest.mark.parametrize("command", ["align", "refine", "candidates"])
    def test_missing_second_file(self, tmp_path, monkeypatch, capsys, forks,
                                 command):
        # A missing file is found before any load, so no reader is forked.
        fx = write_fixture(tmp_path)
        gone = tmp_path / "gone.txt"
        argv = pair_argv(command, tmp_path, fx, fx["space1"], gone)
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(embeddings, "_CONCURRENT_BYTES", 0)
        assert main(argv) == 1
        flag = "--target" if command == "align" else "--space2"
        assert one_line_error(capsys, "config error:") == (
            f"config error: {flag}: unreadable path '{gone}'\n")
        assert forks == []
        assert_no_children()

    def test_killed_reader_is_io_error(self, tmp_path, monkeypatch, capsys,
                                       forks):
        fx = write_fixture(tmp_path)
        read = embeddings._read_word2vec_text

        def killed(path):
            if path == str(fx["space2"]):
                os.kill(os.getpid(), signal.SIGKILL)
            return read(path)

        monkeypatch.setattr(embeddings, "_read_word2vec_text", killed)
        argv = pair_argv("align", tmp_path, fx, fx["space1"], fx["space2"])
        code, out, err, written = self.run(monkeypatch, capsys, tmp_path,
                                           argv, concurrent=True)
        assert (code, out, written) == (3, "", {})
        assert err == (f"io error: {fx['space2']}: the process reading it "
                       "ended without a result\n")
        assert len(forks) == 1


@pytest.mark.parametrize("command", ["refine", "candidates", "sweat"])
def test_frequency_table_of_huge_numbers(tmp_path, capsys, command):
    # A #total whose shares underflow still scores; a count past int()'s
    # digit limit is one data error line.
    fx = write_fixture(tmp_path)
    text = fx["freq1"].read_text(encoding="utf-8")
    fx["freq1"].write_text(text.replace("#total\t1000000\n",
                                        f"#total\t{10**400}\n"),
                           encoding="utf-8")
    argv = pair_argv(command, tmp_path, fx, fx["space1"], fx["space2"])
    assert main(argv) == 0
    capsys.readouterr()
    fx["freq1"].write_text(text + "huge\t" + "9" * 5000 + "\n",
                           encoding="utf-8")
    assert main(argv) == 2
    line = len(text.splitlines()) + 1
    assert one_line_error(capsys, "data error:") == (
        f"data error: {fx['freq1']}:{line}: count of 5000 digits is too long "
        "to read\n")


def test_frequency_count_of_other_digits(tmp_path, capsys):
    # int() reads "1_000" as 1000; the table takes ASCII digits only.
    fx = write_fixture(tmp_path)
    text = fx["freq1"].read_text(encoding="utf-8")
    fx["freq1"].write_text(text + "other\t1_000\n", encoding="utf-8")
    argv = pair_argv("refine", tmp_path, fx, fx["space1"], fx["space2"])
    assert main(argv) == 2
    line = len(text.splitlines()) + 1
    assert one_line_error(capsys, "data error:") == (
        f"data error: {fx['freq1']}:{line}: non-integer count\n")


class TestSweatWiring:
    """``sweat`` maps space 2 onto space 1, and refines with each table as
    its own space's."""

    @staticmethod
    def report(tmp_path):
        fx = write_fixture(tmp_path)
        space1 = load_word2vec_text(str(fx["space1"]))
        q, r = np.linalg.qr(np.random.default_rng(0).normal(size=(10, 10)))
        rotated = embeddings.EmbeddingSpace.from_rows(
            "S2", space1.words, space1.matrix @ (q * np.sign(np.diag(r))))
        save_word2vec_text(rotated, str(fx["space2"]))
        # Zipf 3 in table 1 only.
        text = fx["freq1"].read_text(encoding="utf-8")
        fx["freq1"].write_text(text.replace("good0\t1000\n", "good0\t1\n"),
                               encoding="utf-8")
        path, raw = base_config(tmp_path, fx)
        raw["alignment"] = {"mode": "procrustes", "anchors": "auto"}
        raw["refinement"] = {"enabled": True, "zipf_threshold": 5.0}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        return json.loads((tmp_path / "report.json").read_text())

    def test_space2_is_aligned_onto_space1(self, tmp_path, capsys):
        alignment = self.report(tmp_path)["alignment"]
        assert (alignment["source_label"], alignment["target_label"]) == (
            "S2", "S1")

    def test_table1_scores_space1(self, tmp_path, capsys):
        refinement = self.report(tmp_path)["refinement"]
        assert refinement["rejected"] == [["good0", "low_zipf_1"]]


class TestByteOrderMarkInWordLists:
    """One UTF-8 byte order mark at the start of a word list is skipped."""

    def test_topic_file(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        topic = tmp_path / "topic.txt"
        topic.write_text("\ufeff" + "\n".join(fx["topic"].words) + "\n",
                         encoding="utf-8")
        path, raw = base_config(tmp_path, fx)
        raw["topic"] = {"label": "t", "file": str(topic)}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["topic"]["words"] == list(fx["topic"].words)

    def test_anchors_file_of_align(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("\ufeffctrl0\r\nctrl1\r\n", encoding="utf-8")
        assert main(["align", "--source", str(fx["space2"]),
                     "--target", str(fx["space1"]), "--anchors", str(anchors),
                     "--out", str(tmp_path / "aligned.txt")]) == 0
        out, err = capsys.readouterr()
        assert "with 2 anchors" in out
        assert err == UNDERDETERMINED_WARNING + "\n"

    def test_anchors_file_of_config(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("\ufeffctrl0\nctrl1\n", encoding="utf-8")
        path, raw = base_config(tmp_path, fx)
        raw["alignment"] = {"mode": "procrustes", "anchors": str(anchors)}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        assert capsys.readouterr().err == UNDERDETERMINED_WARNING + "\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["alignment"]["n_anchors"] == 2

    def test_only_the_first_mark_is_skipped(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("\ufeffctrl0\n\ufeffctrl1\n", encoding="utf-8")
        assert main(["align", "--source", str(fx["space2"]),
                     "--target", str(fx["space1"]), "--anchors", str(anchors),
                     "--out", str(tmp_path / "aligned.txt")]) == 2
        assert "\ufeffctrl1" in one_line_error(capsys, "data error:")


def write_lexicon(path, fx, mark=""):
    """The fixture's poles as a lexicon file, after ``mark``."""
    path.write_text(mark + json.dumps({
        "label_a": fx["poles"].label_a, "label_b": fx["poles"].label_b,
        "words_a": fx["poles"].words_a, "words_b": fx["poles"].words_b}),
        encoding="utf-8")
    return path


class TestByteOrderMarkInJson:
    """One UTF-8 byte order mark at the start of a JSON file is skipped:
    the config, a lexicon and the report given to ``plot``."""

    def test_config(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        path.write_text("\ufeff" + json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["topic"]["words"] == raw["topic"]["words"]

    def test_poles_file(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        lexicon = write_lexicon(tmp_path / "lex.json", fx, "\ufeff")
        path, _ = base_config(tmp_path, fx, poles={"file": str(lexicon)})
        assert main(["sweat", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["poles"]["words_b"] == list(
            fx["poles"].words_b)

    def test_refine_lexicon(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        outs = []
        for mark in ("", "\ufeff"):
            lexicon = write_lexicon(tmp_path / f"lex{len(mark)}.json", fx,
                                    mark)
            outs.append(tmp_path / f"out{len(mark)}.json")
            assert main(["refine", "--lexicon", str(lexicon),
                         "--space1", str(fx["space1"]),
                         "--space2", str(fx["space2"]),
                         "--freq1", str(fx["freq1"]),
                         "--freq2", str(fx["freq2"]),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_plot_report(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        assert main(["sweat", "--config", str(path)]) == 0
        report = tmp_path / "report.json"
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
        for source in (report, marked):
            assert main(["plot", "--report", str(source), "--detail",
                         str(tmp_path / f"{source.stem}.svg")]) == 0
        assert ((tmp_path / "report.svg").read_bytes()
                == (tmp_path / "marked.svg").read_bytes())


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
        # The readers of bytes name the line of the byte that is not UTF-8.
        where = (f"{bad}:2" if target in ("embeddings", "frequency_table")
                 else bad)
        assert f"{where}: not valid UTF-8" in err

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
            at = f"topic.words[{len(raw['topic']['words'])}]"
            raw["topic"]["words"] = raw["topic"]["words"] + bad
        else:
            at = f"poles: {key}[{len(raw['poles'][key])}]"
            raw["poles"][key] = raw["poles"][key] + bad
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert f"{at}: must be a nonempty string, got {bad[0]!r}" in (
            one_line_error(capsys, "config error:"))

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
        at = f"{key}.words[{len(raw[key]['words']) - 1}]"
        assert f"{at}: must be a nonempty string, got {bad[0]!r}" in err


    def test_non_string_embedding_label(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["label"] = ["a"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: embeddings[0].label: must be a nonempty string, "
            "got ['a']\n")

    @pytest.mark.parametrize("key", ["label_a", "label_b"])
    def test_non_string_pole_label(self, tmp_path, capsys, key):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["poles"][key] = ["a"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: poles: {key}: must be a nonempty string, "
            "got ['a']\n")

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
    ("sweat", ("tail",)),
    ("sweat", ("outputs",)),
    ("sweat", ("outputs", "report")),
    ("sweat", ("outputs", "cumulative_svg")),
    ("sweat", ("outputs", "detail_svg")),
    ("sweat", ("outputs", "plot_json")),  # ignored, whatever it holds
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


def assert_documented_exit(code, err):
    """A failing run prints only lines with its exit code's prefix: exits 2
    and 3 exactly one, exit 1 one per config error."""
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.splitlines()
        assert lines and all(
            line.startswith(EXIT_PREFIX[code]) for line in lines), err
        assert code == 1 or len(lines) == 1, err


# Every character that str.splitlines breaks a line at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# JSON values whose strings hold line breaks.
LINE_BROKEN_VALUES = st.recursive(
    st.text(alphabet="ab" + LINE_BREAKS, min_size=1, max_size=4),
    lambda inner: st.lists(inner, min_size=1, max_size=3)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=3),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    fx = write_fixture(tmp_path)
    _, sweat = base_config(tmp_path, fx)
    sweat.update(alignment={"mode": "pre_aligned", "anchors": "auto"},
                 refinement={"enabled": False, "zipf_threshold": 5.0},
                 tail="directional")
    sweat["outputs"].update(cumulative_svg="cum.svg", detail_svg="det.svg")
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

    @pytest.mark.parametrize("command, keys", FUZZ_TARGETS,
                             ids=[f"{c}:{'.'.join(map(str, k)) or 'config'}"
                                  for c, k in FUZZ_TARGETS])
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=LINE_BROKEN_VALUES)
    def test_line_broken_value(self, fuzz_inputs, monkeypatch, capsys,
                               command, keys, value):
        """Strings holding line breaks still give one line per error."""
        tmp_path, configs = fuzz_inputs
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(_put(configs[command], keys, value)),
                        encoding="utf-8")
        capsys.readouterr()
        code = main([command, "--config", str(path)])
        assert_documented_exit(code, capsys.readouterr().err)


class TestOneLineErrors:
    """A message holding a line break still prints as one line."""

    def test_path_with_newline(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["path"] = "x\ny"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: embeddings[0].path: unreadable path 'x\\ny'\n")

    def test_missing_word_with_line_separator(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["topic"]["words"] = raw["topic"]["words"] + ["a\u2028b"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 2
        assert "missing words: a\\u2028b" in one_line_error(capsys,
                                                             "data error:")

    def test_tail_with_carriage_return(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx, tail="a\rb")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: tail: must be directional or two_sided, "
            "got 'a\\rb'\n")


# A JSON document that no reader can decode: nested past the recursion
# limit, or holding an integer past the digits Python converts.
UNREADABLE_JSON = [
    pytest.param("[" * 100_000, id="nested"),
    pytest.param("1" * 5_000, id="long_number", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="needs int()'s limit on digits")),
]


class TestInputBoundary:
    """Bad flags and unreadable JSON end in one line with their documented
    exit code, and ``--out-dir`` is made only once every check passed."""

    PAIR = ["--space1", "s1", "--space2", "s2", "--freq1", "f1",
            "--freq2", "f2"]

    @pytest.mark.parametrize("argv, message", [
        (["sweat", "--config", "c", "--tail", "bogus"],
         "argument --tail: invalid choice: 'bogus'"),
        (["sweat", "--config", "c", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["candidates", *PAIR, "--top", "x"],
         "argument --top: invalid int value: 'x'"),
        (["refine", "--lexicon", "l", *PAIR, "--out", "o",
          "--zipf-threshold", "abc"],
         "argument --zipf-threshold: invalid float value: 'abc'"),
        (["align", "--source", "a"],
         "the following arguments are required: --target, --out"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["weat", "--config", "c", "--extra"],
         "unrecognized arguments: --extra"),
        ([], "the following arguments are required: command"),
    ], ids=["choice", "int", "top", "float", "missing", "command",
            "unknown_flag", "nothing"])
    def test_parser_error_is_config_error(self, capsys, no_load, argv,
                                          message):
        assert main(argv) == 1
        assert one_line_error(capsys, "config error:").startswith(
            f"config error: {message}")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("doc", UNREADABLE_JSON)
    def test_unreadable_config(self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(doc, encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:").startswith(
            f"config error: cannot read config: {path}: invalid JSON: ")

    @pytest.mark.parametrize("doc", UNREADABLE_JSON)
    def test_unreadable_poles_file(self, tmp_path, capsys, no_load, doc):
        fx = write_fixture(tmp_path)
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(doc, encoding="utf-8")
        path, _ = base_config(tmp_path, fx, poles={"file": str(lexicon)})
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:").startswith(
            f"config error: poles.file: {lexicon}: invalid JSON: ")

    @pytest.mark.parametrize("doc", UNREADABLE_JSON)
    def test_unreadable_refine_lexicon(self, tmp_path, capsys, no_load, doc):
        fx = write_fixture(tmp_path)
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(doc, encoding="utf-8")
        pair = [x for key in ("space1", "space2", "freq1", "freq2")
                for x in (f"--{key}", str(fx[key]))]
        assert main(["refine", "--lexicon", str(lexicon), *pair,
                     "--out", str(tmp_path / "out.json")]) == 2
        assert one_line_error(capsys, "data error:").startswith(
            f"data error: {lexicon}: invalid JSON: ")

    @pytest.mark.parametrize("doc", UNREADABLE_JSON)
    def test_unreadable_plot_report(self, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(doc, encoding="utf-8")
        assert main(["plot", "--report", str(report),
                     "--cumulative", str(tmp_path / "cum.svg")]) == 2
        assert one_line_error(capsys, "data error:").startswith(
            f"data error: {report}: invalid JSON: ")
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("outputs, clash", [
        ({"report": "r.json", "cumulative_svg": "a/plot.svg",
          "detail_svg": "b/plot.svg"},
         "outputs.detail_svg: 'outd/sub/plot.svg' names the same file as "
         "outputs.cumulative_svg"),
    ], ids=["svgs"])
    def test_out_dir_made_only_once_checks_pass(self, tmp_path, capsys,
                                                monkeypatch, outputs, clash):
        monkeypatch.chdir(tmp_path)
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx, outputs=outputs)
        argv = ["sweat", "--config", str(path), "--out-dir", "outd/sub"]
        assert main(argv) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: {clash}\n")
        assert not os.path.exists("outd")
        raw["outputs"] = {"report": "r.json"}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(argv) == 0
        assert os.listdir("outd/sub") == ["r.json"]

    @pytest.mark.parametrize("out_dir", ["", "config.json", "link"])
    def test_out_dir_that_is_no_directory(self, tmp_path, capsys, no_load,
                                          monkeypatch, out_dir):
        # An empty path, a file, and a link to nothing.
        monkeypatch.chdir(tmp_path)
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        os.symlink("nowhere", "link")
        before = snapshot(tmp_path)
        assert main(["sweat", "--config", str(path), "--out-dir",
                     out_dir]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: --out-dir: must name a directory, got "
            f"{out_dir!r}\n")
        assert snapshot(tmp_path) == before
        assert os.readlink("link") == "nowhere"

    def test_out_dir_not_made_is_io_error(self, tmp_path, capsys, no_load,
                                          monkeypatch):
        def refuse(name, exist_ok=False):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  name)

        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx)
        monkeypatch.setattr(os, "makedirs", refuse)
        outd = tmp_path / "outd"
        assert main(["sweat", "--config", str(path), "--out-dir",
                     str(outd)]) == 3
        assert one_line_error(capsys, "io error:") == (
            f"io error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
            f"'{outd}'\n")

    def test_tail_flag_replaces_config_value_before_check(self, tmp_path,
                                                          capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx, tail="sideways")
        assert main(["sweat", "--config", str(path), "--tail",
                     "two_sided"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["tail"] == report["result"]["tail"] == (
            "two_sided")


def good_flags(command, tmp_path, fx, report) -> dict:
    """Each flag of a ``command`` line that runs, by name: it reads the
    fixture's files and writes into ``tmp_path / "out"``. ``report`` is
    the report of a sweat run, for ``plot``."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    words, lexicon = tmp_path / "words.txt", tmp_path / "lex.json"
    words.write_text("\n".join(fx["poles"].words_a) + "\n", encoding="utf-8")
    lexicon.write_text(json.dumps({
        "label_a": "pos", "label_b": "neg", "words_a": fx["poles"].words_a,
        "words_b": fx["poles"].words_b}), encoding="utf-8")
    path, _ = base_config(tmp_path, fx)
    (tmp_path / "report.json").write_text(json.dumps(report),
                                          encoding="utf-8")
    pair = {f"--{key}": fx[key] for key in ("space1", "space2", "freq1",
                                            "freq2")}
    return {
        "sweat": {"--config": path},
        "weat": {"--config": path},
        "align": {"--source": fx["space2"], "--target": fx["space1"],
                  "--anchors": words, "--out": out / "aligned.txt",
                  "--report": out / "align.json"},
        "refine": {"--lexicon": lexicon, **pair,
                   "--out": out / "refined.json"},
        "candidates": {**pair, "--stopwords": words},
        "plot": {"--report": tmp_path / "report.json",
                 "--cumulative": out / "cum.svg", "--detail": out / "det.svg"},
        "inspect": {"--embeddings": fx["space1"], "--freq": fx["freq1"]},
    }[command]


# Each flag of the table that names a file: command, flag, and whether the
# command writes the file.
FILE_FLAGS = [pytest.param(command, flag, flag in outputs,
                           id=f"{command}{flag}")
              for command, (_, inputs, outputs, _) in _FLAGS.items()
              for flag in (*inputs, *outputs)]


class TestFlagBoundary:
    """Every command checks the files its flags name before any load: each
    input missing, and each output's directory missing, is one config error
    line (exit 1), and nothing is written or printed."""

    @staticmethod
    def run(capsys, tmp_path, command, flags):
        before = snapshot(tmp_path)
        code = main([command, *(str(x) for kv in flags.items() for x in kv)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert snapshot(tmp_path) == before
        assert os.listdir(tmp_path / "out") == []
        return err

    @pytest.mark.parametrize("command, flag, written", FILE_FLAGS)
    def test_one_fault(self, tmp_path, capsys, no_load, plot_report,
                       command, flag, written):
        flags = good_flags(command, tmp_path, write_fixture(tmp_path),
                           plot_report)
        if written:
            flags[flag] = tmp_path / "no" / "dir" / "file"
            line = f"directory '{tmp_path / 'no' / 'dir'}' does not exist"
        else:
            flags[flag] = tmp_path / "missing.txt"
            line = f"unreadable path '{flags[flag]}'"
        err = self.run(capsys, tmp_path, command, flags)
        assert err == f"config error: {flag}: {line}\n"

    @pytest.mark.parametrize("command", [c for c in _FLAGS
                                         if c not in ("sweat", "weat")])
    def test_every_fault_at_once(self, tmp_path, capsys, no_load,
                                 plot_report, command):
        flags = good_flags(command, tmp_path, write_fixture(tmp_path),
                           plot_report)
        _, inputs, outputs, _ = _FLAGS[command]
        lines = []
        for flag in inputs:
            flags[flag] = tmp_path / f"missing{flag}"
            lines.append(f"{flag}: unreadable path '{flags[flag]}'")
        for flag in outputs:
            flags[flag] = tmp_path / f"no{flag}" / "file"
            lines.append(f"{flag}: directory '{tmp_path / f'no{flag}'}' does "
                         "not exist")
        err = self.run(capsys, tmp_path, command, flags)
        assert err == "".join(f"config error: {line}\n" for line in lines)

    def test_bad_value_and_file_together(self, tmp_path, capsys, no_load):
        fx = write_fixture(tmp_path)
        flags = {**good_flags("candidates", tmp_path, fx, {}), "--top": -1,
                 "--freq2": tmp_path / "missing.tsv"}
        assert self.run(capsys, tmp_path, "candidates", flags) == (
            "config error: --top: must be at least 0, got -1\n"
            f"config error: --freq2: unreadable path '{flags['--freq2']}'\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("command", ["candidates", "sweat"])
    def test_pipe_is_readable(self, tmp_path, capsys, command):
        # A pipe passes the check, named by a flag or by a config field,
        # and loads as the file it carries.
        fx = write_fixture(tmp_path)
        argv = pair_argv(command, tmp_path, fx, fx["space1"], fx["space2"])
        assert main(argv) == 0
        expected = capsys.readouterr().out
        fifo, writer = feed_fifo(tmp_path,
                                 fx["space1"].read_text(encoding="utf-8"))
        argv = pair_argv(command, tmp_path, fx, fifo, fx["space2"])
        try:
            assert main(argv) == 0
        finally:
            held = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join()
            os.close(held)
        assert capsys.readouterr().out == expected


class TestConfigRules:
    """Each config rule is checked once, by the type that owns it."""

    @pytest.mark.parametrize("section, key, value", [
        ("refinement", "enabled", "false"),
        ("refinement", "enabled", 1),
    ])
    def test_flag_must_be_json_boolean(self, tmp_path, capsys, section, key,
                                       value):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw.setdefault(section, {})[key] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            f"config error: {section}.{key}: must be true or false, "
            f"got {value!r}\n")
        assert not (tmp_path / "report.json").exists()

    def test_huge_integer_threshold(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx,
                              refinement={"zipf_threshold": 10**400})
        assert main(["sweat", "--config", str(path)]) == 1
        assert "refinement.zipf_threshold: must be a finite number" in (
            one_line_error(capsys, "config error:"))

    def test_integral_floats_read_as_integers(self, tmp_path):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx, permutations={
            "mode": "montecarlo", "samples": 2e3, "seed": 7.0})
        perms = validate_config(str(path)).permutations
        assert (perms.samples, perms.seed) == (2000, 7)
        assert all(type(v) is int for v in (perms.samples, perms.seed))

    def test_every_bad_permutation_field_on_its_own_line(self, tmp_path,
                                                         capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx, permutations={
            "mode": "montecarlo", "samples": 0, "seed": -1})
        assert main(["sweat", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: permutations.samples: must be at least 1, got 0\n"
            "config error: permutations.seed: must be at least 0, got -1\n")

    def test_override_replaces_config_value_before_checks(self, tmp_path,
                                                          capsys):
        fx = write_fixture(tmp_path)
        path, _ = base_config(tmp_path, fx, permutations={
            "mode": "montecarlo", "samples": "lots", "seed": -1})
        assert main(["sweat", "--config", str(path), "--samples", "500",
                     "--seed", "3"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["permutations"]["samples"] == 500
        assert report["result"]["n_permutations"] == 500

    def test_sweat_takes_exactly_two_spaces(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        three = raw["embeddings"]
        three.append({"label": "S3", "path": str(fx["space1"])})
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: embeddings: sweat compares exactly 2 spaces, "
            "got 3\n")
        assert not (tmp_path / "report.json").exists()
        # weat reads the first space, so the same entries serve it.
        raw = weat_raw(fx, tmp_path)
        raw["embeddings"] = three
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["weat", "--config", str(path)]) == 0

    @pytest.mark.parametrize("label", [None, 5, ""])
    def test_topic_label(self, tmp_path, capsys, label):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["topic"]["label"] = label
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: topic.label: must be a nonempty string, "
            f"got {label!r}\n")


# One character of each class no chart can hold: C0 controls that XML 1.0
# forbids, a noncharacter, and a lone surrogate, which UTF-8 cannot encode.
NOT_TEXT = ["\x01", "\x0b", "\x1f", "\ufffe", "\ud800"]


class TestTextRule:
    """A label or a word that is not text a chart can hold is one config
    error line, exit 1, before any load and with no output left."""

    def run(self, tmp_path, capsys, raw, command="sweat"):
        """The one error line of ``command`` on ``raw``, once no output is
        found."""
        raw["outputs"] = {"report": str(tmp_path / "report.json"),
                          "cumulative_svg": str(tmp_path / "cum.svg"),
                          "detail_svg": str(tmp_path / "det.svg")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 1
        err = one_line_error(capsys, "config error:")
        assert not list(tmp_path.glob("report.json")) + list(
            tmp_path.glob("*.svg"))
        return err

    # A UTF-8 file cannot hold a lone surrogate.
    @pytest.mark.parametrize("where, bad", [
        (where, bad) for where in ("topic.label", "poles.label_a",
                                   "poles.file", "embeddings[0].label",
                                   "topic.words", "topic.file")
        for bad in NOT_TEXT if (where, bad) != ("topic.file", "\ud800")],
        ids=lambda v: ascii(v)[1:-1])
    def test_sweat(self, tmp_path, capsys, no_load, where, bad):
        fx = write_fixture(tmp_path)
        _, raw = base_config(tmp_path, fx)
        text = f"x{bad}y"
        words = list(fx["topic"].words)
        field = where
        if where == "topic.label":
            raw["topic"]["label"] = text
        elif where == "poles.label_a":
            raw["poles"]["label_a"] = text
            field = "poles: label_a"
        elif where == "poles.file":
            lexicon = write_lexicon(tmp_path / "lex.json", fx)
            lex = json.loads(lexicon.read_text(encoding="utf-8"))
            lexicon.write_text(json.dumps({**lex, "label_a": text}),
                               encoding="utf-8")
            raw["poles"] = {"file": str(lexicon)}
            field = f"poles.file: {lexicon}: label_a"
        elif where == "embeddings[0].label":
            raw["embeddings"][0]["label"] = text
        else:
            words.insert(1, text)
            field = "topic.words[1]"
            if where == "topic.words":
                raw["topic"]["words"] = words
            else:
                topic = tmp_path / "topic.txt"
                topic.write_text("\n".join(words) + "\n", encoding="utf-8")
                raw["topic"] = {"label": "t", "file": str(topic)}
        err = self.run(tmp_path, capsys, raw)
        assert err == (f"config error: {field}: holds U+{ord(bad):04X}, "
                       f"which a chart cannot hold, got {text!r}\n")

    @pytest.mark.parametrize("key", ["topic_x", "topic_y"])
    def test_weat_lone_surrogate_label(self, tmp_path, capsys, no_load, key):
        fx = write_fixture(tmp_path)
        raw = weat_raw(fx, tmp_path)
        raw[key]["label"] = "\ud800x"
        err = self.run(tmp_path, capsys, raw, "weat")
        assert err.startswith(f"config error: {key}.label: holds U+D800")

    @pytest.mark.parametrize("bad", NOT_TEXT, ids=lambda v: ascii(v)[1:-1])
    @pytest.mark.parametrize("keys", [
        ("plots", "cumulative", "topic_label"),
        ("plots", "cumulative", "bars", 1, "label"),
        ("plots", "detail", "pole_label_b"),
        ("plots", "detail", "words", 0),
    ], ids=lambda keys: ".".join(map(str, keys[1:])))
    def test_plot_report(self, plot_report, tmp_path, capsys, keys, bad):
        assert plot(_put(plot_report, keys, f"x{bad}"), tmp_path) == 2
        err = one_line_error(capsys, "data error:")
        assert err.startswith(f"data error: report '{tmp_path / 'report.json'}'"
                              " has malformed plot data (DataError: ")
        assert f"holds U+{ord(bad):04X}" in err
        assert not (tmp_path / f"{keys[1][:3]}.svg").exists()


class TestFrequencyTableRule:
    """``embeddings[i].frequency_table`` absent or null is no table; any
    other value must name a readable file."""

    @pytest.mark.parametrize("value", ["", 0, False, [], {}], ids=repr)
    def test_not_a_path(self, tmp_path, capsys, no_load, value):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["frequency_table"] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: embeddings[0].frequency_table: unreadable path "
            f"'{value}'\n")
        assert not (tmp_path / "report.json").exists()

    def test_null_is_no_table(self, tmp_path, capsys):
        fx = write_fixture(tmp_path)
        path, raw = base_config(tmp_path, fx)
        raw["embeddings"][0]["frequency_table"] = None
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["sweat", "--config", str(path)]) == 0


class TestFlagRules:
    """A command-line value that breaks a rule is a one-line config error
    with exit 1, as the same value in a config is."""

    def pair(self, tmp_path):
        fx = write_fixture(tmp_path)
        return fx, ["--space1", str(fx["space1"]), "--space2",
                    str(fx["space2"]), "--freq1", str(fx["freq1"]),
                    "--freq2", str(fx["freq2"])]

    def test_negative_top(self, tmp_path, capsys):
        _, pair = self.pair(tmp_path)
        assert main(["candidates", *pair, "--top", "-1"]) == 1
        assert one_line_error(capsys, "config error:") == (
            "config error: --top: must be at least 0, got -1\n")

    def test_zero_top_prints_nothing(self, tmp_path, capsys):
        _, pair = self.pair(tmp_path)
        assert main(["candidates", *pair, "--top", "0"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", [
        ["--zipf-threshold", "nan"], ["--zipf-threshold=inf"],
        ["--zipf-threshold=-inf"],
    ])
    def test_non_finite_zipf_threshold(self, tmp_path, capsys, flag):
        fx, pair = self.pair(tmp_path)
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps({
            "label_a": "pos", "label_b": "neg",
            "words_a": fx["poles"].words_a, "words_b": fx["poles"].words_b,
        }), encoding="utf-8")
        out = tmp_path / "refined.json"
        assert main(["refine", "--lexicon", str(lex), *pair, *flag,
                     "--out", str(out)]) == 1
        assert "--zipf-threshold: must be a finite number, got " in (
            one_line_error(capsys, "config error:"))
        assert not out.exists()


@pytest.fixture(scope="module")
def plot_report(tmp_path_factory):
    """The report of one sweat run, as a dict holding its plot data."""
    tmp_path = tmp_path_factory.mktemp("plot")
    fx = write_fixture(tmp_path)
    path, _ = base_config(tmp_path, fx)
    assert main(["sweat", "--config", str(path)]) == 0
    return json.loads((tmp_path / "report.json").read_text())


def plot(report, tmp_path):
    """Exit code of ``sweatkit plot`` drawing both charts of ``report``."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    return main(["plot", "--report", str(path),
                 "--cumulative", str(tmp_path / "cum.svg"),
                 "--detail", str(tmp_path / "det.svg")])


# Where the plot fuzz puts its value: a key path into a sweat report.
PLOT_TARGETS = [
    ("plots",),
    ("plots", "cumulative"),
    ("plots", "cumulative", "topic_label"),
    ("plots", "cumulative", "pole_label_a"),
    ("plots", "cumulative", "pole_label_b"),
    ("plots", "cumulative", "bars"),
    ("plots", "cumulative", "bars", 0),
    ("plots", "cumulative", "bars", 0, "label"),
    ("plots", "cumulative", "bars", 0, "beta_a"),
    ("plots", "cumulative", "bars", 1, "beta_b"),
    ("plots", "cumulative", "bars", 1, "cumulate"),
    ("plots", "detail"),
    ("plots", "detail", "topic_label"),
    ("plots", "detail", "pole_label_a"),
    ("plots", "detail", "pole_label_b"),
    ("plots", "detail", "space_labels"),
    ("plots", "detail", "space_labels", 1),
    ("plots", "detail", "words"),
    ("plots", "detail", "words", 0),
    ("plots", "detail", "distributions"),
    ("plots", "detail", "distributions", 0),
    ("plots", "detail", "distributions", 0, "word"),
    ("plots", "detail", "distributions", 1, "space_label"),
    ("plots", "detail", "distributions", 0, "delta_a"),
    ("plots", "detail", "distributions", 0, "delta_a", 0),
    ("plots", "detail", "distributions", 1, "delta_b"),
    ("plots", "detail", "distributions", 0, "mean_a"),
    ("plots", "detail", "distributions", 1, "mean_b"),
    ("plots", "detail", "distributions", 0, "dominant_pole"),
]

# JSON values for the plot fuzz, numbers of any size among them.
PLOT_VALUES = (JSON_VALUES | st.integers(-10**400, 10**400)
               | st.floats(allow_nan=True, allow_infinity=True))


class TestPlotReportFaults:
    """A malformed report given to ``plot`` is a one-line data error that
    names the report, never a traceback."""

    @pytest.mark.parametrize("keys, value", [
        (("plots", "cumulative", "bars", 0, "label"), 5),
        (("plots", "detail", "space_labels"), [1, 2]),
        (("plots", "cumulative", "pole_label_a"), None),
    ])
    def test_non_string_label(self, plot_report, tmp_path, capsys, keys,
                              value):
        assert plot(_put(plot_report, keys, value), tmp_path) == 2
        err = one_line_error(capsys, "data error:")
        assert f"report '{tmp_path / 'report.json'}'" in err
        assert "must be a nonempty string" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chart, keys, value", [
        ("detail", ("plots", "detail", "distributions", 0, "delta_b", 0),
         math.nan),
        ("detail", ("plots", "detail", "distributions", 0, "delta_b", 0),
         math.inf),
        ("detail", ("plots", "detail", "distributions", 1, "mean_a"),
         -math.inf),
        ("cumulative", ("plots", "cumulative", "bars", 0, "cumulate"),
         math.nan),
    ], ids=["nan-delta_b", "inf-delta_b", "-inf-mean_a", "nan-cumulate"])
    def test_non_finite_number(self, plot_report, tmp_path, capsys, chart,
                               keys, value):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(_put(plot_report, keys, value)),
                        encoding="utf-8")
        assert main(["plot", "--report", str(path),
                     f"--{chart}", str(tmp_path / "chart.svg")]) == 2
        err = one_line_error(capsys, "data error:")
        assert f"must be finite, got {value!r}" in err
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chart, keys", [
        ("cumulative", ("plots", "cumulative", "bars", 0)),
        ("detail", ("plots", "detail", "distributions", 0, "delta_a", 0)),
        ("detail", ("plots", "detail", "distributions", 0, "mean_b")),
    ], ids=["bar", "delta_a", "mean_b"])
    def test_value_past_drawable_range(self, plot_report, tmp_path, capsys,
                                       chart, keys):
        big = 1.7e308
        if chart == "cumulative":
            value = {"label": "s", "beta_a": big, "beta_b": 0.0,
                     "cumulate": big}
        else:
            value = big
        path = tmp_path / "report.json"
        path.write_text(json.dumps(_put(plot_report, keys, value)),
                        encoding="utf-8")
        assert main(["plot", "--report", str(path),
                     f"--{chart}", str(tmp_path / "chart.svg")]) == 2
        err = one_line_error(capsys, "data error:")
        assert "malformed plot data (ValueError:" in err
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.parametrize("keys, value", [
        (("plots", "detail", "words", 0), "ctl\x01x"),
        (("plots", "detail", "distributions", 0, "delta_a", 0), 1.7e308),
        (("plots", "cumulative", "bars", 1, "label"), "ctl\x01x"),
    ], ids=["detail_parse", "detail_draw", "cumulative_parse"])
    def test_both_charts_or_neither(self, plot_report, tmp_path, capsys,
                                    keys, value):
        # A fault in either chart's data, met while reading it or while
        # drawing it, leaves neither chart written.
        assert plot(_put(plot_report, keys, value), tmp_path) == 2
        err = one_line_error(capsys, "data error:")
        assert "malformed plot data" in err
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("keys", PLOT_TARGETS,
                             ids=[".".join(map(str, k)) for k in PLOT_TARGETS])
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=PLOT_VALUES)
    def test_fuzzed_value(self, plot_report, tmp_path, capsys, keys, value):
        capsys.readouterr()
        code = plot(_put(plot_report, keys, value), tmp_path)
        assert code in (0, 2)
        assert_documented_exit(code, capsys.readouterr().err)


def test_json_report_is_one_write_of_the_dumps_text(tmp_path, monkeypatch):
    from sweatkit import cli, errors

    doc = {"zeta": [1, [2.5, -0.0, 1e-07]], "é": "naïve ☃", "big": 10**30,
           "a": {"nested": [[], {}], "n": None, "t": True}, "m": -1e308}
    writes = []

    def spy_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(errors, "open", spy_open, raising=False)
    path = tmp_path / "r.json"
    cli._json_dump(doc, str(path))
    expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert writes == [expected]
    assert path.read_bytes() == expected
