import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweatkit import (
    CumulativePlotData,
    DetailPlotData,
    PermutationConfig,
    PoleWordsets,
    TopicWordset,
    cumulative_data,
    detail_data,
    render_cumulative,
    render_detail,
    run_sweat,
    single_word_association,
    sweat_score,
)

from sweatkit import viz
from sweatkit.errors import DataError

from conftest import failing_writes, make_space, random_space


def random_fixture(seed, n_topic=3, n_pole=2, dim=5):
    rng = np.random.default_rng(seed)
    words = (
        [f"w{i}" for i in range(n_topic)]
        + [f"a{i}" for i in range(n_pole)]
        + [f"b{i}" for i in range(n_pole)]
    )
    space1 = random_space(rng, "s1", words, dim)
    space2 = random_space(rng, "s2", words, dim)
    topic = TopicWordset("t", [f"w{i}" for i in range(n_topic)])
    poles = PoleWordsets(
        "A", "B", [f"a{i}" for i in range(n_pole)], [f"b{i}" for i in range(n_pole)]
    )
    return space1, space2, topic, poles


class TestCumulativeData:
    def test_toy_fixture(self, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = cumulative_data(topic, space1, space2, poles)
        b1, b2 = data.bars
        assert (b1.beta_a, b1.beta_b, b1.cumulate) == (1.0, 0.0, 1.0)
        assert (b2.beta_a, b2.beta_b, b2.cumulate) == (0.0, 1.0, -1.0)

    def test_identical_spaces_cumulates_match(self):
        space1, _, topic, poles = random_fixture(0)
        data = cumulative_data(topic, space1, space1, poles)
        assert data.bars[0].cumulate == data.bars[1].cumulate

    @pytest.mark.parametrize("seed", range(5))
    def test_identities(self, seed):
        space1, space2, topic, poles = random_fixture(seed)
        data = cumulative_data(topic, space1, space2, poles)
        for bar in data.bars:
            assert bar.cumulate == pytest.approx(bar.beta_a - bar.beta_b,
                                                 abs=1e-9)
        score = sweat_score(topic, space1, space2, poles)
        assert data.bars[0].cumulate - data.bars[1].cumulate == pytest.approx(
            score, abs=1e-9
        )

    def test_cumulates_differ_by_the_score_bit_for_bit(self):
        # Each cumulate is the fsum the score subtracts, not the difference
        # of the two rounded beta sums.
        for seed in range(20):
            space1, space2, topic, poles = random_fixture(seed, n_topic=8)
            data = cumulative_data(topic, space1, space2, poles)
            result = run_sweat(topic, space1, space2, poles,
                               PermutationConfig(mode="exact"))
            assert data.bars[0].cumulate - data.bars[1].cumulate == (
                result.score), seed


class TestDetailData:
    def test_toy_dominant_poles(self, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = detail_data(topic, space1, space2, poles)
        by_space = {d.space_label: d for d in data.distributions}
        assert by_space["E1"].dominant_pole == "A"
        assert by_space["E2"].dominant_pole == "B"

    def test_singleton_poles_degenerate(self, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = detail_data(topic, space1, space2, poles)
        for d in data.distributions:
            assert len(d.delta_a) == 1 and len(d.delta_b) == 1
            assert d.mean_a == d.delta_a[0]

    def test_mean_difference_matches_association(self):
        space1, space2, topic, poles = random_fixture(1)
        data = detail_data(topic, space1, space2, poles)
        spaces = {"s1": space1, "s2": space2}
        for d in data.distributions:
            s = single_word_association(d.word, spaces[d.space_label], poles)
            assert abs((d.mean_a - d.mean_b) - s) <= 1e-12

    def test_identical_vectors_read_exactly_one(self):
        # Without the kernel's identity check and clip, the unit-row products
        # of these vectors read w . twin < 1 and x . near > 1 in the last bit
        # (OpenBLAS).
        v1 = np.array([0.32, -0.36, -1.9, -0.11])
        v2 = np.array([-0.8, 1.08, -0.29, 0.08])
        space = make_space("s", {"w": v1, "x": v2, "twin": v1.copy(),
                                 "near": 3.0 * v2, "b": (1.0, 0.5, 0.0, 0.0)})
        poles = PoleWordsets("A", "B", ["twin", "near"], ["b"])
        data = detail_data(TopicWordset("t", ["w", "x"]), space, space, poles)
        for d in data.distributions:
            assert all(-1.0 <= c <= 1.0 for c in d.delta_a + d.delta_b)
            if d.word == "w":
                assert d.delta_a[0] == 1.0

    def test_delta_lengths(self):
        space1, space2, topic, poles = random_fixture(2, n_pole=4)
        data = detail_data(topic, space1, space2, poles)
        for d in data.distributions:
            assert len(d.delta_a) == 4 and len(d.delta_b) == 4


class TestRendering:
    def test_cumulative_svg_parses(self, tmp_path, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = cumulative_data(topic, space1, space2, poles)
        out = tmp_path / "cum.svg"
        render_cumulative(data, str(out))
        root = ET.parse(str(out)).getroot()
        assert root.tag.endswith("svg")

    def test_detail_svg_parses(self, tmp_path, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = detail_data(topic, space1, space2, poles)
        out = tmp_path / "det.svg"
        render_detail(data, str(out))
        root = ET.parse(str(out)).getroot()
        assert root.tag.endswith("svg")

    def test_byte_identical_rendering(self, tmp_path):
        space1, space2, topic, poles = random_fixture(3)
        cum = cumulative_data(topic, space1, space2, poles)
        det = detail_data(topic, space1, space2, poles)
        paths = [tmp_path / f"f{i}.svg" for i in range(4)]
        render_cumulative(cum, str(paths[0]))
        render_cumulative(cum, str(paths[1]))
        render_detail(det, str(paths[2]))
        render_detail(det, str(paths[3]))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[2].read_bytes() == paths[3].read_bytes()

    def test_cumulate_dot_position_is_linear(self, tmp_path):
        space1, space2, topic, poles = random_fixture(4)
        data = cumulative_data(topic, space1, space2, poles)
        out = tmp_path / "cum.svg"
        render_cumulative(data, str(out))
        root = ET.parse(str(out)).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        dots = root.findall(".//svg:circle[@class='cumulate']", ns)
        assert len(dots) == 2
        # Invert the printed axis scale: domain is symmetric about zero and
        # the plot area spans margin_l=100 .. width-30.
        m = max(
            abs(v) for b in data.bars for v in (b.beta_a, -b.beta_b, b.cumulate)
        )
        vmin, vmax = -1.1 * m, 1.1 * m
        px_min, px_max = 100.0, 610.0
        for dot, bar in zip(dots, data.bars):
            cx = float(dot.get("cx"))
            value = vmin + (cx - px_min) / (px_max - px_min) * (vmax - vmin)
            px_per_unit = (px_max - px_min) / (vmax - vmin)
            assert abs(value - bar.cumulate) * px_per_unit <= 0.5

    def test_zero_data_renders(self, tmp_path):
        data = CumulativePlotData(
            topic_label="t",
            pole_label_a="A",
            pole_label_b="B",
            bars=[
                dict_bar("s1", 0.0, 0.0),
                dict_bar("s2", 0.0, 0.0),
            ],
        )
        out = tmp_path / "zero.svg"
        render_cumulative(data, str(out))
        ET.parse(str(out))

    @pytest.mark.parametrize("big", [1e307, 7e307, 8e307, 1.7e308,
                                     1.7976931348623157e308])
    @pytest.mark.parametrize("where", ["bar", "delta", "mean"])
    def test_no_non_finite_coordinate(self, tmp_path, where, big):
        # Values near the float maximum either draw at finite coordinates
        # or are rejected before anything is written.
        space1, space2, topic, poles = random_fixture(7)
        if where == "bar":
            data = cumulative_data(topic, space1, space2, poles)
            data.bars[0] = dict_bar("s1", big, -big / 2)
            render = render_cumulative
        else:
            data = detail_data(topic, space1, space2, poles)
            d = data.distributions[0]
            if where == "delta":
                d.delta_a[0] = big
                d.delta_b[-1] = -big
            else:
                d.mean_b = -big
            render = render_detail
        out = tmp_path / "chart.svg"
        try:
            render(data, str(out))
        except ValueError:
            assert not out.exists()
            return
        numbers = []
        for el in ET.parse(str(out)).getroot().iter():
            for name, text in el.attrib.items():
                if name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy",
                            "width", "height", "r"):
                    numbers.append(float(text))
                elif name == "points":
                    numbers += [float(v) for pt in text.split()
                                for v in pt.split(",")]
        assert numbers and all(math.isfinite(v) for v in numbers)

    @pytest.mark.parametrize("chart", ["cumulative", "detail"])
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch,
                                              toy_pair, chart):
        make, render = {"cumulative": (cumulative_data, render_cumulative),
                        "detail": (detail_data, render_detail)}[chart]
        space1, space2, topic, poles = toy_pair
        data = make(topic, space1, space2, poles)
        out = tmp_path / "chart.svg"
        out.write_bytes(b"previous chart\n")
        failing_writes(monkeypatch)
        with pytest.raises(OSError):
            render(data, str(out))
        assert out.read_bytes() == b"previous chart\n"
        assert os.listdir(tmp_path) == ["chart.svg"]

    def test_unwritable_path(self, tmp_path, toy_pair):
        space1, space2, topic, poles = toy_pair
        data = cumulative_data(topic, space1, space2, poles)
        with pytest.raises(OSError):
            render_cumulative(data, str(tmp_path / "no" / "dir" / "x.svg"))


def dict_bar(label, beta_a, beta_b):
    from sweatkit.viz import SpaceBar

    return SpaceBar(label=label, beta_a=beta_a, beta_b=beta_b,
                    cumulate=beta_a - beta_b)


class TestQuartiles:
    """A boxplot's quartiles equal ``np.percentile``'s bit for bit."""

    @pytest.mark.parametrize("pool", [None, (-0.0, 0.0),
                                      (-0.0, 0.0, 0.5, 1.0, -1.0)],
                             ids=["normal", "signed_zeros", "ties"])
    def test_equal_to_percentile(self, pool):
        rng = np.random.default_rng(11)
        for n in range(1, 51):
            for _ in range(20):
                vals = (np.round(rng.normal(size=n), 1) if pool is None
                        else rng.choice(pool, size=n))
                expected = np.percentile(vals, [25, 75], method="linear")
                got = np.array(viz._quartiles(vals))
                assert got.tobytes() == expected.tobytes(), vals.tolist()

    def test_input_untouched(self):
        vals = np.array([3.0, -1.0, 2.0, 0.0])
        assert viz._quartiles(vals) == [-0.25, 2.25]
        assert vals.tolist() == [3.0, -1.0, 2.0, 0.0]


class TestJsonRoundTrip:
    def test_cumulative_round_trip(self):
        space1, space2, topic, poles = random_fixture(5)
        data = cumulative_data(topic, space1, space2, poles)
        again = CumulativePlotData.from_dict(
            json.loads(json.dumps(data.to_dict()))
        )
        for orig, back in zip(data.bars, again.bars):
            for attr in ("beta_a", "beta_b", "cumulate"):
                a, b = getattr(orig, attr), getattr(back, attr)
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300) or a == b

    def test_detail_round_trip(self):
        space1, space2, topic, poles = random_fixture(6)
        data = detail_data(topic, space1, space2, poles)
        again = DetailPlotData.from_dict(json.loads(json.dumps(data.to_dict())))
        assert again.to_dict() == data.to_dict()


# The characters XML 1.0 forbids in a document (its Char production) and
# the lone surrogates, which UTF-8 cannot encode.
NOT_XML = [chr(c) for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20),
                            *range(0xD800, 0xE000), 0xFFFE, 0xFFFF)]
# Text a chart can hold, weighted toward the characters XML escapes or
# reads specially: markup, whitespace and other line breaks.
LABELS = st.text(st.sampled_from("&<>]'\"\t\n\r \x7f\x85\u2028\U0001f600")
                 | st.characters(exclude_characters=NOT_XML), min_size=1)
# Text the rule turns away: empty, or holding a forbidden character.
REJECTED = st.just("") | st.builds(
    lambda head, bad, tail: head + bad + tail, LABELS | st.just(""),
    st.sampled_from(NOT_XML), LABELS | st.just(""))


def chart_data(topic, pole_a, pole_b, spaces, words) -> tuple:
    """Hand-built data of both charts with these labels and words."""
    cum = CumulativePlotData(topic, pole_a, pole_b,
                             [dict_bar(s, 0.5, 0.25) for s in spaces])
    dists = [viz.WordDistribution(w, s, [0.5, -0.25], [0.125], 0.125, 0.125,
                                  "A") for w in words for s in spaces]
    det = DetailPlotData(topic, pole_a, pole_b, list(spaces), list(words),
                         dists)
    return cum, det


def texts(path) -> list:
    """The text of each ``<text>`` element of an SVG, in document order."""
    root = ET.parse(str(path)).getroot()
    return [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


class TestTextRule:
    """A chart draws every label and word the text rule accepts so that it
    parses and reads back equal, and raises on any other."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(labels=st.lists(LABELS, min_size=5, max_size=5),
           words=st.lists(LABELS, min_size=1, max_size=3, unique=True))
    def test_accepted_text_reads_back(self, tmp_path_factory, labels, words):
        topic, pole_a, pole_b, space1, space2 = labels
        spaces = [space1, space2 + "\u2028" * (space1 == space2)]
        cum, det = chart_data(topic, pole_a, pole_b, spaces, words)
        tmp_path = tmp_path_factory.mktemp("charts")
        render_cumulative(cum, str(tmp_path / "cum.svg"))
        render_detail(det, str(tmp_path / "det.svg"))
        legend = [f"topic: {topic}", pole_a, pole_b]
        assert texts(tmp_path / "cum.svg")[:5] == [*legend, *spaces]
        drawn = texts(tmp_path / "det.svg")
        assert drawn[:4 + len(words)] == [*legend, spaces[0], *words]
        assert drawn[7 + len(words)] == spaces[1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bad=REJECTED, where=st.integers(0, 5))
    def test_rejected_text_raises(self, tmp_path_factory, bad, where):
        labels = ["t", "A", "B", "s1", "s2", "w"]
        labels[where] = bad
        *legend, space1, space2, word = labels
        cum, det = chart_data(*legend, [space1, space2], [word])
        tmp_path = tmp_path_factory.mktemp("charts")
        # The cumulative chart draws no topic word.
        if where < 5:
            with pytest.raises(DataError):
                render_cumulative(cum, str(tmp_path / "cum.svg"))
        with pytest.raises(DataError):
            render_detail(det, str(tmp_path / "det.svg"))
        assert not list(tmp_path.iterdir())
