"""Cumulative polarization chart and per-word association-distribution chart.

Both charts are emitted as standalone SVG 1.1 with fixed-precision
coordinates, so identical data always produces byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .association import PoleWordsets, TopicWordset, topic_associations
from .embeddings import EmbeddingSpace
from .errors import _replacing, _text

COLOR_A = "#2e7d32"
COLOR_B = "#c62828"
COLOR_CUMULATE = "#000000"


def _finite(values, what: str) -> None:
    """Raise a ValueError if any of ``values``, which a chart places, is not
    a finite number."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {value!r}")


# The escape of each character chart text cannot hold as itself: an XML
# parser would read a literal "\r" as "\n".
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          "\r": "&#13;"})


def _fields(obj) -> dict:
    """The fields of a flat dataclass instance as a dict, values shared."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _labels(raw) -> dict:
    """The topic and pole labels of a chart's dict."""
    return {key: _text(raw[key], key)
            for key in ("topic_label", "pole_label_a", "pole_label_b")}


@dataclass
class SpaceBar:
    label: str
    beta_a: float
    beta_b: float
    cumulate: float

    def to_dict(self):
        return _fields(self)


@dataclass
class CumulativePlotData:
    topic_label: str
    pole_label_a: str
    pole_label_b: str
    bars: list  # one SpaceBar per space, space1 first

    def to_dict(self):
        return {**_fields(self), "bars": [b.to_dict() for b in self.bars]}

    @classmethod
    def from_dict(cls, raw):
        bars = [SpaceBar(**b) for b in raw["bars"]]
        for bar in bars:
            _text(bar.label, "bar label")
            _finite((bar.beta_a, bar.beta_b, bar.cumulate), "bar value")
        return cls(**_labels(raw), bars=bars)

    @classmethod
    def from_associations(cls, topic, pair, poles):
        """Per-space sums of mean pole associations, from the topic's
        ``Associations`` in each space. The cumulate dot of each bar is the
        fsum of the topic's s(w), beta_a - beta_b up to rounding, so the
        difference of the two cumulates is the SWEAT score bit for bit."""
        bars = [SpaceBar(assoc.label, math.fsum(assoc.mean_a),
                         math.fsum(assoc.mean_b), math.fsum(assoc.values))
                for assoc in pair]
        return cls(topic.label, poles.label_a, poles.label_b, bars)


@dataclass
class WordDistribution:
    """Association distributions of one topic word in one space."""

    word: str
    space_label: str
    delta_a: list  # cos(word, a) for every word a of pole A
    delta_b: list
    mean_a: float
    mean_b: float
    dominant_pole: str  # "A" | "B"

    def to_dict(self):
        return _fields(self)


@dataclass
class DetailPlotData:
    topic_label: str
    pole_label_a: str
    pole_label_b: str
    space_labels: list
    words: list
    distributions: list  # WordDistribution, word-major then space order

    def to_dict(self):
        return {**_fields(self),
                "distributions": [d.to_dict() for d in self.distributions]}

    @classmethod
    def from_dict(cls, raw):
        data = cls(
            **_labels(raw),
            space_labels=[_text(s, "space label") for s in raw["space_labels"]],
            words=[_text(w, "word") for w in raw["words"]],
            distributions=[WordDistribution(**d) for d in raw["distributions"]],
        )
        for d in data.distributions:
            _finite([*d.delta_a, *d.delta_b, d.mean_a, d.mean_b],
                    "association")
        return data

    @classmethod
    def from_associations(cls, topic, pair, poles):
        """Per-word distributions of cos(w, pole word) to each pole, in each
        space, from the topic's ``Associations`` there. Each word's mean
        difference is its association s(w) by construction."""
        distributions = []
        for k, word in enumerate(topic.words):
            for assoc in pair:
                mean_a, mean_b = assoc.mean_a[k], assoc.mean_b[k]
                distributions.append(WordDistribution(
                    word, assoc.label, assoc.delta_a[k], assoc.delta_b[k],
                    mean_a, mean_b, "A" if mean_a >= mean_b else "B"))
        return cls(topic.label, poles.label_a, poles.label_b,
                   [assoc.label for assoc in pair], list(topic.words),
                   distributions)


def cumulative_data(
    topic: TopicWordset,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    poles: PoleWordsets,
) -> CumulativePlotData:
    """The cumulative chart's data for ``topic`` across the two spaces."""
    return CumulativePlotData.from_associations(
        topic, topic_associations(topic, space1, space2, poles), poles)


def detail_data(
    topic: TopicWordset,
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    poles: PoleWordsets,
) -> DetailPlotData:
    """The detail chart's data for ``topic`` across the two spaces."""
    return DetailPlotData.from_associations(
        topic, topic_associations(topic, space1, space2, poles), poles)


def _f(v: float) -> str:
    """A coordinate or length as SVG text; a value the chart cannot place
    is a ValueError."""
    if not math.isfinite(v):
        raise ValueError(f"value maps to a non-finite coordinate ({v!r})")
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:.4g}"


class _Svg:
    def __init__(self, width, height):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
        ]

    def rect(self, x, y, w, h, fill, extra=""):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}"{extra}/>\n'
        )

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"/>\n'
        )

    def circle(self, cx, cy, r, fill):
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" '
            f'fill="{fill}" class="cumulate"/>\n'
        )

    def polygon(self, points, fill):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(f'<polygon points="{pts}" fill="{fill}"/>\n')

    def text(self, x, y, s, size=12, anchor="start"):
        _text(s, "chart text")
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#000000">'
            f"{s.translate(_ESCAPES)}</text>\n"
        )

    def write(self, path):
        self.parts.append("</svg>\n")
        with _replacing(path) as fh:
            fh.write("".join(self.parts).encode("utf-8"))


class _Scale:
    """Linear value -> pixel map over a symmetric-around-zero domain."""

    def __init__(self, vmin, vmax, px_min, px_max):
        self.vmin = vmin
        self.vmax = vmax
        self.px_min = px_min
        self.px_max = px_max

    def __call__(self, v):
        span = self.vmax - self.vmin
        return self.px_min + (v - self.vmin) / span * (self.px_max - self.px_min)


def _symmetric_domain(magnitudes):
    m = max((abs(v) for v in magnitudes), default=0.0)
    if m == 0.0:
        m = 1.0
    # The scale divides by the domain's width, 2.2 m, which must be finite.
    if not math.isfinite(2 * (1.1 * m)):
        raise ValueError(f"plot value {m!r} is too large to scale")
    return -1.1 * m, 1.1 * m


def _axis(svg, scale, y):
    svg.line(scale.px_min, y, scale.px_max, y, "#555555")
    for v in (scale.vmin, 0.0, scale.vmax):
        x = scale(v)
        svg.line(x, y, x, y + 5, "#555555")
        svg.text(x, y + 18, _tick(v), size=10, anchor="middle")


def _legend(svg, data, x):
    """The topic title and the two pole swatches, from ``x`` rightward."""
    svg.text(x, 20, f"topic: {_text(data.topic_label, 'topic_label')}",
             size=14)
    svg.rect(x, 30, 10, 10, COLOR_A)
    svg.text(x + 14, 39, data.pole_label_a, size=11)
    svg.rect(x + 130, 30, 10, 10, COLOR_B)
    svg.text(x + 144, 39, data.pole_label_b, size=11)


def render_cumulative(data: CumulativePlotData, path: str | None):
    """Centered horizontal stacked bars, one per space: pole-A mass drawn
    rightward, pole-B mass leftward, black cumulate dot at beta_a - beta_b.
    The horizontal scale auto-fits the data and is printed on the axis.
    Written to ``path``; given None, returned unwritten (``write(path)``)."""
    margin_l, margin_r, top, row_h, axis_h = 100, 30, 56, 64, 30
    width = 640
    height = top + row_h * len(data.bars) + axis_h
    svg = _Svg(width, height)

    vmin, vmax = _symmetric_domain(
        [v for b in data.bars for v in (b.beta_a, -b.beta_b, b.cumulate)]
    )
    scale = _Scale(vmin, vmax, margin_l, width - margin_r)

    _legend(svg, data, margin_l)

    x_zero = scale(0.0)
    for i, bar in enumerate(data.bars):
        y = top + i * row_h
        bar_h = 26.0
        y_bar = y + (row_h - bar_h) / 2.0
        svg.text(margin_l - 8, y_bar + bar_h / 2 + 4, bar.label, anchor="end")
        # A mass rightward from zero, B mass on the negative side.
        xa = scale(bar.beta_a)
        svg.rect(min(x_zero, xa), y_bar, abs(xa - x_zero), bar_h, COLOR_A)
        xb = scale(-bar.beta_b)
        svg.rect(min(x_zero, xb), y_bar, abs(xb - x_zero), bar_h, COLOR_B)
        svg.circle(scale(bar.cumulate), y_bar + bar_h / 2.0, 5, COLOR_CUMULATE)
    svg.line(x_zero, top, x_zero, top + row_h * len(data.bars), "#888888")
    _axis(svg, scale, top + row_h * len(data.bars) + 4)
    return svg if path is None else svg.write(path)


def _boxplot(svg, scale, values, y, half_h, color):
    vals = np.asarray(values, dtype=np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    q1, q3 = _quartiles(vals)
    mean = math.fsum(values) / len(values)
    svg.line(scale(lo), y, scale(hi), y, color)
    svg.rect(scale(q1), y - half_h, max(scale(q3) - scale(q1), 0.0),
             2 * half_h, color, extra=' fill-opacity="0.35"')
    for v in (lo, hi):
        svg.line(scale(v), y - half_h, scale(v), y + half_h, color)
    # Belt marks the mean, not the median.
    svg.line(scale(mean), y - half_h, scale(mean), y + half_h, color, width=2.0)
    return mean


def _quartiles(vals: np.ndarray) -> list:
    """q1 and q3 of ``vals`` as ``np.percentile(vals, [25, 75],
    method="linear")`` gives them, bit for bit, without its import of
    ``numpy.ma``: numpy's virtual index (n - 1) * q and its ``_lerp``, which
    takes b - (b - a) * (1 - t) for t >= 0.5, on one copy partitioned at
    numpy's own positions, so that equal values such as 0.0 and -0.0 sit
    where numpy's copy holds them."""
    n = len(vals)
    points = []
    for q in (0.25, 0.75):
        at = (n - 1) * q
        below = math.floor(at)
        above = below + 1
        if at >= n - 1:  # numpy reads the last value, at -1, for both
            below = above = -1
        points.append((at, below, above))
    ordered = np.array(vals, dtype=np.float64)
    # The positions numpy partitions at, as the sorted set np.unique gives.
    ordered.partition(sorted({0, -1, *(i for p in points for i in p[1:])}))
    quartiles = []
    for at, below, above in points:
        t = at - below
        a, b = float(ordered[below]), float(ordered[above])
        diff = b - a
        quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return quartiles


def _arrow(svg, scale, mean_a, mean_b, y, color):
    x1, x2 = scale(mean_a), scale(mean_b)
    svg.line(x1, y, x2, y, color, width=1.5)
    head = 5.0 if x2 >= x1 else -5.0
    svg.polygon(
        [(x2, y), (x2 - head, y - 3.5), (x2 - head, y + 3.5)], color
    )


def render_detail(data: DetailPlotData, path: str | None):
    """Two side-by-side canvasses (one per space); each topic word gets a
    pair of pole-colored boxplots with mean belts, min/max whiskers, and an
    arrow from mean_a to mean_b colored by the dominant pole. Written to
    ``path``; given None, returned unwritten (``write(path)``)."""
    colors = {"A": COLOR_A, "B": COLOR_B}
    margin_l, gap, margin_r, top, row_h, axis_h = 90, 40, 20, 64, 56, 30
    panel_width = 360
    width = margin_l + 2 * panel_width + gap + margin_r
    height = top + row_h * len(data.words) + axis_h
    svg = _Svg(width, height)

    all_vals = [
        v for d in data.distributions for v in list(d.delta_a) + list(d.delta_b)
    ]
    vmin, vmax = _symmetric_domain(all_vals)

    _legend(svg, data, margin_l)

    by_key = {(d.word, d.space_label): d for d in data.distributions}
    for panel, space_label in enumerate(data.space_labels):
        px_min = margin_l + panel * (panel_width + gap)
        scale = _Scale(vmin, vmax, px_min, px_min + panel_width)
        svg.text((px_min + px_min + panel_width) / 2, 52, space_label,
                 size=12, anchor="middle")
        for i, word in enumerate(data.words):
            d = by_key[(word, space_label)]
            y = top + i * row_h
            if panel == 0:
                svg.text(margin_l - 8, y + row_h / 2 + 4, word, anchor="end")
            y_a = y + row_h * 0.30
            y_b = y + row_h * 0.70
            _boxplot(svg, scale, d.delta_a, y_a, 7.0, COLOR_A)
            _boxplot(svg, scale, d.delta_b, y_b, 7.0, COLOR_B)
            _arrow(svg, scale, d.mean_a, d.mean_b, y + row_h * 0.5,
                   colors[d.dominant_pole])
        _axis(svg, scale, top + row_h * len(data.words) + 4)
    return svg if path is None else svg.write(path)
