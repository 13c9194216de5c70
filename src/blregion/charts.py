"""Chart documents in the (stem, filtration) plane and SVG/TikZ rendering.

Charts are coweight slices: x is the stem, y the Adams filtration, weights
are not drawn. Dots are basis classes colored by cone (blue positive, gray
negative), horizontal lines are rho-multiplications, slope-1 lines are
h1-multiplications, vertical lines climb h0 towers with an arrowhead for
infinite towers, and dashed negative-slope segments are hidden
rho-extensions. The region boundary f = s/2 - 1 is shaded below. Rendering
is deterministic: stable ordering and fixed precision throughout.

Dots, lines and arrows are NamedTuples, so lines and arrows sort as their
field tuples. A chart places each spot's classes as ``adams.region`` yields
them and reads each rho- and h1-line off one tower step (``_tower_steps``).
A document keeps its parts in drawing order, and each renderer writes them
as stored, formatting each distinct coordinate once per call.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple

from .adams import AdamsPage, region
from .monomials import Cone, MonomialClass, display, module_action

BLUE = "blue"
GRAY = "gray"


class Dot(NamedTuple):
    x: int
    y: int
    color: str
    slot: int = 0  # fan-out index among classes sharing (x, y)
    label: str = ""


class Line(NamedTuple):
    kind: str  # rho | h0 | h1 | hidden
    x1: float
    y1: float
    x2: float
    y2: float
    dashed: bool = False


class Arrow(NamedTuple):
    x: float
    y: float
    direction: str  # up | left


#: dots sort by position, then fan-out slot, color and label
_DOT_ORDER = itemgetter(0, 1, 3, 2, 4)


@dataclass
class ChartDocument:
    """A chart's parts, each list in drawing order (dots by ``_DOT_ORDER``,
    lines and arrows as tuples), which ``chart_from_page`` and ``ko_chart``
    keep and the renderers write as stored."""

    title: str
    x_max: int
    y_max: int
    dots: List[Dot] = field(default_factory=list)
    lines: List[Line] = field(default_factory=list)
    arrows: List[Arrow] = field(default_factory=list)


#: fan-out offsets (in chart units) for classes stacked at one spot
_FAN = [(0.0, 0.0), (0.22, 0.1), (-0.22, -0.1), (0.22, -0.1), (-0.22, 0.1)]


def _tower_steps(m: MonomialClass) -> Tuple[tuple, tuple]:
    """The rho- and h1-neighbours of a stored class m, as plain tuples (they
    hash and compare as ``MonomialClass`` keys do; a chart takes thousands,
    and making classes would cost more): ``rho_shift(m, 1)``, which defines
    the rho-step, and the h1-exponent +1, or k + 1 on the Q part. Each is
    the product: rho acts through its exponent alone, zero only at divided
    exponent 0, whose step is never placed; an h1-product is zero (h0 h1 = 0,
    tau h1^4 = 0, family h1-heights, gamma h1^4) only where the step is no E1
    class. The resolver's bump parents take the h1-step backwards."""
    cone, family, k, rho, tau, h0, h1 = m
    rho_step = (cone, family, k, rho + 1 if cone is Cone.POSITIVE else rho - 1, tau, h0, h1)
    if cone is Cone.Q:
        return rho_step, (cone, family, k + 1, rho, tau, h0, h1)
    return rho_step, (cone, family, k, rho, tau, h0, h1 + 1)


def chart_from_page(source, kind: str = "e2") -> ChartDocument:
    """Region chart of the final page ("e2") or with hidden extensions ("einf"),
    over the window's asserted stems and its filtration bound. Rho- and
    h1-lines join tower steps; the zero-stem h0-lines keep the product, whose
    one rewrite (h0^2 P^k h_2 = tau P^k h_1^3) is an h0 rule. ``region``
    gives the dots in drawing order; the lines are sorted once."""
    page, run = (source, source.run) if isinstance(source, AdamsPage) else (None, source)
    if kind == "einf" and page is None:
        raise ValueError("an extension-decorated page is required for the einf chart")
    cat, window = run.cat, run.window
    x_max, y_max = window.max_stem, window.max_f
    doc = ChartDocument(title=kind, x_max=x_max, y_max=y_max)

    placement: Dict[MonomialClass, Tuple[float, float]] = {}
    stem_zero = []  # the positive classes on the zero stem, which carry h0 lines
    for d, survivors in region(run):
        for i, m in enumerate(survivors):
            dx, dy = _FAN[i % len(_FAN)]
            placement[m] = (d.s + dx, d.f + dy)
            label = display(m) if m.cone is Cone.Q and m.rho == 0 and m.k == 0 else ""
            positive = m.cone is Cone.POSITIVE
            doc.dots.append(Dot(d.s, d.f, BLUE if positive else GRAY, i, label))
            if positive and d.s == 0:
                stem_zero.append(m)

    for m, (x, y) in placement.items():
        for kind_name, n in zip(("rho", "h1"), _tower_steps(m)):
            if n in placement:
                doc.lines.append(Line(kind_name, x, y, *placement[n]))
    for m in stem_zero:
        n = module_action(cat, "h_0", m)
        if n in placement:
            doc.lines.append(Line("h0", *placement[m], *placement[n]))
    # infinite h0 tower on the zero stem: arrowhead at the cap
    if any(d.x == 0 for d in doc.dots):
        doc.arrows.append(Arrow(0.0, float(y_max), "up"))

    if kind == "einf":
        for src, tgt in page.hidden_rho.items():
            if src in placement and tgt in placement:
                doc.lines.append(Line("hidden", *placement[src], *placement[tgt], dashed=True))
    doc.lines.sort()
    return doc


KO_X_MAX, KO_Y_MAX = 20, 14  # the stem and filtration range of the ko chart


def ko_chart() -> ChartDocument:
    """Reference chart for connective real K-theory, from shipped static data.

    This page is not computed by the engine; the data file is a transcription
    kept only so the chart set is complete.
    """
    x_max, y_max = KO_X_MAX, KO_Y_MAX
    text = resources.files("blregion").joinpath("data/ko_chart.txt").read_text("utf-8")
    doc = ChartDocument(title="ko", x_max=x_max, y_max=y_max)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, args = parts[0], parts[1:]
        if op == "dot":
            x, y, color = int(args[0]), int(args[1]), args[2]
            if x <= x_max and y <= y_max:
                doc.dots.append(Dot(x, y, color))
        elif op == "h1tower":
            x, y, color, style = int(args[0]), int(args[1]), args[2], args[3]
            t = 0
            while x + t <= x_max and y + t <= y_max:
                doc.dots.append(Dot(x + t, y + t, color))
                if style == "rholines":
                    doc.lines.append(Line("rho", x + t, y + t, x + t - 1, y + t))
                if style == "dashes":
                    doc.lines.append(Line("hidden", x + t, y + t, x + t - 1, y + t + 1, True))
                if t > 0:
                    doc.lines.append(Line("h1", x + t - 1, y + t - 1, x + t, y + t))
                t += 1
        elif op == "rhoray":
            x, y = int(args[0]), int(args[1])
            doc.lines.append(Line("rho", x, y, 0, y))
            doc.arrows.append(Arrow(0.0, float(y), "left"))
        elif op == "h0arrow":
            doc.arrows.append(Arrow(float(args[0]), float(args[1]), "up"))
        elif op == "label":
            x, y = int(args[0]), int(args[1])
            for i, d in enumerate(doc.dots):
                if d.x == x and d.y == y and not d.label:
                    doc.dots[i] = d._replace(label=" ".join(args[2:]))
                    break
        else:
            raise ValueError(f"unknown chart directive {op!r}")
    doc.dots.sort(key=_DOT_ORDER)
    doc.lines.sort()
    doc.arrows.sort()
    return doc


# --- rendering -------------------------------------------------------------------

_UNIT = 28
_MARGIN = 40
_COLORS = {BLUE: "#1f4fd8", GRAY: "#8a8a8a"}
_LINE_COLORS = {"rho": "#c02020", "h0": "#222222", "h1": "#208020", "hidden": "#c02020"}


class _Formatted(dict):
    """``memo[v]`` is ``fmt(v)``, computed once per distinct value v.

    Exact because no chart coordinate is -0.0: it equals 0.0 as a key but
    formats with a minus sign.
    """

    def __init__(self, fmt) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, v) -> str:
        text = self[v] = self.fmt(v)
        return text


def _svg(doc: ChartDocument) -> bytes:
    width = 2 * _MARGIN + _UNIT * (doc.x_max + 1)
    height = 2 * _MARGIN + _UNIT * (doc.y_max + 1)

    def px(x: float) -> float:
        return _MARGIN + _UNIT * x

    def py(y: float) -> float:
        return height - _MARGIN - _UNIT * y

    def esc(text: str) -> str:
        return html.escape(text, quote=False)  # &, < and >, as in XML text

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    ]
    x0, y0 = px(0), py(-0.5)
    x1 = px(doc.x_max + 0.5)
    y1 = py(doc.x_max / 2.0 - 1.0 + 0.25)
    out.append(
        f'<polygon points="{x0:.1f},{y0:.1f} {x1:.1f},{y1:.1f} {x1:.1f},{y0:.1f}" '
        'fill="#dddddd" stroke="none"/>\n'
    )
    for t in range(0, doc.x_max + 1, 2):
        out.append(
            f'<line x1="{px(t):.1f}" y1="{py(0):.1f}" x2="{px(t):.1f}" '
            f'y2="{py(doc.y_max):.1f}" stroke="#eeeeee" stroke-width="1"/>\n'
        )
        out.append(
            f'<text x="{px(t):.1f}" y="{py(0) + 16:.1f}" font-size="9" '
            f'text-anchor="middle">{t}</text>\n'
        )
    for t in range(0, doc.y_max + 1, 2):
        out.append(
            f'<line x1="{px(0):.1f}" y1="{py(t):.1f}" x2="{px(doc.x_max):.1f}" '
            f'y2="{py(t):.1f}" stroke="#eeeeee" stroke-width="1"/>\n'
        )
        out.append(
            f'<text x="{px(0) - 14:.1f}" y="{py(t) + 3:.1f}" font-size="9" '
            f'text-anchor="middle">{t}</text>\n'
        )
    x_text = _Formatted(lambda x: f"{px(x):.1f}")
    y_text = _Formatted(lambda y: f"{py(y):.1f}")
    for kind, lx1, ly1, lx2, ly2, dashed in doc.lines:
        dash = ' stroke-dasharray="5,3"' if dashed else ""
        out.append(
            f'<line x1="{x_text[lx1]}" y1="{y_text[ly1]}" x2="{x_text[lx2]}" '
            f'y2="{y_text[ly2]}" stroke="{_LINE_COLORS[kind]}" '
            f'stroke-width="1.3"{dash}/>\n'
        )
    for ax, ay, direction in doc.arrows:
        if direction == "up":
            x, y0, y1 = px(ax), py(ay), py(ay + 0.45)
            out.append(
                f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y1:.1f}" '
                'stroke="#222222" stroke-width="1.3"/>\n'
                f'<path d="M {x - 3.5:.1f} {y1 + 5:.1f} L {x:.1f} {y1:.1f} '
                f'L {x + 3.5:.1f} {y1 + 5:.1f}" fill="none" stroke="#222222" '
                'stroke-width="1.3"/>\n'
            )
        else:
            x0, x1, y = px(ax + 0.45), px(ax), py(ay)
            out.append(
                f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x1:.1f}" y2="{y:.1f}" '
                'stroke="#c02020" stroke-width="1.3"/>\n'
                f'<path d="M {x1 + 5:.1f} {y - 3.5:.1f} L {x1:.1f} {y:.1f} '
                f'L {x1 + 5:.1f} {y + 3.5:.1f}" fill="none" stroke="#c02020" '
                'stroke-width="1.3"/>\n'
            )
    for sx, sy, color, slot, label in doc.dots:
        dx, dy = _FAN[slot % len(_FAN)]
        x, y = sx + dx, sy + dy
        out.append(
            f'<circle cx="{x_text[x]}" cy="{y_text[y]}" r="3.2" '
            f'fill="{_COLORS[color]}"/>\n'
        )
        if label:
            out.append(
                f'<text x="{x_text[x]}" y="{py(y) + 14:.1f}" font-size="9" '
                f'text-anchor="middle">{esc(label)}</text>\n'
            )
    out.append(
        f'<text x="{_MARGIN:.1f}" y="{20:.1f}" font-size="12">{esc(doc.title)}</text>\n'
    )
    out.append("</svg>\n")
    return "".join(out).encode("utf-8")


_TIKZ_PREAMBLE = r"""% Minimal preamble for this fragment:
%   \documentclass{standalone}
%   \usepackage{tikz}
%   \begin{document}\input{<this file>}\end{document}
"""


def _tikz(doc: ChartDocument) -> bytes:
    out = [
        _TIKZ_PREAMBLE,
        "\\begin{tikzpicture}[scale=0.5]\n",
        f"\\fill[black!12] (0,-0.5) -- ({doc.x_max + 0.5},"
        f"{doc.x_max / 2.0 - 0.75:.2f}) -- ({doc.x_max + 0.5},-0.5) -- cycle;\n",
        f"\\draw[gray!40, very thin] (0,0) grid[step=2] ({doc.x_max},{doc.y_max});\n",
    ]
    coord = _Formatted("{:.2f}".format)
    style = {"rho": "red", "h0": "black", "h1": "green!60!black", "hidden": "red, dashed"}
    for kind, x1, y1, x2, y2, _ in doc.lines:
        out.append(
            f"\\draw[{style[kind]}] ({coord[x1]},{coord[y1]}) -- "
            f"({coord[x2]},{coord[y2]});\n"
        )
    for ax, ay, direction in doc.arrows:
        if direction == "up":
            out.append(
                f"\\draw[->, black] ({ax:.2f},{ay:.2f}) -- "
                f"({ax:.2f},{ay + 0.45:.2f});\n"
            )
        else:
            out.append(
                f"\\draw[->, red] ({ax + 0.45:.2f},{ay:.2f}) -- "
                f"({ax:.2f},{ay:.2f});\n"
            )
    for sx, sy, color, slot, label in doc.dots:
        dx, dy = _FAN[slot % len(_FAN)]
        x, y = sx + dx, sy + dy
        fill = "blue" if color == BLUE else "black!45"
        out.append(f"\\fill[{fill}] ({coord[x]},{coord[y]}) circle (0.12);\n")
        if label:
            safe = label.replace("_", "\\_")
            out.append(
                f"\\node[below, font=\\tiny] at ({coord[x]},{coord[y - 0.1]}) "
                f"{{{safe}}};\n"
            )
    out.append("\\end{tikzpicture}\n")
    return "".join(out).encode("utf-8")


def render(doc: ChartDocument, fmt: str) -> bytes:
    """Deterministic bytes for one document; fmt is 'svg' or 'tikz'."""
    if fmt == "svg":
        return _svg(doc)
    if fmt == "tikz":
        return _tikz(doc)
    raise ValueError(f"unsupported chart format {fmt!r}")
