import math
import shutil
import subprocess
import xml.etree.ElementTree as ET
from collections import Counter
from xml.sax.saxutils import escape

import pytest

from blregion.adams import install_hidden_rho_extensions, region
from blregion.bockstein import expected_census_dimension, run_bockstein
from blregion.charts import (_DOT_ORDER, _FAN, BLUE, ChartDocument, Dot, _tower_steps,
                             chart_from_page, ko_chart, render)
from blregion.degrees import TriDegree, Window
from blregion.monomials import module_action


def test_svg_is_wellformed_xml(run24, page24):
    for doc in (chart_from_page(run24, "e2"), chart_from_page(page24, "einf"), ko_chart()):
        data = render(doc, "svg")
        ET.fromstring(data.decode("utf-8"))


def test_render_deterministic(page24):
    doc1 = chart_from_page(page24, "einf")
    doc2 = chart_from_page(page24, "einf")
    assert render(doc1, "svg") == render(doc2, "svg")
    assert render(doc1, "tikz") == render(doc2, "tikz")


def test_chart_round_trip_structural_equality(run24):
    d1, d2 = chart_from_page(run24, "e2"), chart_from_page(run24, "e2")
    assert (d1.dots, d1.lines, d1.arrows) == (d2.dots, d2.lines, d2.arrows)


def test_builders_emit_parts_in_drawing_order(run24, page24, run40):
    # the renderers write the parts as stored, so the builders keep them sorted
    docs = [chart_from_page(run24, "e2"), chart_from_page(page24, "einf"),
            chart_from_page(run40, "e2"),
            chart_from_page(install_hidden_rho_extensions(run40), "einf"), ko_chart()]
    for doc in docs:
        assert doc.dots == sorted(doc.dots, key=_DOT_ORDER), doc.title
        assert doc.lines == sorted(doc.lines), doc.title
        assert doc.arrows == sorted(doc.arrows), doc.title
    assert all(doc.dots and doc.lines and doc.arrows for doc in docs)


@pytest.mark.parametrize("stem, lo, hi", [(16, -3, 2), (24, -6, 1), (40, -2, 1), (64, -2, 1)])
def test_tower_steps_are_the_products(cat, stem, lo, hi):
    # a chart draws its rho- and h1-lines from the tower steps; where a
    # product is zero, its step is no stored class, so it is never placed
    run = run_bockstein(cat, Window(max_stem=stem, min_coweight=lo, max_coweight=hi))
    stored = run.home
    placed = {m for _, survivors in region(run) for m in survivors}
    for m in stored:
        for gen, step in zip(("rho", "h_1"), _tower_steps(m)):
            product = module_action(cat, gen, m)
            if product is None:
                assert step not in stored, (gen, m)
            else:
                assert product == step, (gen, m)
            if m in placed:
                assert (step in placed) == (product in placed), (gen, m)


def test_einf_hidden_dashes(cat, page24):
    doc = chart_from_page(page24, "einf")
    dashes = sorted(
        (l.x1, l.y1, l.x2, l.y2) for l in doc.lines if l.kind == "hidden"
    )
    # one dash per installed extension inside the chart box, starting (5,3)->(4,4)
    assert dashes[0] == (5.0, 3.0, 4.0, 4.0)
    expected = []
    for src, tgt in page24.hidden_rho.items():
        s = 4 + src.k + 1
        if s <= doc.x_max and (4 + src.k) <= doc.y_max:
            expected.append((float(s), float(s - 2), float(s - 1), float(s - 1)))
    assert dashes == sorted(expected)
    # the plain final page carries no dashes
    e2 = chart_from_page(page24.run, "e2")
    assert not any(l.kind == "hidden" for l in e2.lines)


def test_dot_census_matches_region(run24):
    doc = chart_from_page(run24, "e2")
    counts = Counter((d.x, d.y) for d in doc.dots)
    for s in range(0, doc.x_max + 1):
        for f in range(0, doc.y_max + 1):
            want = expected_census_dimension(TriDegree(s, f, s), doc.y_max)
            assert counts.get((s, f), 0) == want, (s, f)


def test_q_tower_head_labelled(run24):
    doc = chart_from_page(run24, "e2")
    labels = {(d.x, d.y): d.label for d in doc.dots if d.label}
    assert labels.get((5, 3)) == "Q h_1^4"


def test_structure_lines_connect_plotted_dots(run24):
    doc = chart_from_page(run24, "e2")
    spots = {(d.x, d.y) for d in doc.dots}
    for l in doc.lines:
        assert (round(l.x1), round(l.y1)) in spots
        assert (round(l.x2), round(l.y2)) in spots


def test_hidden_dash_geometry(page24):
    doc = chart_from_page(page24, "einf")
    for l in doc.lines:
        if l.kind == "hidden":
            assert l.x1 - l.x2 == 1 and l.y2 - l.y1 >= 1


def test_no_chart_coordinate_is_negative_zero(run24, page24):
    # the renderers format each distinct coordinate once, keyed by its value;
    # -0.0 equals 0.0 as a key but formats with a minus sign
    for doc in (chart_from_page(run24, "e2"), chart_from_page(page24, "einf"), ko_chart()):
        values = [v for ln in doc.lines for v in ln[1:5]]
        values += [v for ar in doc.arrows for v in ar[:2]]
        for d in doc.dots:
            dx, dy = _FAN[d.slot % len(_FAN)]
            values += [d.x + dx, d.y + dy, d.y + dy - 0.1]
        zeros = [v for v in values if v == 0]
        assert zeros and all(math.copysign(1.0, v) > 0 for v in zeros), doc.title


def test_empty_region_chart(cat):
    doc = ChartDocument(title="empty", x_max=10, y_max=6)
    data = render(doc, "svg")
    ET.fromstring(data.decode("utf-8"))
    assert b"circle" not in data  # grid and shading only


def test_svg_escapes_text_as_saxutils_does():
    labels = ["Q & rho", "a < b", "b > a", "&amp; <&> x&&y>>"]
    doc = ChartDocument(title=" & ".join(labels), x_max=6, y_max=2,
                        dots=[Dot(2 * i, 1, BLUE, 0, label) for i, label in enumerate(labels)])
    data = render(doc, "svg").decode("utf-8")
    texts = [el.text for el in ET.fromstring(data).iter("{http://www.w3.org/2000/svg}text")]
    for text in labels + [doc.title]:
        assert f">{escape(text)}</text>" in data, text
        assert text in texts


def test_ko_chart_reference_data():
    doc = ko_chart()
    spots = {(d.x, d.y) for d in doc.dots}
    assert (4, 2) in spots and (0, 0) in spots and (12, 6) in spots
    assert any(d.label == "Q h_1^3" for d in doc.dots)
    assert any(a.direction == "up" and (a.x, a.y) == (4.0, 2.0) for a in doc.arrows)
    assert any(l.dashed for l in doc.lines)


def test_unsupported_format_rejected(run24):
    doc = chart_from_page(run24, "e2")
    with pytest.raises(ValueError):
        render(doc, "png")


def test_tikz_fragment_structure(page24):
    text = render(chart_from_page(page24, "einf"), "tikz").decode("utf-8")
    assert text.count("\\begin{tikzpicture}") == 1
    assert text.count("\\end{tikzpicture}") == 1
    assert "preamble" in text.splitlines()[0].lower()
    assert "dashed" in text


@pytest.mark.skipif(shutil.which("pdflatex") is None, reason="no TeX toolchain")
def test_tikz_compiles(tmp_path, page24):
    frag = tmp_path / "chart.tex"
    frag.write_bytes(render(chart_from_page(page24, "einf"), "tikz"))
    main = tmp_path / "main.tex"
    main.write_text(
        "\\documentclass{standalone}\\usepackage{tikz}"
        "\\begin{document}\\input{chart.tex}\\end{document}"
    )
    proc = subprocess.run(
        ["pdflatex", "-interaction=nonstopmode", "main.tex"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-800:]
