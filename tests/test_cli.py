import contextlib
import gc
import io
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "blregion.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=300, **kw)


@pytest.fixture(scope="module")
def div_run():
    return run_cli("--report", "divisibility", "--max-stem", "12")


def test_divisibility_report(div_run):
    assert div_run.returncode == 0, div_run.stderr
    lines = div_run.stdout.splitlines()
    assert any(line.startswith("4") and "rho^3" in line for line in lines)
    # tab-separated block repeats every row
    assert "4\trho^3\t3" in div_run.stdout


def test_fixed_points_report():
    r = run_cli("--report", "fixed-points", "--max-stem", "12")
    assert r.returncode == 0
    assert "5\t2^4\t4" in r.stdout  # image 16 Z on the fifth stem
    assert "8\t2^5\t5" in r.stdout


def test_two_divisibility_report():
    r = run_cli("--report", "two-divisibility", "--max-stem", "12")
    assert r.returncode == 0
    assert "8\t2^3\t3" in r.stdout
    assert "9\t2^4\t4" in r.stdout
    tsv = r.stdout.split("\n\n")[-1]
    assert not any(line.startswith("4\t") for line in tsv.splitlines())  # k >= 5


def test_mahowald_report():
    r = run_cli("--report", "mahowald", "--max-stem", "12")
    assert r.returncode == 0
    assert "2^6\tP h_1^2\tnot computed" in r.stdout
    assert "2^4\th_0^3 h_3\tnot computed" in r.stdout


def test_census_report_lists_h0_tower():
    r = run_cli("--report", "census", "--max-stem", "8")
    assert r.returncode == 0
    rows = [l.split("\t") for l in r.stdout.splitlines() if "\t" in l]
    stem0 = [row for row in rows if row[0] == "0"]
    names = {row[3] for row in stem0}
    assert {"1", "h_0", "h_0^2", "h_0^3"} <= names


def test_chart_written_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    r1 = run_cli("--chart", "einf", "--format", "svg", "--out", str(out1),
                 "--max-stem", "12")
    r2 = run_cli("--chart", "einf", "--format", "svg", "--out", str(out2),
                 "--max-stem", "12")
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"<?xml")


def test_unwritable_chart_path_is_io_error(tmp_path):
    r = run_cli("--max-stem", "8", "--chart", "einf", "--out", str(tmp_path / "missing" / "x.svg"))
    assert r.returncode == 4, r.stderr
    assert "cannot write chart" in r.stderr
    assert "Traceback" not in r.stderr


def test_ko_chart_tikz(tmp_path):
    out = tmp_path / "ko.tex"
    r = run_cli("--chart", "ko", "--format", "tikz", "--out", str(out),
                "--max-stem", "12")
    assert r.returncode == 0
    assert b"tikzpicture" in out.read_bytes()


def test_usage_error_exit_code():
    assert run_cli("--report", "nonsense").returncode == 2
    assert run_cli("--coweights", "azz").returncode == 2


@pytest.mark.parametrize("arg", ["--max-stem=-5", "--coweights=1..-2",
                                 # a window without coweight 0 asserts nothing the
                                 # census, the reports or the charts read
                                 "--coweights=3..4", "--coweights=-9..-8", "--coweights=1..1"])
def test_empty_window_is_usage_error(arg):
    r = run_cli("--max-stem", "8", arg)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_small_window_rejected_for_reports():
    # torsion-witness differentials need the eighth stem
    r = run_cli("--report", "divisibility", "--max-stem", "6")
    assert r.returncode == 2
    assert "max-stem" in r.stderr


def test_missing_catalog_is_io_error(tmp_path):
    r = run_cli("--catalog", str(tmp_path / "nope.txt"), "--report", "census")
    assert r.returncode == 4


def test_broken_catalog_is_constraint_error(tmp_path):
    bad = tmp_path / "cat.txt"
    from importlib import resources

    text = resources.files("blregion").joinpath("data/catalog.txt").read_text("utf-8")
    bad.write_text(text.replace("h_3  |  7 1  4", "h_3  |  7 1  5"))
    r = run_cli("--catalog", str(bad), "--report", "census")
    assert r.returncode == 3
    assert "h_0 h_3" in r.stderr  # names the violated row


def test_catalog_not_utf8_is_constraint_error(tmp_path):
    bad = tmp_path / "cat.txt"
    bad.write_bytes(b"\xff\xfe")
    r = run_cli("--catalog", str(bad), "--max-stem", "8")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("catalog error: ") and str(bad) in r.stderr
    assert "Traceback" not in r.stderr


def _shipped_catalog():
    from importlib import resources

    return resources.files("blregion").joinpath("data/catalog.txt").read_text("utf-8")


def _tower_row_first(text):
    lines = text.splitlines(keepends=True)
    row = next(line for line in lines if line.startswith("h_1^{4+k}"))
    return row + "".join(line for line in lines if line is not row)


@pytest.mark.parametrize("edit, named", [
    (lambda t: t.replace("h_1^{4+k}   | 4 4 4", "h_5^{4+k}   | 4 4 4"), "'h_5'"),
    (_tower_row_first, "line 1: 'h_1^{4+k}' uses 'h_1'"),
    (lambda t: t.replace("P^k h_2     | 3 1 2", "P^k h_5     | 3 1 2"), "'h_5'"),
    (lambda t: "".join(l for l in t.splitlines(keepends=True) if not l.startswith("P^k c_0")),
     "'P^k c_0'"),
], ids=["undeclared-tower-symbol", "family-above-its-symbol", "undeclared-factor",
        "missing-family"])
def test_malformed_catalog_is_constraint_error(tmp_path, edit, named):
    bad = tmp_path / "cat.txt"
    text = _shipped_catalog()
    assert edit(text) != text
    bad.write_text(edit(text))
    r = run_cli("--catalog", str(bad), "--max-stem", "8")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("catalog error: ") and named in r.stderr
    assert "Traceback" not in r.stderr


def test_rules_override_flag(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("# extra declared-zero differential, harmless\n"
                     "3 | tau^{4k+4} | 0 | 0..1\n")
    r = run_cli("--report", "divisibility", "--max-stem", "12",
                "--rules-override", str(rules))
    assert r.returncode == 0


@pytest.mark.parametrize("line", [
    "3 | nosuch_symbol | 0 | 1..1",  # must fail at load, not inside the run
    "3 | tau^{4k+4} | 0 | 2..1",
    "1 | h_1 | rho h_0 | 0..0",  # target outside deg(h_1) + (-1,1,0)
    "0 | tau | rho h_0 | 0..0",
    "-1 | tau | rho h_0 | 0..0",
    "1 | tau^{k-1} | rho h_0 | 0..3",  # source zero at k_min: would drop the rule
    "1 | gamma/(rho tau^{k-1}) | 0 | 0..0",
], ids=["unknown-symbol", "empty-k-range", "target-off-degree", "page-zero", "page-negative",
        "zero-source-positive", "zero-source-gamma"])
def test_bad_rules_override_is_usage_error(tmp_path, line):
    rules = tmp_path / "rules.txt"
    rules.write_text(line + "\n")
    r = run_cli("--max-stem", "8", "--rules-override", str(rules))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("rule override error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("line, message", [
    # the target's own d_1 is gamma/tau^4 h_0^3 h_3
    ("1 | gamma/(rho^2 tau^2) h_0 h_3 | gamma/(rho tau^3) h_0^2 h_3 | 0..0",
     "d_1 o d_1 != 0"),
    # the target supports a d_1, so it is not a cycle on page 3
    ("3 | gamma/(rho^4 tau) h_1 | gamma/(rho tau^3) h_0 h_2 | 0..0",
     "d_3 value gamma/(rho tau^3) h_0 h_2 is not a page-3 class"),
    # the target degree is right, but d_1 must raise the rho exponent by 1
    ("1 | tau h_1 | h_0^2 | 0..0", "d_1(tau h_1) = h_0^2 breaks the filtration jump"),
], ids=["d-squared", "not-a-page-class", "filtration-jump"])
def test_d_squared_nonzero_is_engine_error(tmp_path, line, message):
    # each override passes the load-time checks; the run must refuse it
    rules = tmp_path / "rules.txt"
    rules.write_text(line + "\n")
    r = run_cli("--max-stem", "8", "--rules-override", str(rules))
    assert r.returncode == 3, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_override_against_seed_outside_window_is_engine_error(tmp_path):
    # the seeded d_3(tau^3 h_0^3 h_3) = rho^3 tau P h_1 has its source
    # outside the stem-24 window; an override that declares it zero must
    # still be caught as a conflict, not silently win
    rules = tmp_path / "rules.txt"
    rules.write_text("3 | tau^3 P^{k} h_0^3 h_3 | 0 | 0..0\n")
    r = run_cli("--max-stem", "24", "--rules-override", str(rules))
    assert r.returncode == 3, r.stderr
    assert "two rules disagree" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("line, named", [
    ("1 | tau^{2k+1} | 0 | 0..3", "tau at page 1"),
    ("2 | gamma/(rho^2 tau^{4k+2}) | 0 | 0..2", "gamma/(rho^2 tau^2) at page 2"),
], ids=["tau-power", "pure-gamma"])
def test_override_against_closed_form_is_engine_error(tmp_path, line, named):
    # the tau-power differentials are closed forms, not rules; an override
    # that contradicts them is a conflict, as one against a seeded rule is
    rules = tmp_path / "rules.txt"
    rules.write_text(line + "\n")
    r = run_cli("--max-stem", "8", "--rules-override", str(rules))
    assert r.returncode == 3, r.stderr
    assert f"two rules disagree on {named}" in r.stderr
    assert "Traceback" not in r.stderr


def test_coweights_flag():
    r = run_cli("--report", "census", "--max-stem", "10", "--coweights=-1..1")
    assert r.returncode == 0
    assert "Q h_1^4" in r.stdout


def test_reports_deterministic():
    a = run_cli("--report", "census", "--max-stem", "10")
    b = run_cli("--report", "census", "--max-stem", "10")
    assert a.stdout == b.stdout


def test_cli_import_leaves_out_the_network_stack():
    # the SVG escape once came from xml.sax.saxutils, whose import pulls in
    # urllib, http, email and ssl: about 40 ms and 6.5 MB in every process
    heavy = ("ssl", "http.client", "urllib.request", "email.parser")
    code = ("import sys, blregion.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


def _main_in_process(*args):
    """``blregion.cli.main`` in this process, its output discarded; the exit code."""
    from blregion.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


def _calls(tmp_path):
    """(exit code, arguments): a chart run, a usage error and the stem-8
    Mahowald refusal."""
    chart = ["--chart", "einf", "--out", str(tmp_path / "c.svg")]
    return [(0, ["--max-stem", "8", "--report", "census", *chart]),
            (2, ["--max-stem", "8", "--coweights=3..4"]),
            (3, ["--max-stem", "8", "--report", "mahowald"])]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_state(tmp_path, enabled):
    # main pauses the cyclic collector for its call and leaves it as it
    # found it on every exit path
    try:
        for code, args in _calls(tmp_path):
            gc.enable() if enabled else gc.disable()
            assert _main_in_process(*args) == code, args
            assert gc.isenabled() is enabled, args
    finally:
        gc.enable()


def test_main_leaves_the_same_garbage_whatever_the_window(tmp_path):
    # with the collector off, what a collection finds after main does not
    # grow with the window or on a refusal: the paused collector costs no
    # memory that scales with the run
    found = []
    gc.collect()
    gc.disable()
    try:
        for args in (["--max-stem", "8", "--report", "census"],
                     ["--max-stem", "40", "--report", "census"],
                     ["--max-stem", "8", "--report", "mahowald"]):
            _main_in_process(*args)
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [found[0]] * 3, found
