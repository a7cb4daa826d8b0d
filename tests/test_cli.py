"""End-to-end tests of the command-line interface."""

import json
import re
import subprocess
import sys

import pytest
from mpmath import workdps

from zetadiff import differences
from zetadiff.cli import main
from zetadiff.precision import format_decimal, parse_decimal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def test_seq_b_reference_rows(capsys):
    code, out, _ = run(capsys, "seq", "b", "--n", "1,2,5,10,20,50", "--digits", "12")
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1] for ln in data_lines(out)[1:]}
    assert rows["1"].startswith("-7.72156649015")
    assert rows["2"].startswith("-9.49726295484")
    assert rows["5"].startswith("+7.15059")
    assert rows["10"].startswith("-2.83697")
    assert rows["20"].startswith("+2.15965")
    assert rows["50"].startswith("-1.08802")


def test_seq_d_quoted_digits(capsys):
    code, out, _ = run(capsys, "seq", "d", "--n", "20,50,100,200", "--digits", "8")
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1] for ln in data_lines(out)[1:]}
    assert rows["20"].startswith("+1.93")
    assert rows["50"].startswith("+1.987")
    assert rows["100"].startswith("+1.996")
    assert rows["200"].startswith("+1.9991")


def test_seq_csv_round_trip(capsys):
    code, out, _ = run(capsys, "seq", "b", "--n", "2..12", "--digits", "25")
    assert code == 0
    with workdps(60):
        for ln in data_lines(out)[1:]:
            text = ln.split(",")[1]
            again = format_decimal(parse_decimal(text, 60), 25)
            assert again == text


def test_seq_threads_bitwise_identical(capsys):
    code1, out1, _ = run(capsys, "seq", "b", "--n", "2..25", "--digits", "18")
    code4, out4, _ = run(capsys, "seq", "b", "--n", "2..25", "--digits", "18",
                         "--threads", "4")
    assert code1 == code4 == 0
    assert data_lines(out1) == data_lines(out4)


def test_seq_json_format(capsys):
    code, out, _ = run(capsys, "seq", "delta", "--n", "2,3", "--digits", "15",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc] == [2, 3]
    assert doc[0]["value"].startswith("+1.6449340")


def test_seq_out_file(tmp_path, capsys):
    dest = tmp_path / "b.csv"
    code, out, _ = run(capsys, "seq", "b", "--n", "5", "--out", str(dest))
    assert code == 0
    text = dest.read_text()
    assert "7.15059" in text


@pytest.mark.parametrize("where", ["missing/b.csv", "."])
def test_seq_unwritable_out_is_usage_error(where, tmp_path, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the --out path was checked")

    monkeypatch.setattr(differences, "sequence_many", computed)
    code, out, err = run(capsys, "seq", "b", "--n", "1..3", "--out", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write --out")
    assert len(err.splitlines()) == 1


def test_seq_method_validation(capsys):
    code, _, err = run(capsys, "seq", "b", "--n", "5", "--method", "moebius")
    assert code == 2
    assert "usage error" in err
    # d's second route is moebius; series belongs to delta
    code, out, err = run(capsys, "seq", "d", "--n", "5", "--method", "series")
    assert code == 2
    assert out == "" and err.startswith("usage error")


def test_seq_method_binomial_is_the_default(capsys):
    plain = run(capsys, "seq", "b", "--n", "1..12", "--digits", "18")
    named = run(capsys, "seq", "b", "--n", "1..12", "--digits", "18", "--method", "binomial")
    assert plain[0] == 0 and named == plain


def test_threads_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "seq", "b", "--n", "5", "--threads", "0")
    assert code == 2
    assert out == "" and err.startswith("usage error: --threads")


def test_contour_has_no_panel_option(capsys):
    code, out, _ = run(capsys, "contour", "right", "--n", "6", "--quad-panels", "4")
    assert code == 2
    assert out == ""


def test_seq_missing_n(capsys):
    code, _, err = run(capsys, "seq", "b")
    assert code == 2


def test_gf_check_has_no_index_option(capsys):
    # the order is --order; an --n would be read by nothing
    code, out, _ = run(capsys, "gf-check", "--n", "5", "--digits", "10")
    assert code == 2
    assert out == ""


def test_bad_range_order(capsys):
    code, _, err = run(capsys, "seq", "b", "--n", "5..3")
    assert code == 2
    assert "usage error" in err


def test_bad_digits(capsys):
    code, _, err = run(capsys, "seq", "b", "--n", "5", "--digits", "0")
    assert code == 2


def test_bare_verify_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_newton_truncation_failure_exit_code(capsys):
    code, _, err = run(capsys, "newton", "--s", "0.5", "--n", "5", "--digits", "20")
    assert code == 1
    assert "computation failed" in err


@pytest.mark.parametrize("s", ["abc", "inf", "-inf", "nan", "1+nani", ""])
def test_newton_bad_point_is_usage_error(s, capsys):
    code, _, err = run(capsys, "newton", f"--s={s}", "--n", "10")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv, flag, named",
    [
        (["newton", "--s", "0.5", "--n", "5", "--digits", "20"], "--n", r"N=(\d+) would suffice"),
        (["contour", "right", "--n", "6", "--digits", "10", "--quad-T", "50"], "--quad-T",
         r"T=(\d+) would suffice"),
    ],
)
def test_failure_names_a_sufficient_value(argv, flag, named, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "computation failed" in err
    found = re.search(named, err)
    assert found, err
    if flag == "--n":
        assert found.group(1) == "135"
    retry = list(argv)
    retry[retry.index(flag) + 1] = found.group(1)
    code, out, _ = run(capsys, *retry)
    assert code == 0
    assert out


@pytest.mark.parametrize("s", ["1e30", "-1e30", "1e10i"])
def test_newton_huge_point_fails_naming_n(s, capsys):
    code, _, err = run(capsys, "newton", f"--s={s}", "--n", "50")
    assert code == 1
    assert re.search(r"computation failed: .* N >= \S+ would be needed", err)


def test_newton_value(capsys):
    code, out, _ = run(capsys, "newton", "--s", "-1", "--n", "400", "--digits", "20")
    assert code == 0
    body = data_lines(out)
    joined = "\n".join(body)
    # Z(-1) = 5/12
    assert "+4.1666666666666666667e-01" in joined


def test_identity_output(capsys):
    code, out, _ = run(capsys, "identity")
    assert code == 0
    assert "0.57821566490153286060651209008240243" in out


def test_zero_model_output(capsys):
    code, out, _ = run(capsys, "zero-model")
    assert code == 0
    assert "illustrative model" in out
    lines = data_lines(out)
    assert any(ln.startswith("10,") for ln in lines)
    assert any(ln.startswith("10000,") for ln in lines)


def test_figure2_small_range(capsys):
    code, out, _ = run(capsys, "figure2", "--range", "5..30", "--digits", "10")
    assert code == 0
    rows = data_lines(out)[1:]
    assert len(rows) == 26
    header = data_lines(out)[0]
    assert header.split(",") == ["n", "scaled_exact", "scaled_asym"]
    for ln in rows:
        n, ex, asym = ln.split(",")
        assert abs(float(ex)) < 2.0


def test_signs_census_small(capsys):
    code, out, _ = run(capsys, "signs", "--n", "10")
    assert code == 0
    assert "3,7" in out
    assert "quadratic fit: unavailable" in out


def test_signs_default(capsys):
    code, out, _ = run(capsys, "signs")
    assert code == 0
    assert "3,7,13,21,29,40,52,65,80,97,115,135,157,180" in out
    assert "alpha" in out


def test_signs_n_too_small(capsys):
    code, _, err = run(capsys, "signs", "--n", "4")
    assert code == 2


def test_contour_right(capsys):
    code, out, _ = run(capsys, "contour", "right", "--n", "6", "--digits", "10")
    assert code == 0
    body = "\n".join(data_lines(out))
    # delta_6 = 11.6634979763...
    assert "1.166349798" in body


def test_gf_check(capsys):
    code, out, _ = run(capsys, "gf-check")
    assert code == 0
    assert "ogf" in out and "egf" in out


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "fast")
    assert code == 0
    assert "5/5 checks passed" in out
    assert "FAIL" not in out


def test_cli_and_contour_import_neither_numpy_nor_scipy():
    # importing numpy raises peak RSS by about half; nothing here needs it
    code = ("import sys, zetadiff.cli, zetadiff.contour; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
