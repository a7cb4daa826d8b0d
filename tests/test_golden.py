"""CLI output of the README examples and the batch tables, byte for byte.

The files in tests/data/golden were captured from the mpf-loop implementation
that the exact integer kernel replaced; the kernel must print the same bytes.
The second group covers every other command and both renderers (CSV and
JSON tables, text and JSON reports); it was captured before the verify checks
and the command dispatch became tables.  The last group (the Rice lines at
n = 10 and 20, and `verify full`) was captured before the Rice lines' start
grids lost their panels narrower than the working precision needs.  The
four long batches (c, d, a Newton sum and a sign census) were captured
before batches took their zeta inputs from the fixed-point table; the
census at n = 1000 reads one input near a rounding tie from mpmath.  The
three single-index commands at the end were captured before a single index
read its zeta inputs from the fixed-point table as well.  The saddle
contour at n = 50, in text and JSON, was captured before the oracles lost
their contour settings object and took a truncation height alone.  The
last two were captured before the Hurwitz table chained its Euler-Maclaurin
tail terms and took even zeta values from Bernoulli numbers: b_n for
n <= 2000 reads zeta(l) for l up to 2000 from a table at 2362 bits, the
deepest tails, and A_n(3, 4) at 30 digits reads a Hurwitz table off m = k = 1.
"""

from pathlib import Path

import pytest

from zetadiff.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "seq-b-reference": "seq b --n 1,2,5,10,20,50 --digits 12",
    "seq-b-300": "seq b --n 1..300 --digits 15",
    "seq-a-1-2": "seq a --m 1 --k 2 --n 1..150 --digits 14",
    "seq-A-2-5": "seq A --m 2 --k 5 --n 2..120 --digits 15",
    "seq-d": "seq d --n 2..250 --digits 13",
    "seq-d-moebius": "seq d --n 20..100 --method moebius",
    "seq-c": "seq c --n 1..200 --digits 16",
    "seq-delta": "seq delta --n 2..200 --digits 15",
    "seq-delta-series": "seq delta --n 2..60 --method series --digits 15",
    "signs-200": "signs --n 200",
    "signs-300": "signs --n 300",
    "newton-real": "newton --s 0.5 --n 500 --digits 20",
    "newton-complex": "newton --s=-1.3+2.1i --n 400 --digits 20",
    "verify-fast": "verify fast",
    "gf-check": "gf-check",
    "asym-b": "asym b --n 10,100,1000",
    "asym-a-1-2": "asym a --m 1 --k 2 --n 50,200",
    "figure2-5-60": "figure2 --range 5..60",
    "identity": "identity",
    "zero-model": "zero-model",
    "contour-right-6": "contour right --n 6",
    "contour-right-20-12": "contour right --n 20 --digits 12",
    "contour-left-20": "contour left --n 20",
    "contour-inv-10-12": "contour inv --n 10 --digits 12",
    "verify-full": "verify full",
    "signs-200-json": "signs --n 200 --format json",
    "seq-b-1-8-json": "seq b --n 1..8 --format json",
    "seq-c-600-25": "seq c --n 1..600 --digits 25",
    "seq-d-600": "seq d --n 2..600",
    "newton-half-500": "newton --s 0.5 --n 500",
    "signs-1000": "signs --n 1000",
    "seq-b-700-20": "seq b --n 700 --digits 20",
    "seq-c-350-40": "seq c --n 350 --digits 40",
    "seq-d-90-moebius-30": "seq d --n 90 --method moebius --digits 30",
    "contour-saddle-50-8": "contour saddle --n 50 --digits 8",
    "contour-saddle-50-8-json": "contour saddle --n 50 --digits 8 --format json",
    "seq-b-2000": "seq b --n 1..2000",
    "seq-A-3-4-400-30": "seq A --m 3 --k 4 --n 1..400 --digits 30",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, capsys):
    assert main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
