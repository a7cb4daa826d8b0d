"""Tests of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Each check must accept the program's output and reject a perturbed copy:
one wrong digit in a printed b_n, a Newton value moved by twice its bound,
an oracle value outside its error estimate.  The file is not named
test_*.py, so the repository's pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import mpmath  # noqa: E402
from mpmath import mpf  # noqa: E402

from zetadiff import cli, contour, differences, series  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def bump_digit(text: str, position: int) -> str:
    """`text` with its position-th mantissa digit (from 0) changed by one."""
    seen = -1
    chars = list(text)
    for i, ch in enumerate(chars):
        if ch.isdigit():
            seen += 1
            if seen == position:
                chars[i] = "1" if ch == "0" else str(int(ch) - 1)
                return "".join(chars)
    raise ValueError(f"{text} has no digit {position}")


class ReferenceTests(unittest.TestCase):
    def test_hurwitz_matches_direct_sum(self):
        with mpmath.workdps(200):
            direct = mpmath.zeta(30) - mpmath.fsum(mpf(u) ** -30 for u in range(1, 101))
        self.assertLess(abs(reference.hurwitz(30, 101, 60) / direct - 1), mpf(10) ** -58)

    def test_routes_agree_with_binomial_sums(self):
        with mpmath.workdps(60):
            self.assertLess(abs(reference.delta(30, 30) - reference.delta_direct(30, 30)), mpf(10) ** -28)
            self.assertLess(abs(reference.d(30, 30) - reference.d_direct(30, 30)), mpf(10) ** -28)
            b40 = reference.b(40, 30)
            self.assertLess(abs(b40 - reference.b_direct(40, 30)), abs(b40) * mpf(10) ** -28)
            # a_n(1,1) = b_n
            self.assertLess(abs(reference.a(40, 1, 1, 30) - b40), abs(b40) * mpf(10) ** -28)


class CheckTests(unittest.TestCase):
    def test_b_table_rejects_one_wrong_digit(self):
        argv = ("seq", "b", "--n", "1..40", "--digits", "12")
        code, text = run_cli(argv)
        sample = (7, 23, 40)
        self.assertEqual(checks.check(Op("cli", argv, sample), (code, text))[0], True)
        lines = text.splitlines()
        for position in (11, 4):
            bad = list(lines)
            n, value, *rest = bad[23].split(",")  # row of b_23
            bad[23] = ",".join([n, bump_digit(value, position), *rest])
            ok, detail = checks.check(Op("cli", argv, sample), (code, "\n".join(bad) + "\n"))
            self.assertFalse(ok, detail)

    def test_points_reject_one_wrong_digit(self):
        point = differences.b(120, 20)
        self.assertTrue(checks.check_point(("b", 120, None, 20), point)[0])
        text = bump_digit(mpmath.nstr(point.value, 20, min_fixed=1, max_fixed=0), 19)
        with mpmath.workdps(60):
            wrong = dataclasses.replace(point, value=mpf(text))
        self.assertFalse(checks.check_point(("b", 120, None, 20), wrong)[0])

    def test_newton_rejects_value_moved_by_twice_its_bound(self):
        for s in (mpf("0.5"), mpmath.mpc("-0.75", "2.5")):
            value, bound = series.newton_eval(s, 300, 20)
            self.assertTrue(checks.newton_close(value, bound, s))
            self.assertFalse(checks.newton_close(value + 2 * bound, bound, s))

    def test_newton_cli_output_checked(self):
        argv = ("newton", "--s=-0.75+2.5i", "--n", "300", "--digits", "20")
        code, text = run_cli(argv)
        self.assertTrue(checks.check(Op("cli", argv), (code, text))[0])
        fields = checks._fields(text)
        wrong = text.replace(fields["value_re"], bump_digit(fields["value_re"], 15))
        self.assertFalse(checks.check(Op("cli", argv), (code, wrong))[0])

    def test_oracle_rejects_value_outside_its_estimate(self):
        res = contour.rice_integral("zeta-right", 20, 10)
        self.assertTrue(checks.check(Op("rice", ("zeta-right", 20, 10)), res)[0])
        outside = dataclasses.replace(res, value=res.value + 2 * res.error_estimate)
        self.assertFalse(checks.check(Op("rice", ("zeta-right", 20, 10)), outside)[0])

    def test_census_check(self):
        argv = ("signs", "--n", "150")
        code, text = run_cli(argv)
        self.assertTrue(checks.check(Op("cli", argv, (0, 5)), (code, text))[0])
        moved = text.replace(",65,", ",68,")
        self.assertNotEqual(moved, text)
        self.assertFalse(checks.check(Op("cli", argv, (0, 5)), (code, moved))[0])


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            self.assertEqual(make_ops(workload, 7), make_ops(workload, 7))
        self.assertNotEqual(make_ops("points", 7), make_ops("points", 8))


class TracerTests(unittest.TestCase):
    def test_spans_and_metrics(self):
        import mpmath as mp_module
        from zetadiff import mpcore

        original = mpcore.zeta_int
        tracer = Tracer()
        tracer.install()
        try:
            run_cli(("seq", "b", "--n", "1..30", "--threads", "2"))
            contour.rice_integral("zeta-right", 20, 8)
        finally:
            tracer.uninstall()
        self.assertIs(mpcore.zeta_int, original)
        self.assertFalse(hasattr(mp_module.zeta, "__wrapped__"))
        m = layer_metrics(tracer.spans)
        self.assertEqual(m["differences.terms"], sum(n - 1 for n in range(1, 31)))
        self.assertEqual(m["mpcore.lookup_calls"] >= m["differences.terms"], True)
        self.assertGreater(m["contour.integrand_evals"], 100)
        self.assertGreater(m["contour.height_max"], 0)
        for name in ("differences.self_s", "cli.self_s", "contour.self_s", "precision.format_s"):
            self.assertGreater(m[name], 0, name)


class RunTests(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        bare = os.path.join(HERE, "results", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
