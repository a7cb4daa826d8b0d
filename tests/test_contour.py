"""Tests for the line-integral and slant-contour oracles."""

import math

import mpmath
import pytest
from mpmath import mpc, mpf, workdps

from zetadiff import contour, differences, mpcore
from zetadiff.contour import ContourSpec
from zetadiff.errors import DomainError, TruncationBoundError


def test_contour_spec_validation():
    ContourSpec(kind="vertical")
    ContourSpec(kind="fig1-saddle", c1=1.0, c2=3.0)
    with pytest.raises(DomainError):
        ContourSpec(kind="hankel")
    with pytest.raises(DomainError):
        ContourSpec(kind="fig1-saddle", c1=2.0, c2=3.0)  # c1 > sqrt(pi)
    with pytest.raises(DomainError):
        ContourSpec(kind="fig1-saddle", c1=1.0, c2=1.5)  # c2 < sqrt(pi)
    with pytest.raises(DomainError):
        ContourSpec(kind="fig1-saddle", c1=1.0, c2=4.0)  # c2 > 2 sqrt(pi)
    with pytest.raises(DomainError):
        ContourSpec(T=-3.0)
    with pytest.raises(DomainError):
        ContourSpec(T=float("inf"))  # the panel grid would never reach it
    with pytest.raises(DomainError):
        ContourSpec(panels=0)
    with pytest.raises(DomainError):
        ContourSpec(degree=1)
    with pytest.raises(DomainError):
        ContourSpec(degree=2)  # no smaller rule left for the error estimate


def test_legendre_rule_exactness():
    # degree 8 integrates polynomials through degree 15 exactly
    rule = contour.legendre_rule(8, 30)
    with workdps(30):
        got = sum(w * x**14 for x, w in rule)
        assert abs(got - mpf(2) / 15) < mpf("1e-27")
        assert abs(sum(w for _, w in rule) - 2) < mpf("1e-27")


def test_legendre_rule_cached():
    a = contour.legendre_rule(16, 25)
    b = contour.legendre_rule(16, 25)
    assert a is b


def test_rice_sum_residues_matches_delta():
    val = contour.rice_sum_residues(mpmath.zeta, 2, 12, 20)
    want = differences.delta(12, 20).value
    with workdps(40):
        assert abs(val - want) < mpf("1e-18") * max(1, abs(want))


def test_rice_sum_residues_carries_the_cancellation_digits():
    # the alternating sum at n = 100 cancels ~30 digits
    val = contour.rice_sum_residues(mpmath.zeta, 2, 100, 15)
    want = differences.delta(100, 15).value
    with workdps(40):
        assert abs(val - want) < mpf("1e-15") * abs(want)


def test_rice_sum_residues_domain():
    with pytest.raises(DomainError):
        contour.rice_sum_residues(mpmath.zeta, 5, 3)


@pytest.mark.parametrize("n", [5, 8])
def test_rice_right_line(n):
    res = contour.rice_integral("zeta-right", n, 10)
    want = differences.delta(n, 15).value
    with workdps(30):
        rel = abs(res.value - want) / abs(want)
        assert rel < mpf("1e-10")
        assert abs(res.value - want) <= res.error_estimate


def test_rice_left_line():
    res = contour.rice_integral("zeta-left", 10, 10)
    want = differences.b(10, 15).value
    with workdps(30):
        rel = abs(res.value - want) / abs(want)
        assert rel < mpf("1e-10")


@pytest.mark.parametrize("n, c", [(5, -0.5), (20, -0.3)])
def test_left_line_float_tier_bound_covers_error(n, c):
    sigma = 1.0 - c
    for t in (16.0, 100.7, 2500.5):
        got, bound = contour._left_line_float(t, sigma, n, math.lgamma(n + 1))
        with workdps(40):
            s = mpf(c) + mpc(0, 1) * mpf(t)
            want = (mpcore.zeta_cx(s, 40) * contour._rice_kernel(s, n, mpmath.loggamma(n + 1))).real
            assert abs(mpf(got) - want) <= bound
            assert bound < mpf("1e-9") * abs(want)


def test_rice_left_line_long():
    # T ~ 6300: nearly every panel above t = 16 takes the float64 tier
    res = contour.rice_integral("zeta-left", 5, 10)
    want = differences.b(5, 15).value
    with workdps(30):
        assert abs(res.value - want) <= res.error_estimate
        assert abs(res.value - want) / abs(want) < mpf("1e-10")


def test_rice_inverse_line():
    res = contour.rice_integral("inv-zeta", 5, 10)
    want = differences.d(5, 15).value
    with workdps(30):
        rel = abs(res.value - want) / abs(want)
        assert rel < mpf("1e-10")


def test_rice_error_estimate_covers_error_at_low_degree():
    res = contour.rice_integral("zeta-right", 10, 12, ContourSpec(degree=6))
    want = differences.delta(10, 30).value
    with workdps(40):
        assert abs(res.value - want) <= res.error_estimate


def test_rice_reports_geometry():
    res = contour.rice_integral("zeta-right", 6, 10)
    assert res.truncation_height > 0
    assert res.truncation_bound >= 0
    assert len(res.pieces) == 1
    assert res.pieces[0].name == "vertical"
    with workdps(30):
        assert abs(res.pieces[0].value - res.value) == 0


def test_rice_explicit_height_too_small():
    with pytest.raises(TruncationBoundError):
        contour.rice_integral("zeta-right", 20, 12, ContourSpec(T=5.0))


def test_adaptive_quad_out_of_panels_raises():
    hi, lo = contour.legendre_rule(8, 20), contour.legendre_rule(4, 20)
    with workdps(20):
        f = lambda t: mpmath.cos(40 * t)
        bounds = [mpf(0), mpf(1)]
        with pytest.raises(TruncationBoundError, match="budget of 3 panels"):
            contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"), max_panels=3)
        value, err = contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"))
        assert err <= mpf("1e-15")
        assert abs(value - mpmath.sin(40) / 40) < mpf("1e-14")


def test_rice_domain_errors():
    with pytest.raises(DomainError):
        contour.rice_integral("mellin", 10)
    with pytest.raises(DomainError):
        contour.rice_integral("zeta-right", 1)
    with pytest.raises(DomainError):
        contour.rice_integral("zeta-left", 3)  # left line needs n >= 4
    with pytest.raises(DomainError):
        contour.rice_integral("zeta-right", 101)  # oracle cap
    with pytest.raises(DomainError):
        contour.rice_integral("zeta-right", 10, 31)  # digit cap
    with pytest.raises(DomainError):
        contour.rice_integral("zeta-right", 10, 10, ContourSpec(kind="fig1-saddle"))


@pytest.mark.parametrize("n", [10, 50])
def test_saddle_contour_matches_b(n):
    res = contour.saddle_contour_integral(n, 10)
    want = differences.b(n, 15).value
    with workdps(30):
        rel = abs(res.value - want) / abs(want)
        assert rel < mpf("1e-8")


def test_saddle_contour_pieces():
    res = contour.saddle_contour_integral(10, 8)
    names = [p.name for p in res.pieces]
    assert names == ["axis", "slant", "vertical"]
    # the axis run is exactly real, so it contributes nothing
    assert res.pieces[0].value == 0


def test_saddle_contour_domain():
    with pytest.raises(DomainError):
        contour.saddle_contour_integral(3)
    with pytest.raises(DomainError):
        contour.saddle_contour_integral(501)
    with pytest.raises(DomainError):
        contour.saddle_contour_integral(10, 31)
    with pytest.raises(DomainError):
        contour.saddle_contour_integral(10, 10, ContourSpec(kind="vertical"))
    # c2 must sit left of the slant's axis crossing sqrt(2 pi n)
    with pytest.raises(DomainError):
        contour.saddle_contour_integral(
            4, 8, ContourSpec(kind="fig1-saddle", c1=1.0, c2=5.1)
        )
