"""Tests for the forward-difference series evaluator and generating functions."""

import mpmath
import pytest
from mpmath import mpc, mpf, workdps

from zetadiff import differences, series
from zetadiff.errors import DomainError, TruncationBoundError
from zetadiff.series import TruncatedSeries


def _z_ref(s, dps=60):
    # zeta(s) - 1/(s-1), with the removable point at s = 1 filled by gamma
    with workdps(dps):
        s = mpmath.mpmathify(s)
        if s == 1:
            return +mpmath.euler
        return +(mpmath.zeta(s) - 1 / (s - 1))


def test_newton_terminates_at_small_integers():
    # C(s, n) vanishes for n > s at nonnegative integer s, so a short sum
    # is already exact there
    for s in range(0, 6):
        val, bound = series.newton_eval(s, 40, 20)
        want = _z_ref(s)
        with workdps(40):
            assert abs(val - want) < mpf("1e-19")
            assert abs(val - want) <= bound


def test_newton_at_gamma_point():
    val, bound = series.newton_eval(1, 40, 20)
    with workdps(40):
        assert abs(val - mpmath.euler) < mpf("1e-19")


def test_newton_negative_one():
    # Z(-1) = zeta(-1) + 1/2 = 5/12
    val, bound = series.newton_eval(-1, 500, 20)
    with workdps(60):
        want = mpf(5) / 12
        assert abs(val - want) < mpf("1e-20")
        assert abs(val - want) <= bound


def test_newton_half():
    val, bound = series.newton_eval(mpf("0.5"), 500, 20)
    want = _z_ref(mpf("0.5"))
    with workdps(60):
        assert abs(val - want) < mpf("1e-20")
        assert abs(val - want) <= bound


def test_newton_certificate_complex():
    # seeded sample in |s| <= 3; every certified bound must cover the truth
    import random

    rng = random.Random(20260816)
    with workdps(80):
        for _ in range(10):
            s = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(s - 1) < mpf("0.3"):
                s = s + 1  # keep clear of the filled pole of the reference
            val, bound = series.newton_eval(s, 400, 15)
            want = _z_ref(s, 80)
            assert abs(val - want) <= bound


def test_newton_truncation_reports_needed_order():
    with pytest.raises(TruncationBoundError) as err:
        series.newton_eval(mpf("0.5"), 5, 20)
    assert "would suffice" in str(err.value)


@pytest.mark.parametrize("s", [mpf("1e30"), mpf("-1e30"), mpc(0, "1e10")])
def test_newton_huge_point_refused_before_the_scan(s, monkeypatch):
    # the tail terms keep growing until at least n ~ 0.44 |s|, far past the
    # scan cap, so the point is refused before any b_n is computed, naming
    # the N it needs
    def no_table(*args, **kwargs):
        raise AssertionError("b_n computed for a point that was bound to fail")

    monkeypatch.setattr(differences, "sequence_many", no_table)
    with pytest.raises(TruncationBoundError, match=r"N >= (\S+) would be needed") as err:
        series.newton_eval(s, 50, 15)
    needed = float(err.value.args[0].split("N >= ")[1].split()[0])
    assert series._TAIL_SCAN_CAP < needed < float(abs(s))


def test_newton_domain():
    with pytest.raises(DomainError):
        series.newton_eval(2, 0)
    with pytest.raises(DomainError):
        series.newton_eval(2, -3)


def test_truncated_series_invariants():
    t = TruncatedSeries((mpf(1), mpf(2), mpf(3)))
    assert t.order == 2
    assert t.coeff(1) == 2
    with pytest.raises(DomainError):
        t.coeff(3)
    with pytest.raises(DomainError):
        t.coeff(-1)
    with pytest.raises(DomainError):
        TruncatedSeries(())
    with pytest.raises(DomainError):
        TruncatedSeries((mpf(1), mpf("inf")))


def test_truncated_series_arithmetic():
    a = TruncatedSeries((mpf(1), mpf(2), mpf(3)))
    b = TruncatedSeries((mpf(0), mpf(1)))
    s = a + b
    assert s.order == 1  # truncation order is the minimum of the operands
    assert s.coeff(0) == 1 and s.coeff(1) == 3
    d = a - b
    assert d.coeff(1) == 1
    p = a * b
    # (1 + 2z)(0 + z) = z + 2 z^2, truncated at order 1
    assert p.order == 1
    assert p.coeff(0) == 0 and p.coeff(1) == 1
    q = 2 * a
    assert q.coeff(2) == 6


def test_ogf_structure():
    g = series.ogf_coeffs(12, 30)
    assert g.order == 12
    assert g.coeff(0) == 0
    assert g.coeff(1) == 0
    with workdps(40):
        assert abs(g.coeff(2) - mpmath.zeta(2)) < mpf("1e-28")


def test_egf_structure():
    # Taylor coefficients carry a 1/n! relative to the sequence
    g = series.egf_coeffs(12, 30)
    assert g.coeff(0) == 0
    assert g.coeff(1) == 0
    with workdps(40):
        assert abs(g.coeff(2) * 2 - mpmath.zeta(2)) < mpf("1e-28")


def test_ogf_matches_delta_through_order_12():
    g = series.ogf_coeffs(12, 30)
    with workdps(50):
        for n in range(2, 13):
            want = differences.delta(n, 35).value
            assert abs(g.coeff(n) - want) < mpf("1e-30")


def test_egf_matches_delta_through_order_12():
    g = series.egf_coeffs(12, 30)
    with workdps(50):
        for n in range(2, 13):
            want = differences.delta(n, 35).value
            assert abs(g.coeff(n) * mpmath.factorial(n) - want) < mpf("1e-30")


def test_gf_order_domain():
    for maker in (series.ogf_coeffs, series.egf_coeffs):
        with pytest.raises(DomainError):
            maker(1)


def test_newton_checks_clear_envelope_cases_without_mpmath(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "envelope_bound", lambda *args: calls.append(args))
    series.newton_eval(mpf("0.5"), 300, 15)
    assert calls == []


def test_newton_raises_for_b_n_just_above_its_envelope(monkeypatch):
    from zetadiff.asymptotics import envelope_bound

    real = differences.sequence_many

    def one_b_n_above(kind, ns, target_digits=15, **kwargs):
        points = real(kind, ns, target_digits, **kwargs)
        with workdps(target_digits):
            above = -envelope_bound(40, target_digits) * (1 + mpf(10) ** -20)
        points[40] = differences.SequencePoint(40, above, "binomial", target_digits)
        return points

    monkeypatch.setattr(differences, "sequence_many", one_b_n_above)
    with pytest.raises(TruncationBoundError, match="b_40"):
        series.newton_eval(mpf("0.5"), 60, 20)
