"""Tests for the line-integral and slant-contour oracles."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc, mpf, workdps
from mpmath.libmp import dps_to_prec, from_str, to_fixed

from zetadiff import contour, differences, floattier, mpcore
from zetadiff.errors import DomainError, TruncationBoundError


def test_truncation_height_validation():
    # inf too: the panel grid would never reach it
    for T in (-3.0, float("inf")):
        message = f"truncation height must be finite and positive, got {T}"
        with pytest.raises(DomainError, match=message):
            contour.rice_integral("zeta-right", 6, 10, T=T)
        with pytest.raises(DomainError, match=message):
            contour.saddle_contour_integral(10, 8, T=T)


def test_legendre_rule_exactness():
    # degree 8 integrates polynomials through degree 15 exactly
    rule = contour.legendre_rule(8)
    with workdps(30):
        got = sum(w * x**14 for x, w in rule)
        assert abs(got - mpf(2) / 15) < mpf("1e-27")
        assert abs(sum(w for _, w in rule) - 2) < mpf("1e-27")


def test_legendre_rule_cached():
    a = contour.legendre_rule(16)
    b = contour.legendre_rule(16)
    assert a is b


@pytest.mark.parametrize("degree", [6, 16, 32, 64])
def test_legendre_rules_integrate_even_powers_at_60_digits(degree):
    rule = contour.legendre_rule(degree)
    with workdps(80):  # the nodes carry 68 digits, so negation is exact here
        # nodes mirror about 0 with equal weights
        assert all(x == -y and w == v for (x, w), (y, v) in zip(rule, reversed(rule)))
    with workdps(60):
        assert abs(mpmath.fsum(w for _, w in rule) - 2) < mpf("1e-55")
        for k in range(degree):  # x^(2k) for 2k <= 2 degree - 2
            got = mpmath.fsum(w * x ** (2 * k) for x, w in rule)
            assert abs(got - mpf(2) / (2 * k + 1)) < mpf("1e-55")


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
            fact = mpmath.exp(mpmath.loggamma(n + 1))
            want = (mpcore.zeta_cx(s, 40) * contour._rice_kernel(s, n, fact)).real
            assert abs(mpf(got) - want) <= bound
            assert bound < mpf("1e-9") * abs(want)


# (t, sigma, n) -> (value, bound) as float.hex, recorded before the float
# evaluators were lifted out of _left_line_float
_LEFT_LINE_BITS = {
    (16.0, 1.5, 5): ("-0x1.253dc62bd3c31p-16", "0x1.2b96d601acb7bp-58"),
    (100.7, 1.5, 5): ("0x1.9a3c1649de083p-31", "0x1.d4bb3b73d51e6p-69"),
    (2500.5, 1.5, 20): ("-0x1.85ccbf9765e38p-168", "0x1.6ac02b5651e01p-202"),
    (123.456, 1.3, 20): ("-0x1.5d64f2d78aff8p-84", "0x1.6b7f9a664bc0ap-121"),
    (6000.25, 1.5, 10): ("-0x1.a87321c16df79p-107", "0x1.429b25125e1b0p-139"),
    (31.75, 1.5, 100): ("-0x1.f33a463bbe2e9p-66", "0x1.c70a781a630b8p-102"),
}


@pytest.mark.parametrize("key", sorted(_LEFT_LINE_BITS))
def test_left_line_float_bits_are_pinned(key):
    t, sigma, n = key
    value, bound = floattier._left_line_float(t, sigma, n, math.lgamma(n + 1))
    assert (value.hex(), bound.hex()) == _LEFT_LINE_BITS[key]


def test_left_line_float_refuses_below_the_stirling_height():
    assert floattier._left_line_float(15.9, 1.5, 5, math.lgamma(6)) is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sigma=st.floats(min_value=1.1, max_value=20.0),
    t=st.floats(min_value=-3000.0, max_value=3000.0),
    fixed_sigma=st.booleans(),
)
def test_zeta_float_bound_covers_error(sigma, t, fixed_sigma):
    # fixed_sigma chose between two amplitude paths that gave the same bits;
    # the strategy stays so that the same 40 examples are drawn
    got, bound = floattier._zeta_float(complex(sigma, t))
    with workdps(40):
        want = mpmath.zeta(mpc(sigma, t))
        assert abs(mpc(got) - want) <= bound
        assert bound < mpf("1e-8") * max(1, abs(want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=0.5, max_value=60.0),
    y=st.floats(min_value=-3000.0, max_value=3000.0),
)
def test_loggamma_float_bound_covers_error(x, y):
    got, bound = floattier._loggamma_float(complex(x, y))
    with workdps(40):
        want = mpmath.loggamma(mpc(x, y))
        assert abs(mpc(got) - want) <= bound
        assert bound < mpf("1e-11") * max(1, abs(want))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", [5, 20])
def test_rice_line_float_tier_bound_covers_error(n, inverse):
    ln_fact = float(mpmath.loggamma(n + 1))
    for t in (0.25, 3.7, 16.0, 100.7, 2500.5):
        got, bound = floattier._rice_line_float(t, 0.0, n, ln_fact, inverse)
        with workdps(40):
            s = mpf("1.5") + mpc(0, 1) * mpf(t)
            phi = 1 / mpmath.zeta(s) if inverse else mpmath.zeta(s)
            fact = mpmath.exp(mpmath.loggamma(n + 1))
            want = (phi * contour._rice_kernel(s, n, fact)).real
            assert abs(mpf(got) - want) <= bound
            assert bound < mpf("1e-10") * abs(contour._rice_kernel(s, n, fact))


@pytest.mark.parametrize("n", [10, 50])
def test_saddle_float_tier_bound_covers_error(n):
    ln_fact = float(mpmath.loggamma(n + 1))
    x_left, x_cross = math.sqrt(n), math.sqrt(2 * math.pi * n)
    e_dir = complex(math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8))
    points = [complex(x_left, t) for t in (8.0, 40.5, 700.25)]
    points += [x_cross + u * e_dir for u in (0.0, 0.3, 2.0, 11.0)]
    with workdps(40):
        F = contour._saddle_integrand(n, mpmath.loggamma(n + 1))
        for s in points:
            got, bound = floattier._saddle_float(s, 0.0, n, ln_fact)
            want = F(mpc(s))
            assert abs(mpc(got) - want) <= bound
            assert bound < mpf("1e-10") * abs(want)
    # sin(pi s/2) vanishes at s = 4: no bound there
    assert floattier._saddle_float(complex(4.0, 0.0), 0.0, n, ln_fact) is None


# (piece, n, t on the ray or u on the slant) -> (Re, Im, bound) as float.hex,
# recorded while the ray read k^-sigma from a table per sigma and the slant
# computed them afresh
_SADDLE_BITS = {
    ("ray", 10, 8.0): ("0x1.f5520f822c845p-18", "-0x1.276d38e99fac9p-17", "0x1.a4ac32a4fe145p-58"),
    ("ray", 10, 40.5): ("-0x1.64dd0ab2cfaf1p-29", "-0x1.1a25cdc6a12bap-33", "0x1.5afc84695d367p-68"),
    ("ray", 10, 700.25): ("-0x1.a221a89af63d2p-59", "-0x1.5745443aac7c0p-64", "0x1.4bd14d06c7e07p-93"),
    ("slant", 10, 0.3): ("-0x1.1495072b17903p-29", "0x1.15a9a06f2d291p-28", "0x1.68545ff3639e7p-69"),
    ("slant", 10, 2.0): ("0x1.cce42a0470b8dp-28", "0x1.682a2b605e7c0p-24", "0x1.7c248557c8176p-65"),
    ("slant", 10, 11.0): ("0x1.b545899f038d8p-19", "-0x1.54a6711a704d9p-18", "0x1.e7bf837fe98d4p-59"),
    ("ray", 50, 8.0): ("-0x1.37f16e1c4a50ap-34", "0x1.5c0a1a84b3172p-34", "0x1.650abef2ae8b3p-73"),
    ("ray", 50, 40.5): ("0x1.891fd71c6f1b4p-60", "0x1.60ec432485015p-58", "0x1.efe503b4df7d7p-97"),
    ("ray", 50, 700.25): ("0x1.de2ca01b2af7ap-219", "-0x1.24a8a546b1827p-218", "0x1.2ceed90781098p-252"),
    ("slant", 50, 0.3): ("0x1.d61360d411e7fp-57", "-0x1.4d65f85431b4cp-57", "0x1.0fbcbbf1ae9f4p-95"),
    ("slant", 50, 2.0): ("0x1.7db50ca4bcb30p-53", "-0x1.204129c5b3005p-53", "0x1.ac18f509f0bf4p-92"),
    ("slant", 50, 11.0): ("0x1.13363beec3de9p-40", "-0x1.789dff177add0p-40", "0x1.95e48582d530cp-79"),
}


@pytest.mark.parametrize("key", sorted(_SADDLE_BITS))
def test_saddle_float_bits_are_pinned(key):
    piece, n, x = key
    if piece == "ray":
        s = complex(math.sqrt(n), x)
    else:
        s = math.sqrt(2 * math.pi * n) + x * complex(math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8))
    value, bound = floattier._saddle_float(s, 0.0, n, float(mpmath.loggamma(n + 1)))
    assert (value.real.hex(), value.imag.hex(), bound.hex()) == _SADDLE_BITS[key]


def test_float_tier_bits_do_not_depend_on_builtin_sum(monkeypatch):
    # sum() of floats is compensated from Python 3.12; the float tier adds
    # left to right itself, so a compensated builtin moves no pinned bit
    def compensated(xs, start=0):
        xs = list(xs)
        if all(isinstance(x, float) for x in xs):
            return start + math.fsum(xs)
        return start + complex(math.fsum(x.real for x in xs), math.fsum(x.imag for x in xs))

    monkeypatch.setattr(floattier, "sum", compensated, raising=False)
    for key in _LEFT_LINE_BITS:
        test_left_line_float_bits_are_pinned(key)
    for key in _SADDLE_BITS:
        test_saddle_float_bits_are_pinned(key)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=100),
    c=st.sampled_from(["-0.5", "1.5"]),
    t3=st.floats(min_value=0.0, max_value=3e4),
    dps=st.integers(min_value=15, max_value=60),
)
def test_rice_kernel_within_its_stated_bound(n, c, t3, dps):
    with workdps(dps):
        s = mpc(mpf(c), mpf(t3) / 3)  # t in [0, 10^4], with a full mantissa
        fact = mpmath.exp(mpmath.loggamma(n + 1))
        got = contour._rice_kernel(s, n, fact)
        prec = mpmath.mp.prec
    with workdps(dps + 40):
        want = fact / mpmath.fprod(s - j for j in range(n + 1))
        assert abs(got - want) <= (1 + mpf(n + 2) / 256) * mpf(2) ** -prec * abs(want)


@pytest.mark.parametrize("n, target", [(5, 10), (20, 10), (60, 20), (100, 30)])
def test_left_line_integrand_within_30_units_of_its_working_digits(n, target):
    # zeta(-1/2 + it) comes straight from `mpcore._zeta_bounded`, out to the
    # far nodes past t = prec
    working, f = contour._line_data("zeta-left", n, target)[:2]
    for k in range(14):
        with workdps(working):
            t = mpf("0.01") * mpf(630000) ** (mpf(k) / 13)  # 0.01 to 6300
            got = f(t)
        with workdps(working + 40):
            s = mpc(-0.5, t)
            want = mpmath.zeta(s) * mpmath.factorial(n) / mpmath.fprod(s - j for j in range(n + 1))
            assert abs(got - want.real) <= 30 * mpf(10) ** -working * abs(want)


@pytest.mark.parametrize("n, target", [(20, 10), (60, 20), (100, 30)])
def test_left_line_integrand_within_1_unit_of_its_working_digits(n, target):
    # the grid of the 30-unit test: n! is rounded once, so no factor of the
    # integrand errs by a unit
    working, f = contour._line_data("zeta-left", n, target)[:2]
    for k in range(14):
        with workdps(working):
            t = mpf("0.01") * mpf(630000) ** (mpf(k) / 13)  # 0.01 to 6300
            got = f(t)
        with workdps(working + 40):
            s = mpc(-0.5, t)
            want = mpmath.zeta(s) * mpmath.factorial(n) / mpmath.fprod(s - j for j in range(n + 1))
            assert abs(got - want.real) <= mpf(10) ** -working * abs(want)


@pytest.mark.parametrize("kind, n", [("zeta-left", 5), ("zeta-left", 20), ("zeta-right", 20), ("inv-zeta", 10)])
def test_rice_float_bound_covers_the_node_error(kind, n):
    # g(t', dt) at a node t' = t + dt must bound its distance to f(t)
    g = contour._line_data(kind, n, 10)[2]
    c = mpf("-0.5") if kind == "zeta-left" else mpf("1.5")
    for t in (16.0, 100.7, 2500.5):
        dt = 1e-9 * t
        got, bound = g(t + dt, dt)
        with workdps(40):
            s = c + mpc(0, 1) * mpf(t)
            phi = mpcore.zeta_cx(s, 40)
            if kind == "inv-zeta":
                phi = 1 / phi
            want = (phi * contour._rice_kernel(s, n, mpmath.exp(mpmath.loggamma(n + 1)))).real
            assert abs(mpf(got) - want) <= bound


def test_bernoulli_floats_equal_the_mpmath_construction():
    with workdps(30):
        want = tuple(
            (
                float(mpmath.bernoulli(2 * j) * (2 * mpmath.pi) ** (2 * j) / mpmath.factorial(2 * j)),
                float(mpmath.bernoulli(2 * j) / (2 * j * (2 * j - 1))),
            )
            for j in range(1, floattier._EM_TERMS + 1)
        )
    assert floattier._bernoulli_floats() == want


_MOST_MPMATH_NODES = {
    ("zeta-right", 6, 10): 144,
    ("zeta-right", 20, 12): 240,
    ("zeta-left", 20, 10): 384,
    ("inv-zeta", 10, 12): 288,
    (50, 8): 0,
}


@pytest.mark.parametrize(
    "oracle, exact",
    [
        (("zeta-right", 6, 10), differences.delta),
        (("zeta-right", 20, 12), differences.delta),
        (("zeta-left", 20, 10), differences.b),
        (("inv-zeta", 10, 12), differences.d),
        ((50, 8), differences.b),
    ],
)
def test_benchmark_oracles_within_their_error_estimate(oracle, exact):
    if len(oracle) == 3:
        res, n = contour.rice_integral(*oracle), oracle[1]
    else:
        res, n = contour.saddle_contour_integral(*oracle), oracle[0]
    # no Rice start panel is narrower than w0 = 10^(-working/degree), so
    # each line's head is a few wide mpmath panels
    assert res.evaluations[0] <= _MOST_MPMATH_NODES[oracle]
    want = exact(n, 40).value
    with workdps(40):
        assert abs(res.value - want) <= res.error_estimate


def test_graded_boundaries_drop_only_the_narrow_start():
    full = contour._graded_boundaries(0, 16, 12)
    cut = contour._graded_boundaries(0, 16, 12, mpf("0.2"))
    assert cut[0] == 0 and cut[-1] == full[-1]
    assert cut[1:] == [x for x in full if x >= mpf("0.2")]
    assert contour._graded_boundaries(0, 16, 12, mpf(0)) == full


def test_adaptive_quad_counts_nodes_per_tier():
    hi, lo = contour.legendre_rule(16), contour.legendre_rule(8)
    with workdps(20):
        f = lambda t: mpmath.cos(t)
        counts = [0, 0]
        contour._adaptive_quad(f, [mpf(0), mpf(1)], hi, lo, mpf("1e-12"), evaluations=counts)
        assert counts == [24, 0]
        # the float tier refuses t > 1/2, so the second panel goes to mpmath
        g = lambda t, dt: (math.cos(t), 1e-15) if t < 0.5 else None
        counts = [0, 0]
        contour._adaptive_quad(f, [mpf(0), mpf("0.5"), mpf(1)], hi, lo, mpf("1e-12"), g=g,
                               evaluations=counts)
        # the 24 float nodes of the first panel, plus the second panel's
        # first node (nearest t = 1), where g refuses
        assert counts == [24, 25]


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


def test_rice_lines_share_the_bounded_amplitude_table(monkeypatch):
    monkeypatch.setattr(mpcore, "_AMPLITUDES", ())
    keys = set()
    for target in (10, 12):
        working = contour._line_data("zeta-right", 6, target)[0]
        wp = dps_to_prec(working) + 20
        keys.add((to_fixed(from_str("1.5", wp), wp), wp))
        contour.rice_integral("zeta-right", 6, target)
    assert len(keys) == 2
    assert {key for key, _ in mpcore._AMPLITUDES} == keys
    # the inverse line sits on Re s = 3/2 too: no new key at the same digits
    assert contour._line_data("inv-zeta", 6, 11)[0] == working
    contour.rice_integral("inv-zeta", 6, 11)
    assert {key for key, _ in mpcore._AMPLITUDES} == keys
    # the left line, at Re s = -1/2, holds one table of its own
    working = contour._line_data("zeta-left", 20, 10)[0]
    wp = dps_to_prec(working) + 20
    contour.rice_integral("zeta-left", 20, 10)
    keys.add((to_fixed(from_str("-0.5", wp), wp), wp))
    assert {key for key, _ in mpcore._AMPLITUDES} == keys
    for dps in range(10, 30):
        with workdps(dps):
            mpcore._zeta_bounded(mpc("1.5", "2"))
    assert len(mpcore._AMPLITUDES) == mpcore._AMPLITUDE_KEYS


def test_rice_error_estimate_covers_error_at_low_degree(monkeypatch):
    monkeypatch.setattr(contour, "_DEGREE", 6)
    res = contour.rice_integral("zeta-right", 10, 12)
    want = differences.delta(10, 30).value
    with workdps(40):
        assert abs(res.value - want) <= res.error_estimate


class _RuleChosen(Exception):
    pass


def test_left_line_degree_depends_on_the_height_only(monkeypatch):
    # a long left line takes degree 64 whether its height is searched for or
    # given; stop at the rule, not integrate
    chosen = []

    def spy(degree, *args):
        chosen.append(degree)
        raise _RuleChosen

    monkeypatch.setattr(contour, "_embedded_rules", spy)
    for T in (None, 6400.0):
        with pytest.raises(_RuleChosen):
            contour.rice_integral("zeta-left", 5, 10, T=T)
    assert chosen == [64, 64]


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
        contour.rice_integral("zeta-right", 20, 12, T=5.0)


def test_adaptive_quad_out_of_panels_raises():
    hi, lo = contour.legendre_rule(8), contour.legendre_rule(4)
    with workdps(20):
        f = lambda t: mpmath.cos(40 * t)
        bounds = [mpf(0), mpf(1)]
        with pytest.raises(TruncationBoundError, match="budget of 3 panels"):
            contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"), max_panels=3)
        value, err = contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"))
        assert err <= mpf("1e-15")
        assert abs(value - mpmath.sin(40) / 40) < mpf("1e-14")


def test_adaptive_quad_without_float_bounds_matches_no_float_tier():
    hi, lo = contour.legendre_rule(8), contour.legendre_rule(4)
    with workdps(20):
        f = lambda t: mpmath.cos(40 * t)
        bounds = [mpf(0), mpf("0.5"), mpf(1)]
        plain = contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"))
        refused = contour._adaptive_quad(f, bounds, hi, lo, mpf("1e-15"), g=lambda t, dt: None)
    assert [x._mpf_ for x in refused] == [x._mpf_ for x in plain]


def test_adaptive_quad_float_tier_bounds_join_the_error():
    hi, lo = contour.legendre_rule(16), contour.legendre_rule(8)
    node_bound = 1e-13  # covers math.cos and the rounding of 40 t (below 1e-14 on [0, 1])

    def f(t):
        raise AssertionError("every panel should take the float tier")

    def g(t, dt):
        return math.cos(40 * t), node_bound + 40 * dt

    with workdps(20):
        tol = mpf("1e-9")
        value, err = contour._adaptive_quad(f, [mpf(0), mpf(1)], hi, lo, tol, g=g)
        # the bounds sum to at least node_bound times the length, 1
        assert err >= mpf(node_bound)
        assert err <= 1.5 * tol
        assert abs(value - mpmath.sin(40) / 40) <= err


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
