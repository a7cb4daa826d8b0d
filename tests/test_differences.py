"""Difference sequences: closed forms, dual methods, cross-identities."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, workdps

from zetadiff import asymptotics, contour, differences, mpcore, precision, series
from zetadiff.errors import DomainError
from zetadiff.precision import PrecisionBudget, as_budget

# |d_n - D(n)| measured once at 20 digits; regression guards, not oracles
D_GAP = {10: "0.04826", 50: "0.0007321", 100: "9.558e-5", 200: "1.215e-5"}


def test_delta_small_closed_forms():
    with workdps(40):
        z2 = mpmath.zeta(2)
        z3 = mpmath.zeta(3)
        assert differences.delta(0, 20).value == 0
        assert differences.delta(1, 20).value == 0
        assert abs(differences.delta(2, 20).value - z2) < mpf("1e-19")
        assert abs(differences.delta(3, 20).value - (3 * z2 - z3)) < mpf("1e-19")


def test_delta_methods_agree():
    for n in (2, 7, 15, 30):
        vb = differences.delta(n, 14, method="binomial").value
        vs = differences.delta(n, 14, method="series").value
        with workdps(30):
            assert abs(vb - vs) < mpf("1e-12") * max(1, abs(vb))


def test_delta_series_meets_target_at_large_n():
    # the Hurwitz tail sits at shift 2n+1, where mpmath's zeta(j, a) would
    # lose ~40 digits of its tiny value
    for n, target in ((300, 45), (500, 60)):
        series = differences.delta(n, target, method="series").value
        binomial = differences.delta(n, target + 20).value
        with workdps(target + 30):
            assert abs(series - binomial) <= mpf(10) ** -target * abs(binomial)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=400),
    mobius=st.booleans(),
    target=st.integers(min_value=10, max_value=60),
)
def test_rearranged_head_within_its_bound_and_routes_meet_target(n, mobius, target):
    kind, method = ("d", "moebius") if mobius else ("delta", "series")
    working = as_budget(target, kind, n, method=method).working_digits
    L = max(2 * n, 32)
    mu = mpcore.mobius_upto(L) if mobius else None
    bits = differences._fixed_bits(working) + (2 * L).bit_length()
    weights = [(ell, mu[ell] if mobius else 1) for ell in range(1, L + 1)]
    weights = [(ell, w) for ell, w in weights if w]

    # each of the N nonzero-weight head terms is within 2 units of 2^-bits
    head = differences._head_fixed(n, mu, L, bits)
    with workdps(working + 30):
        exact = mpmath.fsum(w * ((1 - mpf(1) / ell) ** n - 1 + mpf(n) / ell) for ell, w in weights)
        assert abs(head - exact * 2**bits) < 2 * len(weights)

    # the rearranged route still meets its target against the binomial route
    call = getattr(differences, kind)
    value = call(n, target, method=method).value
    binomial = call(n, target + 20).value
    with workdps(target + 30):
        assert abs(value - binomial) <= mpf(10) ** -target * abs(binomial)


def test_delta_rejects_unknown_method():
    with pytest.raises(DomainError):
        differences.delta(5, 12, method="contour")


def test_b_small_closed_forms():
    # b_0 = 1/2, b_1 = 1/2 - gamma, b_2 = zeta(2) - 2 gamma - 1/2
    with workdps(40):
        gamma = mpmath.euler
        assert differences.b(0, 20).value == mpf("0.5")
        assert abs(differences.b(1, 25).value - (mpf("0.5") - gamma)) < mpf("1e-24")
        expected2 = mpmath.zeta(2) - 2 * gamma - mpf("0.5")
        assert abs(differences.b(2, 25).value - expected2) < mpf("1e-23")


def test_a_at_unit_shift_reduces_to_b():
    for n in (1, 5, 12):
        va = differences.a(n, (1, 1), 18).value
        vb = differences.b(n, 18).value
        with workdps(40):
            assert abs(va - vb) < mpf("1e-18") * max(1, abs(vb))


def test_a_rejects_index_zero():
    with pytest.raises(DomainError):
        differences.a(0, (1, 2), 12)


def test_A_small_value_direct():
    # A_2(1,2) = C(2,2) zeta(2, 1/2) / 4 = zeta(2,1/2)/4 = pi^2/8
    with workdps(40):
        expected = mpmath.pi ** 2 / 8
        assert abs(differences.A(2, (1, 2), 25).value - expected) < mpf("1e-23")


def test_c_closed_form_and_growth():
    with workdps(40):
        assert abs(differences.c(1, 25).value - mpmath.zeta(2) / 2) < mpf("1e-23")
        # c_n ~ H_n + gamma - 1 grows like log n
        c50 = differences.c(50, 20).value
        h50 = mpcore.harmonic_mpf(50, 40)
        assert abs(c50 - (h50 + mpmath.euler - 1)) < mpf("0.02")


def test_d_quoted_decimals_and_limit():
    vals = {n: differences.d(n, 12).value for n in (20, 50, 100, 200)}
    assert mpmath.nstr(vals[20], 8).startswith("1.93")
    assert mpmath.nstr(vals[50], 8).startswith("1.987")
    assert mpmath.nstr(vals[100], 8).startswith("1.996")
    assert mpmath.nstr(vals[200], 8).startswith("1.9991")


def test_d_methods_agree():
    for n in (2, 10, 30):
        vb = differences.d(n, 14, method="binomial").value
        vm = differences.d(n, 14, method="moebius").value
        with workdps(30):
            assert abs(vb - vm) < mpf("1e-12") * max(1, abs(vb))


def test_D_of_tracks_d_at_matching_arguments():
    with workdps(30):
        for n, quoted in D_GAP.items():
            gap = abs(differences.d(n, 20).value - differences.D_of(n, 20))
            assert gap < mpf(n) ** mpf("0.2")
            assert abs(gap - mpf(quoted)) < mpf(quoted) * mpf("0.01")


def test_D_of_rejects_nonpositive():
    with pytest.raises(DomainError):
        differences.D_of(0, 12)
    with pytest.raises(DomainError):
        differences.D_of(-3, 12)


def test_dirichlet_diff_principal_character_is_delta():
    chi = differences.CharacterTable(1, (1,))
    for n in (2, 6, 11):
        v = differences.dirichlet_diff(chi, n, 15)
        ref = differences.delta(n, 15).value
        with workdps(30):
            assert abs(v - ref) < mpf("1e-13") * max(1, abs(ref))


def test_dirichlet_diff_mod4_matches_beta_series():
    # the odd character mod 4 gives L(chi, l) = beta(l)
    chi = differences.CharacterTable(4, (1, 0, -1, 0))
    n = 8
    v = differences.dirichlet_diff(chi, n, 18)
    with workdps(45):
        expected = mpmath.mpc(0)
        binom = [int(mpmath.binomial(n, l)) for l in range(n + 1)]
        for l in range(2, n + 1):
            beta_l = 4 ** (-mpf(l)) * (mpmath.zeta(l, mpf(1) / 4) - mpmath.zeta(l, mpf(3) / 4))
            expected += (-1) ** l * binom[l] * beta_l
        assert abs(v - expected) < mpf("1e-16")


def test_character_table_validation():
    with pytest.raises(DomainError):
        differences.CharacterTable(3, (1, 1))  # wrong length
    with pytest.raises(DomainError):
        differences.CharacterTable(4, (1, 1, 1, 1))  # not multiplicative mod 4


def test_sequence_many_matches_single_calls_bitwise():
    pts = differences.sequence_many("b", [3, 9, 17], target_digits=15)
    # the batch runs at one shared working precision sized for the largest
    # index; single calls at that same budget must agree bitwise
    from zetadiff.precision import required_working_digits

    working = required_working_digits("b", 17, 15)
    for p in pts:
        single = differences.b(p.n, PrecisionBudget(15, working)).value
        assert single == p.value


def test_sequence_many_takes_no_thread_count():
    # the batch runs in the calling thread; the CLI's --threads is kept for
    # compatibility and changes no byte (test_cli.test_seq_threads_bitwise_identical)
    with pytest.raises(TypeError):
        differences.sequence_many("b", list(range(2, 26)), 15, threads=4)


def test_sequence_many_rejects_empty_and_unknown():
    with pytest.raises(DomainError):
        differences.sequence_many("b", [], 12)
    with pytest.raises(DomainError):
        differences.sequence_many("q", [2, 3], 12)


def test_library_calls_leave_mp_precision_unchanged():
    chi = differences.CharacterTable(4, (1, 0, -1, 0))
    calls = [
        lambda: mpcore.hurwitz_int(7, (1, 3), 40),
        lambda: mpcore.hurwitz_int(9, 601, 40),
        lambda: differences.A(60, (2, 5), 20),
        lambda: differences.a(60, (1, 2), 20),
        lambda: differences.dirichlet_diff(chi, 40, 15),
        lambda: differences.sequence_many("a", list(range(1, 41)), 15, shift=(3, 4)),
        lambda: differences.d(60, 15, method="moebius"),
        lambda: differences.D_of(30, 20),
        lambda: differences.delta(40, 15),
        lambda: differences.b(40, 15),
        lambda: differences.d(40, 15),
        lambda: differences.c(40, 15),
        lambda: differences.sequence_many("b", list(range(1, 41)), 15),
        lambda: differences.sequence_many("delta", list(range(2, 41)), 15),
        lambda: differences.sequence_many("d", list(range(2, 41)), 15),
        lambda: differences.sequence_many("c", list(range(1, 41)), 15),
        lambda: mpcore.zeta_int(5, 40),
        lambda: series.ogf_coeffs(8, 20),
        lambda: series.egf_coeffs(8, 20),
        lambda: series.newton_eval(mpf("0.5"), 100, 10),
        lambda: asymptotics.envelope_bound(50, 30),
        lambda: asymptotics.b_asym(50, 30),
        lambda: contour.rice_integral("zeta-right", 6, 10),
        lambda: contour.rice_integral("zeta-left", 20, 10),
        lambda: contour.rice_integral("inv-zeta", 10, 12),
        lambda: mpcore.zeta_cx(mpmath.mpc("-0.5", 7), 30),
        lambda: contour.saddle_contour_integral(50, 8),
    ]
    saved = mpmath.mp.prec
    try:
        mpmath.mp.prec = 77
        for call in calls:
            call()
            assert mpmath.mp.prec == 77
    finally:
        mpmath.mp.prec = saved


@pytest.mark.parametrize("prec", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: mpcore.zeta_int(3, p),
        lambda p: asymptotics.b_asym(50, p),
        lambda p: contour.rice_integral("zeta-right", 6, p),
        lambda p: series.newton_eval(mpf("0.5"), 100, p),
        lambda p: series.ogf_coeffs(8, p),
    ],
    ids=["zeta_int", "b_asym", "rice_integral", "newton_eval", "ogf_coeffs"],
)
def test_nonpositive_precision_is_a_domain_error(call, prec):
    with pytest.raises(DomainError):
        call(prec)


@pytest.mark.parametrize(
    "call",
    [
        lambda: series.newton_eval(mpmath.inf, 10),
        lambda: series.newton_eval(mpmath.nan, 10),
        lambda: contour.rice_integral("zeta-right", 6, 10, T="x"),
        lambda: precision.parse_decimal("abc"),
        lambda: series.newton_eval("abc", 10),
        lambda: series.newton_eval(None, 10),
    ],
    ids=["newton_eval-inf", "newton_eval-nan", "rice_integral-T", "parse_decimal", "newton_eval-abc",
         "newton_eval-None"],
)
def test_bad_library_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# (kind, method, n, digits) read from the zeta table at several widths
MEMO_CASES = [
    ("b", None, 300, 15), ("b", None, 40, 60), ("delta", "binomial", 200, 25),
    ("d", "binomial", 150, 12), ("d", "moebius", 60, 20), ("c", None, 350, 40),
]


def _memo_case_value(kind, method, n, digits):
    call = getattr(differences, kind)
    return (call(n, digits, method=method) if method else call(n, digits)).value._mpf_


def test_single_calls_do_not_depend_on_the_zeta_table_memo(monkeypatch):
    cold = []
    for case in MEMO_CASES:  # each case from an empty memo
        monkeypatch.setattr(mpcore, "_ZETA_FIXED", (0, ()))
        cold.append(_memo_case_value(*case))
    mpcore._zeta_rounded(1200, 400)  # longer and wider than any case needs
    assert mpcore._ZETA_FIXED[0] > mpcore._fixed_bits(200)
    assert [_memo_case_value(*case) for case in MEMO_CASES] == cold


def test_single_large_index_reads_the_zeta_table(monkeypatch):
    monkeypatch.setattr(mpcore, "_ZETA_FIXED", (0, ()))
    calls, original = [], mpcore.zeta_int

    def counted(ell, prec=None):
        calls.append(ell)
        return original(ell, prec)

    monkeypatch.setattr(mpcore, "zeta_int", counted)
    differences.b(1000, 15)
    assert len(calls) <= 10  # only the inputs near a rounding tie


@pytest.mark.parametrize("bits", [60, 92, 217])
def test_harmonic_fixed_equals_the_exact_fraction_floors(monkeypatch, bits):
    ns = list(range(0, 3001))
    exact, h = {}, Fraction(0)
    for n in ns:
        if n >= 2:
            h += Fraction(1, n - 1)
        exact[n] = (h.numerator << bits) // h.denominator
    exact_sums = []
    harmonic = mpcore.harmonic

    def counted(n):
        exact_sums.append(n)
        return harmonic(n)

    monkeypatch.setattr(mpcore, "harmonic", counted)
    assert differences._harmonic_fixed(ns, bits) == exact
    # bits 92 and 217 each put one running sum within n units of 2^g
    assert exact_sums == {60: [], 92: [2184], 217: [557]}[bits]
