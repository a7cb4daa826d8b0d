"""Multiprecision primitive layer: caches, special values, reflection."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp, mpf, workdps
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from zetadiff import mpcore
from zetadiff.errors import DomainError


def test_zeta_int_matches_closed_forms():
    with workdps(40):
        assert abs(mpcore.zeta_int(2, 40) - mpmath.pi ** 2 / 6) < mpf("1e-38")
        assert abs(mpcore.zeta_int(4, 40) - mpmath.pi ** 4 / 90) < mpf("1e-38")


def test_zeta_int_rejects_bad_exponents():
    for bad in (1, 0, -3, True, 2.0):
        with pytest.raises(DomainError):
            mpcore.zeta_int(bad, 20)


def test_zeta_cache_survives_precision_bumps():
    v_low = mpcore.zeta_int(3, 20)
    v_high = mpcore.zeta_int(3, 60)
    with workdps(60):
        assert abs(v_low - v_high) < mpf("1e-18")
    # the cache refilled at 60 digits must still serve 20-digit requests
    again = mpcore.zeta_int(3, 20)
    assert again == v_low


def test_hurwitz_int_matches_direct_evaluation():
    with workdps(45):
        direct = mpmath.zeta(5, mpf(1) / 3)
        assert abs(mpcore.hurwitz_int(5, (1, 3), 45) - direct) < mpf("1e-40")
        # integer shift path
        assert abs(mpcore.hurwitz_int(4, 7, 45) - mpmath.zeta(4, 7)) < mpf("1e-40")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ell=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
    digits=st.integers(min_value=10, max_value=200),
)
@example(ell=400, k=8, data=None, digits=200)
@example(ell=2, k=1, data=None, digits=10)
# m = k = 1 on both sides of L, the last l with a tail: L = 12, 35, 87 at
# 10, 60, 200 digits; even l <= L come from the closed form
@example(ell=11, k=1, data=None, digits=10)
@example(ell=12, k=1, data=None, digits=10)
@example(ell=13, k=1, data=None, digits=10)
@example(ell=14, k=1, data=None, digits=10)
@example(ell=34, k=1, data=None, digits=60)
@example(ell=35, k=1, data=None, digits=60)
@example(ell=36, k=1, data=None, digits=60)
@example(ell=37, k=1, data=None, digits=60)
@example(ell=86, k=1, data=None, digits=200)
@example(ell=87, k=1, data=None, digits=200)
@example(ell=88, k=1, data=None, digits=200)
@example(ell=89, k=1, data=None, digits=200)
def test_hurwitz_fixed_within_two_units(ell, k, data, digits):
    m = data.draw(st.integers(min_value=1, max_value=k), label="m") if data else 1
    bits = mpcore._fixed_bits(digits)
    got = mpcore._hurwitz_fixed(ell, m, k, bits)[ell]
    with workdps(digits + 40):
        want = mpmath.zeta(ell, mpf(m) / k) / mpf(k) ** ell * mpf(2) ** bits
        assert abs(got - want) <= 2


def test_hurwitz_fixed_entry_does_not_depend_on_table_length():
    for m, k, digits in ((1, 1, 30), (1, 2, 120), (3, 4, 60), (2, 5, 200), (7, 8, 15)):
        bits = mpcore._fixed_bits(digits)
        table = mpcore._hurwitz_fixed(400, m, k, bits)
        for ell in (2, 3, 17, 64, 199, 400):
            assert mpcore._hurwitz_fixed(ell, m, k, bits)[ell] == table[ell]
            assert mpcore._hurwitz_fixed(ell, m, k, bits, bottom=ell)[ell] == table[ell]
    # bottom/top pairs around L, the last l with a tail, and around the anchors
    # where the chained tail terms restart (l = 2 mod 16; l = 3 mod 32 for m = k = 1)
    for m, k, digits, centres in ((1, 1, 10, (12,)), (1, 1, 60, (35,)), (1, 1, 200, (67, 87)),
                                  (3, 4, 60, (18, 27)), (2, 5, 200, (66, 67))):
        bits = mpcore._fixed_bits(digits)
        table = mpcore._hurwitz_fixed(100, m, k, bits)
        for c in centres:
            for bottom in (c - 1, c, c + 1):
                for top in (bottom, bottom + 2):
                    got = mpcore._hurwitz_fixed(top, m, k, bits, bottom=bottom)
                    assert got == [0] * bottom + table[bottom:top + 1], (m, k, bottom, top)


@pytest.mark.parametrize("shift", [(1, 2), (1, 3), (3, 4), (2, 5), 7, 601])
def test_hurwitz_int_relative_accuracy(shift):
    for ell in (2, 5, 30, 150):
        for digits in (15, 60):
            got = mpcore.hurwitz_int(ell, shift, digits)
            # mpmath's own tail is absolute, so give it the digits the value lacks
            lost = math.ceil(ell * math.log10(shift)) if isinstance(shift, int) else 0
            with workdps(digits + lost + 30):
                a = shift if isinstance(shift, int) else mpf(shift[0]) / shift[1]
                want = mpmath.zeta(ell, a)
                assert abs(got - want) <= mpf(2) ** (1 - dps_to_prec(digits)) * want


def test_hurwitz_shift_validation():
    with pytest.raises(DomainError):
        mpcore.hurwitz_int(3, (3, 2), 20)  # m > k
    with pytest.raises(DomainError):
        mpcore.hurwitz_int(3, (0, 2), 20)
    with pytest.raises(DomainError):
        mpcore.hurwitz_int(3, 0, 20)


def test_euler_gamma_and_harmonic():
    with workdps(50):
        assert abs(mpcore.euler_gamma(50) - mpmath.euler) < mpf("1e-48")
    from fractions import Fraction

    assert mpcore.harmonic(5) == Fraction(137, 60)
    assert mpcore.harmonic(0) == Fraction(0)
    with workdps(40):
        h = mpcore.harmonic_mpf(100, 40)
        exact = sum(Fraction(1, j) for j in range(1, 101))
        assert abs(h - mpmath.mpf(exact.numerator) / exact.denominator) < mpf("1e-36")


def test_digamma_rational_half_closed_form():
    # psi(1/2) = -gamma - 2 ln 2
    with workdps(45):
        expected = -mpmath.euler - 2 * mpmath.log(2)
        assert abs(mpcore.digamma_rational((1, 2), 45) - expected) < mpf("1e-42")


def _digamma_by_mpmath(shift, working):
    """psi(m/k) as digamma_rational took it before its closed form: mpmath.digamma
    at working + 10 digits, rounded once."""
    with workdps(working + 10):
        v = mpmath.digamma(mpcore.RationalShift(*shift).as_mpf())
    with workdps(working):
        return +v


@pytest.mark.parametrize("working", [15, 45, 90])
def test_digamma_rational_equals_mpmath_digamma_bit_for_bit(working):
    # every 1 <= m <= k <= 12: m = k (psi(1) = -gamma) and shifts that are not
    # in lowest terms, such as (2, 4), included
    for k in range(1, 13):
        for m in range(1, k + 1):
            got = mpcore.digamma_rational((m, k), working)
            assert got._mpf_ == _digamma_by_mpmath((m, k), working)._mpf_, (m, k)


def test_gamma_cx_matches_mpmath_and_flags_poles():
    with workdps(40):
        s = mpmath.mpc("1.5", "2.5")
        assert abs(mpcore.gamma_cx(s, 40) - mpmath.gamma(s)) < mpf("1e-36")
    with pytest.raises(DomainError):
        mpcore.gamma_cx(-2, 30)


def test_zeta_cx_reflection_agrees_with_direct():
    # the left half-plane routes through the functional equation; mpmath's
    # own analytic continuation is the independent reference
    with workdps(40):
        for s in (mpmath.mpc("-0.5", "3.0"), mpmath.mpc("-2.3", "-1.1"), mpmath.mpc("0.3", "14.0")):
            ours = mpcore.zeta_cx(s, 40)
            ref = mpmath.zeta(s)
            assert abs(ours - ref) < mpf("1e-35") * max(1, abs(ref))


def _bounded_calls(monkeypatch, s):
    """(value, bound, whether `_zeta_bounded` handed s to mpmath.zeta)."""
    fallbacks = []
    zeta = mpmath.zeta

    def counted(x):
        fallbacks.append(x)
        return zeta(x)

    monkeypatch.setattr(mpmath, "zeta", counted)
    value, bound = mpcore._zeta_bounded(s)
    monkeypatch.setattr(mpmath, "zeta", zeta)
    return value, bound, bool(fallbacks)


def _check_bounded(s, value, bound, fell):
    """mpmath.zeta's own bits where s was handed on; else within the bound."""
    if fell:
        assert value._mpc_ == mpmath.zeta(s)._mpc_
    else:
        with workdps(mpmath.mp.dps + 30):
            assert abs(value - mpmath.zeta(s)) <= bound


@pytest.mark.parametrize("s, dps, falls_back", [
    (("2.5", "0"), 30, True),  # real s
    (("-0.5", "7"), 30, False),  # Re s < 0
    (("0.5", "14"), 30, False),  # on the critical line
    (("1", "1e-30"), 30, False),  # near the pole: 1/(s - 1) is an exact division
    (("1", "1e-30"), 70, False),
    (("1.5", "3"), 30, False),
    (("0.25", "14"), 30, False),  # 0 < Re s < 1/2
])
def test_zeta_borwein_branches_as_mpc_zeta(monkeypatch, s, dps, falls_back):
    # only real s is handed to mpmath.zeta; every other s has a proven bound
    with workdps(dps):
        s = mpmath.mpc(*s)
        value, bound, fell = _bounded_calls(monkeypatch, s)
        assert fell == falls_back
        _check_bounded(s, value, bound, fell)


@pytest.mark.parametrize("dps", [20, 45, 70])
@pytest.mark.parametrize("offset", ["-0.9", "-0.5", "0.04", "0.5", "0.9"])
def test_zeta_borwein_tests_abs_s_at_ten_bits_like_mpmath(monkeypatch, dps, offset):
    # |s| = prec + offset: mpmath's own zeta leaves Borwein's algorithm where
    # |s| at 10 bits exceeds prec; the Euler-Maclaurin route has no such edge
    # and bounds s on both sides of it
    with workdps(dps):
        prec = mpmath.mp.prec
        t = mpmath.sqrt((prec + mpf(offset)) ** 2 - mpf("2.25"))
        s = mpmath.mpc("1.5", t)
        value, bound, fell = _bounded_calls(monkeypatch, s)
        assert not fell
        _check_bounded(s, value, bound, fell)


def test_zeta_borwein_recomputes_an_amplitude_whose_log_moved(monkeypatch):
    # mpmath's log cache can refine log k in its last bit; a stored amplitude
    # is read only with the log it was made from
    monkeypatch.setattr(mpcore, "_AMPLITUDES", ())
    with workdps(30):
        s = mpmath.mpc("1.5", "5.25")
        want = mpcore._zeta_bounded(s)
        (key, table), = mpcore._AMPLITUDES
        stale = list(table)
        log, amp, *floats = stale[3]
        stale[3] = (log + 1, amp + 12345, *floats)
        monkeypatch.setattr(mpcore, "_AMPLITUDES", ((key, tuple(stale)),))
        assert mpcore._zeta_bounded(s) == want
        assert mpcore._AMPLITUDES == ((key, table),)


def test_zeta_cx_pole_rejected():
    with pytest.raises(DomainError):
        mpcore.zeta_cx(1, 30)


def test_zeta_cx_at_and_near_zero():
    # zeta(0) = -1/2, where sin(pi s/2) vanishes and zeta(1 - s) has its pole
    assert mpcore.zeta_cx(0, 30) == mpf("-0.5")
    got = mpcore.zeta_cx(mpf("1e-30"), 30)
    with workdps(60):
        want = mpmath.zeta(mpf("1e-30"))
        assert abs(got - want) < mpf("1e-30") * abs(want)


def test_mobius_upto_initial_segment():
    mu = mpcore.mobius_upto(12)
    assert mu[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_rational_shift_validation_and_values():
    s = mpcore.RationalShift(2, 3)
    assert float(s.as_fraction()) == pytest.approx(2 / 3)
    with pytest.raises(DomainError):
        mpcore.RationalShift(0, 3)
    with pytest.raises(DomainError):
        mpcore.RationalShift(4, 3)


def _zeta_int_calls(monkeypatch):
    """Record the exponents of every `mpcore.zeta_int` call from here on."""
    calls, original = [], mpcore.zeta_int

    def counted(ell, prec=None):
        calls.append(ell)
        return original(ell, prec)

    monkeypatch.setattr(mpcore, "zeta_int", counted)
    return calls


@pytest.mark.parametrize("digits", [10, 30, 60, 153, 250])
def test_zeta_rounded_equals_zeta_int_bit_for_bit(digits):
    table = mpcore._zeta_rounded(600, digits)
    assert table[:2] == [None, None] and len(table) == 601
    for k in range(2, 601):
        assert table[k]._mpf_ == mpcore.zeta_int(k, digits)._mpf_, k


def test_zeta_rounded_wide_window_falls_back_with_the_same_bits(monkeypatch):
    decided = mpcore._zeta_rounded(120, 40)
    calls = _zeta_int_calls(monkeypatch)
    # a window wider than the rounding step leaves every entry undecided
    forced = mpcore._zeta_rounded(120, 40, window=1 << 20)
    assert calls == list(range(2, 121))
    assert [z._mpf_ for z in forced[2:]] == [z._mpf_ for z in decided[2:]]


def _cell_edges(prec, sh, rng):
    """x around the rounding cells of a random mantissa at prec + sh bits."""
    m = rng.randrange(1 << (prec - 1), 1 << prec)
    half = 1 << (sh - 1)
    for edge in ((m << sh) - half, (m << sh) + half, m << sh,
                 ((m | 1) << sh) - half, ((m | 1) << sh) + half,
                 (1 << (prec + sh)) - 1, 1 << (prec + sh - 1)):
        for d in range(-4, 5):
            yield edge + d


@pytest.mark.parametrize("working", [5, 15, 30, 60, 153])
def test_rounds_alike_decides_as_both_ends_rounded(working):
    # the old decision rounded x - window and x + window and compared them
    prec = dps_to_prec(working)
    rng = random.Random(working)
    for sh in (1, 2, 3, 10, 11, 40):
        for _ in range(40):
            for x in _cell_edges(prec, sh, rng):
                for window in (0, 1, 2, 3, 4):
                    both = (libmp.from_man_exp(x - window, -sh, prec, round_nearest)
                            == libmp.from_man_exp(x + window, -sh, prec, round_nearest))
                    assert mpcore._rounds_alike(x, window, prec) == both, (x, window, prec)


def test_batch_near_a_tie_takes_the_fallback(monkeypatch):
    from zetadiff import differences

    calls = _zeta_int_calls(monkeypatch)
    differences.sequence_many("b", list(range(1, 2001)), 15)
    # five of the 1,999 inputs of this batch lie within the window of a tie
    assert calls == [279, 673, 775, 777, 1205]


def test_single_index_near_a_tie_falls_back_at_most_three_times(monkeypatch):
    from zetadiff import differences

    monkeypatch.setattr(mpcore, "_ZETA_FIXED", (0, ()))
    calls = _zeta_int_calls(monkeypatch)
    differences.b(1000, 15)
    assert len(calls) <= 3  # three of its inputs lie within the window of a tie


def test_bernoulli_even_equals_bernfrac():
    for n in range(2, 401, 2):
        assert mpcore._bernoulli_even(n) == Fraction(*mpmath.bernfrac(n)), n


def test_bernoulli_even_grows_to_the_index_asked(monkeypatch):
    monkeypatch.setattr(mpcore, "_BERNOULLI", ((), ()))
    for n, size in ((10, 5), (4, 5), (64, 32), (66, 33)):
        assert mpcore._bernoulli_even(n) == Fraction(*mpmath.bernfrac(n)), n
        assert len(mpcore._BERNOULLI[0]) == size


def test_from_fixed_rounds_as_from_rational():
    working, bits = 12, 80
    prec = dps_to_prec(working)
    step = bits - prec + 1  # ulp of a value in [1, 2), in units of 2^-bits
    man = (1 << (prec - 1)) + 12345
    cases = [
        (man << step) + (1 << (step - 1)),  # tie, odd mantissa: rounds up
        ((man + 1) << step) + (1 << (step - 1)),  # tie, even mantissa: stays
        (man << step) + (1 << (step - 1)) - 1,
        (man << step) + (1 << (step - 1)) + 1,
        0, 1, -1, 7 << 200, -(3 ** 90),
    ]
    rng = random.Random(11)
    cases += [rng.randrange(-(1 << 300), 1 << 300) >> rng.randrange(300) for _ in range(2000)]
    for num in cases:
        for sign in (1, -1):
            want = from_rational(sign * num, 1 << bits, prec, round_nearest)
            assert mpcore._from_fixed(sign * num, bits, working)._mpf_ == want, num


def test_zeta_table_memo_keeps_the_largest_top_and_bits(monkeypatch):
    monkeypatch.setattr(mpcore, "_ZETA_FIXED", (0, ()))
    mpcore._zeta_rounded(50, 30)
    first = mpcore._ZETA_FIXED
    mpcore._zeta_rounded(20, 60)  # more bits, fewer entries: rebuilt at both maxima
    second = mpcore._ZETA_FIXED
    assert (second[0], len(second[1])) == (mpcore._fixed_bits(60), 51)
    # the first tuple was rebound away, not edited
    assert (first[0], len(first[1])) == (mpcore._fixed_bits(30), 51)
    mpcore._zeta_rounded(40, 20)  # inside both: read by shifting down
    assert mpcore._ZETA_FIXED is second
    builds, build = [], mpcore._hurwitz_fixed

    def counted(top, m, k, bits, bottom=2):
        builds.append((top, bottom))
        return build(top, m, k, bits, bottom)

    monkeypatch.setattr(mpcore, "_hurwitz_fixed", counted)
    mpcore._zeta_rounded(80, 60)  # more entries at the held bits: only the new ones built
    third = mpcore._ZETA_FIXED
    assert builds == [(80, 51)]
    assert third[0] == second[0] and third[1][:51] == second[1]
    assert list(third[1]) == build(80, 1, 1, third[0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(min_value=2, max_value=250),
    working=st.integers(min_value=10, max_value=120),
    down=st.sampled_from([0, 1, 7, 100]),
)
def test_zeta_fixed_entry_shifted_down_stays_within_two_units(k, working, down):
    bits = mpcore._fixed_bits(working)
    x = mpcore._hurwitz_fixed(k, 1, 1, bits + down)[k] >> down
    with workdps(working + 40):
        assert abs(x - mpmath.zeta(k) * mpf(2) ** bits) <= 2


def test_zeta_rounded_from_threads_gives_zeta_int_bits(monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(mpcore, "_ZETA_FIXED", (0, ()))
    # no entry of these lies near a tie, so no thread sets mpmath's precision
    requests = [(120, 90), (60, 150), (150, 60), (40, 200)]
    results = {r: [] for r in requests}
    start = threading.Barrier(len(requests))

    def run(i):  # every thread asks for every request, each from its own start
        start.wait()
        for top, working in (requests[i:] + requests[:i]) * 2:
            results[top, working].append(mpcore._zeta_rounded(top, working))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(requests))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (top, working), tables in results.items():
        want = [mpcore.zeta_int(k, working)._mpf_ for k in range(2, top + 1)]
        assert len(tables) == 2 * len(requests)
        for table in tables:
            assert [z._mpf_ for z in table[2:]] == want
    # whichever rebinding won, the memo is one whole table at one width
    cbits, table = mpcore._ZETA_FIXED
    assert list(table) == mpcore._hurwitz_fixed(len(table) - 1, 1, 1, cbits)


# both Rice lines, Re s = 3/2 and -1/2, at heights across their mpmath nodes
# and beyond (the far left-line nodes pass t = prec)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sigma=st.sampled_from(["1.5", "-0.5"]),
    t=st.floats(0.01, 400, allow_nan=False),
    sign=st.sampled_from([1, -1]),
    dps=st.integers(10, 60),
)
@example(sigma="1.5", t=400.0, sign=1, dps=60)
@example(sigma="-0.5", t=0.01, sign=-1, dps=10)
# the old |s| = prec edge, where mpmath leaves Borwein's algorithm
@example(sigma="1.5", t=36.96, sign=1, dps=10)
@example(sigma="-0.5", t=37.01, sign=1, dps=10)
@example(sigma="1.5", t=202.99, sign=-1, dps=60)
@example(sigma="-0.5", t=203.01, sign=1, dps=60)
def test_zeta_bounded_within_its_bound(sigma, t, sign, dps):
    with workdps(dps):
        prec = mpmath.mp.prec
        s = mpmath.mpc(sigma, sign * mpf(t))
        value, bound = mpcore._zeta_bounded(s)
        wp = prec + 20
        sizes = mpcore._em_sizes(float(sigma), wp, int(t / (2 * math.pi)))
        logs, _ = mpcore._amplitudes(libmp.to_fixed(s._mpc_[0], wp), wp, sizes[0])
    with workdps(dps + 30):
        assert abs(value - mpmath.zeta(s)) <= bound <= mpmath.ldexp(abs(value), 4 - prec)
    # the phases: each product floored in both parts, each within its charge
    imf = libmp.to_fixed(s._mpc_[1], wp)
    res, ims, charges = mpcore._dirichlet_phases(imf, logs, wp)
    spf = mpcore._least_prime_factors(len(logs))
    with workdps(dps + 30):
        for k in range(2, len(logs) + 1):
            p, q = spf[k], k // spf[k]
            if p < k:
                re2 = res[p] * res[q] - ims[p] * ims[q]
                im2 = res[p] * ims[q] + ims[p] * res[q]
                assert 0 <= re2 - (res[k] << wp) < 1 << wp, k
                assert 0 <= im2 - (ims[k] << wp) < 1 << wp, k
            exact = mpmath.expj(-s.imag * mpmath.log(k)) * mpmath.ldexp(1, wp)
            assert abs(mpmath.mpc(res[k], ims[k]) - exact) <= charges[k], k


def test_zeta_bounded_calls_cos_sin_fixed_at_primes_only(monkeypatch):
    with workdps(30):
        s = mpmath.mpc("1.5", "7.25")
        wp = mpmath.mp.prec + 20
        n = mpcore._em_sizes(1.5, wp, 1)[0]
        logs, _ = mpcore._amplitudes(libmp.to_fixed(s._mpc_[0], wp), wp, n)
        imf = libmp.to_fixed(s._mpc_[1], wp)
        primes = [k for k in range(2, n + 1) if all(k % j for j in range(2, k))]
        seen = []
        real = mpcore.cos_sin_fixed

        def spy(x, prec, pi2=None):
            seen.append(x)
            return real(x, prec, pi2)

        monkeypatch.setattr(mpcore, "cos_sin_fixed", spy)
        mpcore._zeta_bounded(s)
    assert seen == [(-imf * logs[p - 1]) >> wp for p in primes]
    assert (n, len(primes)) == (21, 8)


def test_em_sizes_keep_the_remainder_below_one_unit():
    # Johansson's remainder 4 |(s)_2M| / (2 pi N)^2M N^(1-sigma) / (sigma +
    # 2M - 1), from log Gamma at the top of each height band, is below one
    # unit 2^-wp and below the R returned, and |r_j| < 1 for j < M, on both
    # lines for wp 24..2400 and |t| up to 3000
    heights = [0.0, 1.0, 30.0, 62.0, 180.0, 700.0, 1500.0, 3000.0]
    heights += [2 * math.pi * j - 1e-9 for j in (1, 10, 100, 477)]
    with workdps(20):
        for sigma in (1.5, -0.5):
            for wp in range(24, 2401, 97):
                for t in heights:
                    band = int(t / (2 * math.pi))
                    n, m, rem, _, _ = mpcore._em_sizes(sigma, wp, band)
                    top = mpf(2 * math.pi) * (band + 1)
                    s = mpmath.mpc(sigma, top)
                    log_r = (mpmath.log(4) + (mpmath.loggamma(s + 2 * m) - mpmath.loggamma(s)).real
                             - 2 * m * mpmath.log(2 * mpmath.pi * n) + (1 - sigma) * mpmath.log(n)
                             - mpmath.log(sigma + 2 * m - 1))
                    assert sigma + 2 * m > 1
                    assert log_r < -wp * mpmath.log(2), (sigma, wp, t)
                    assert mpmath.exp(log_r + wp * mpmath.log(2)) <= rem * (1 + 2.0**-30)
                    # |s + k| grows with k >= 1 here, so r_(M-1) is the largest
                    last = abs((s + 2 * m - 3) * (s + 2 * m - 2)) if m > 1 else 0
                    assert last < (2 * mpmath.pi * n) ** 2, (sigma, wp, t)
