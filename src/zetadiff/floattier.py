"""The float64 tier of the contour oracles.

Away from the start of each contour the integrand needs only 1e-11..1e-13
relative accuracy, yet one mpmath-tier zeta costs 0.1-0.25 ms on the head of
a Rice line at 26-58 digits, and ~4 ms at t ~ 6000, 36 digits, on the left
line (`mpcore._zeta_bounded`; mpmath.zeta itself takes 1.5-6 and ~35 ms
there).  This module evaluates the integrands in float64 with a proven
bound on the error: zeta by Euler-Maclaurin (`_zeta_float`), log Gamma by
Stirling's series (`_loggamma_float`), and on them the integrand of each
Rice line and of the saddle contour.  Every float
integrand returns (value, bound), or None where its bound does not hold; the
bound covers the rounding dt of the float node too, on every line and saddle
piece.  The Dirichlet amplitudes k^-sigma come from one table per sigma and
the Bernoulli numbers from `mpcore._bernoulli_even`.  This module holds
float math only: which panels take the float tier is decided by the
quadrature driver in `contour`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator

import mpmath
from mpmath import workdps

from .mpcore import _bernoulli_even

_U = 2.0**-53  # unit roundoff of IEEE double
_LN_2PI = math.log(2 * math.pi)
_LOG_I_2 = complex(-math.log(2), math.pi / 2)  # log(i/2)
_FLOAT_T_MIN = 16.0  # 10 Stirling terms reach 1e-21 there
_STIRLING_TERMS = 10
_EM_TERMS = 60
# |zeta'/zeta(w)| <= -zeta'(Re w)/zeta(Re w), which is below these at Re w = 3/2, 2
_LOG_DERIV_ZETA_3_2 = 1.51
_LOG_DERIV_ZETA_2 = 0.57


def _sum(xs):
    """The terms added left to right in plain float arithmetic, as sum() adds
    them up to Python 3.11; from 3.12 sum() compensates float sums, which
    would move the bits and the bounds."""
    return functools.reduce(operator.add, xs, 0.0)


@functools.lru_cache(maxsize=None)
def _bernoulli_floats():
    """(B_2j (2 pi)^2j / (2j)!,  B_2j / (2j (2j-1))) for j = 1.._EM_TERMS."""
    with workdps(30):
        bern = (+mpmath.fraction(b.numerator, b.denominator)
                for b in map(_bernoulli_even, range(2, 2 * _EM_TERMS + 1, 2)))
        return tuple((float(b * (2 * mpmath.pi) ** (2 * j) / mpmath.factorial(2 * j)),
                      float(b / (2 * j * (2 * j - 1)))) for j, b in enumerate(bern, start=1))


@functools.lru_cache(maxsize=8)
def _log_table(size: int):
    """ln k for k = 1..size."""
    return tuple(math.log(k) for k in range(1, size + 1))


@functools.lru_cache(maxsize=32)
def _dirichlet_terms(sigma: float, size: int):
    """k^-sigma for k = 1..size, and the running sums of k^-sigma and
    k^-sigma ln k (index m holds the sum over k <= m)."""
    amps = tuple(k**-sigma for k in range(1, size + 1))
    sum_a = tuple(itertools.accumulate(amps, initial=0.0))
    sum_al = tuple(itertools.accumulate((a * lk for a, lk in zip(amps, _log_table(size))), initial=0.0))
    return amps, sum_a, sum_al


def _zeta_float(w: complex) -> tuple[complex, float]:
    """(zeta(w) in float64, bound on its error) for Re w > 1.

    Euler-Maclaurin with N ~ |w|/pi terms; its remainder after M corrections
    is at most 4 |(w)_2M| / (2 pi N)^2M N^(1-sigma) / (sigma+2M-1)
    (Johansson 2014, Thm 1).  The bound charges the phase t ln k of each
    k^(-w), including the rounding of t itself, the summation of the N head
    terms and the products behind each correction term.  The k^-sigma and
    their running sums come from `_dirichlet_terms`, one table per sigma.
    """
    u = _U
    sigma, t = w.real, -w.imag
    at = abs(t)
    # head, tail and corrections
    big_n = int(abs(w) / math.pi) + 8
    # tables come in power-of-two sizes, so a handful serve a whole contour
    size = 1 << (big_n - 1).bit_length()
    logs = _log_table(size)
    amps, sum_a, sum_al = _dirichlet_terms(sigma, size)
    s_a, s_al = sum_a[big_n - 1], sum_al[big_n - 1]
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for a, lk in itertools.islice(zip(amps, logs), big_n - 1):
        ph = t * lk
        re += a * cos(ph)
        im += a * sin(ph)
    head = complex(re, im)
    err_head = 2 * u * (6 * at * s_al + (big_n + 4) * s_a)
    ln_n = math.log(big_n)
    a_n = big_n**-sigma
    n_w = a_n * complex(cos(t * ln_n), sin(t * ln_n))  # N^-w
    n_w1 = big_n * n_w  # N^(1-w)
    eps_n = u * (6 * at * ln_n + 4)
    tail = n_w1 / (w - 1) + n_w / 2
    err_tail = a_n * (big_n / abs(w - 1) * (eps_n + 4 * u) + (eps_n + u) / 2)
    two_pi_n = 2 * math.pi * big_n
    c0 = n_w1 / two_pi_n
    q = w / two_pi_n  # (w)_(2j-1) / (2 pi N)^(2j-1)
    corr = 0j
    corr_abs = corr_weighted = 0.0
    rem = 0.0
    coeffs = _bernoulli_floats()
    for j, (bt, _) in enumerate(coeffs, start=1):
        term = bt * q * c0
        corr += term
        corr_abs += abs(term)
        corr_weighted += j * abs(term)
        rem = 4 * abs(q) * abs(w + (2 * j - 1)) / two_pi_n * a_n * big_n / (sigma + 2 * j - 1)
        if rem < 1e-4 * u:
            break
        q *= (w + (2 * j - 1)) * (w + 2 * j) / (two_pi_n * two_pi_n)
    err_corr = 8 * u * (corr_weighted + corr_abs) + (eps_n + len(coeffs) * u) * corr_abs
    value = head + tail + corr
    return value, err_head + err_tail + err_corr + rem + 2 * u * (abs(head) + abs(tail) + corr_abs)


def _stirling_float(w: complex):
    """Stirling's series for log Gamma(w), Re w > 0 and |w| >= _FLOAT_T_MIN:
    (value, log w, sum of the series terms' moduli, remainder bound).

    The series stops after J terms with remainder at most the next term
    times sec^(2J+2)(arg(w)/2) <= 2^(J+1) (DLMF 5.11.ii).
    """
    log_w = cmath.log(w)
    inv_w = 1 / w
    inv_w2 = inv_w * inv_w
    p = inv_w
    value = (w - 0.5) * log_w - w + 0.5 * _LN_2PI
    terms_abs = 0.0
    coeffs = _bernoulli_floats()
    for _, sc in coeffs[:_STIRLING_TERMS]:
        value += sc * p
        terms_abs += abs(sc * p)
        p *= inv_w2
    return value, log_w, terms_abs, abs(coeffs[_STIRLING_TERMS][1]) * abs(p) * 2.0 ** (_STIRLING_TERMS + 1)


def _loggamma_float(w: complex) -> tuple[complex, float]:
    """(log Gamma(w) on the principal branch in float64, bound on its error)
    for Re w > 0.

    w is shifted up by the recurrence, log Gamma(w) = log Gamma(w + m) -
    sum_{j<m} log(w + j), until |w + m| >= _FLOAT_T_MIN; in the right
    half-plane this sum of principal logarithms keeps the principal branch.
    Each float operation is charged one unit roundoff per operand magnitude,
    with margin; the rounding of w + m costs |psi| u |w + m| <= u |w+m| (|log| + 1).
    """
    u = _U
    m = 0
    while abs(w + m) < _FLOAT_T_MIN:
        m += 1
    z = w + m
    value, log_z, terms_abs, rem = _stirling_float(z)
    err = 8 * u * (abs(z - 0.5) * abs(log_z) + abs(z) + 2) + 8 * u * terms_abs + rem
    if m:
        logs = [cmath.log(w + j) for j in range(m)]
        value -= complex(math.fsum(lg.real for lg in logs), math.fsum(lg.imag for lg in logs))
        err += 4 * u * _sum(abs(lg) + 1 for lg in logs) + 2 * u * abs(value)
    return value, err


def _times_exp(z: complex, err_z: float, big_l: complex, err_l: float) -> tuple[complex, float]:
    """(e^L z in float64, bound on its error) from z and L known within
    err_z and err_l; the factor 1.25 and the 4u cover the roundings of exp
    and of the product."""
    value = cmath.exp(big_l) * z
    mag = math.exp(big_l.real)
    return value, 1.25 * mag * (abs(z) * (err_l + 4 * _U) + err_z) * (1 + 2 * err_l)


def _left_line_float(t: float, sigma: float, n: int, ln_fact: float,
                     dt: float = 0.0) -> tuple[float, float] | None:
    """(Re[zeta(s) K_n(s)] at s = 1 - sigma + i t in float64, bound on its error),
    or None below t = _FLOAT_T_MIN, where Stirling's series is not used.

    zeta(s) = chi(s) zeta(w) with w = 1 - s = sigma - i t:

    * zeta(w) from `_zeta_float`;
    * log chi(s) = (s-1) ln 2pi - i pi (s-1)/2 + log(1 - e^(i pi s))
      + log Gamma(w), from sin(pi s/2) = (i/2) e^(-i pi s/2) (1 - e^(i pi s)),
      with Stirling's series for log Gamma(w) (`_stirling_float`);
    * log K_n(s) = ln n! - sum_j log(s - j).

    The bound charges every float operation one unit roundoff per operand
    magnitude, with margin, including the large terms of log chi.  A node
    off by dt moves log(chi(s) zeta(w) K_n(s)) by at most dt (ln 2pi +
    (pi/2) |cot(pi s/2)| + |psi(w)| + |zeta'/zeta(w)| + sum_j 1/|s - j|);
    for t >= 16, |cot(pi s/2)| <= 1.01, |psi(w) - log w| <= 1/2 + 1/9 (Binet,
    as in `_saddle_float`) and |zeta'/zeta(w)| < 1.51 at sigma = 3/2.
    """
    if t < _FLOAT_T_MIN:
        return None
    u = _U
    s = complex(1.0 - sigma, t)
    w = complex(sigma, -t)
    zeta_w, err_zeta = _zeta_float(w)
    # log chi(s) + log K_n(s)
    stirling, log_w, stirling_abs, rem_gamma = _stirling_float(w)
    log_k = [cmath.log(s - j) for j in range(n + 1)]
    big_l = (
        (s - 1) * _LN_2PI
        - 0.5j * math.pi * (s - 1)
        + cmath.log(1 - cmath.exp(complex(-math.pi * t, math.pi * (1.0 - sigma))))
        + stirling
        + ln_fact
        - math.fsum(z.real for z in log_k)
        - 1j * math.fsum(z.imag for z in log_k)
    )
    err_l = (
        8 * u * (abs(s - 1) * (_LN_2PI + math.pi / 2) + abs(w - 0.5) * abs(log_w) + abs(w) + 2)
        + 8 * u * stirling_abs
        + rem_gamma
        + (n + 8) * u * (ln_fact + _sum(abs(z) for z in log_k))
        + 1.25 * dt * (_LN_2PI + 1.01 * math.pi / 2 + abs(log_w) + 0.62 + _LOG_DERIV_ZETA_3_2
                       + _sum(1 / abs(s - j) for j in range(n + 1)))
    )
    value, err = _times_exp(zeta_w, err_zeta, big_l, err_l)
    return value.real, err


def _rice_line_float(t: float, dt: float, n: int, ln_fact: float, inverse: bool):
    """(Re[phi(s) K_n(s)] at s = 3/2 + i t in float64, bound on its error),
    phi = zeta, or 1/zeta when `inverse`; None where 1/zeta cannot be bounded.

    zeta(3/2 + i t) is the conjugate of the zeta(3/2 - i t) that the left
    line computes, so both lines share one table.  For 1/zeta the bound is
    err/(|z|(|z| - err)) plus the division's rounding, valid for |z| > err;
    it is used only where |z| > 2 err.  A node off by dt moves log(phi K_n)
    by at most dt (|zeta'/zeta| + sum_j 1/|s - j|), and |zeta'/zeta| < 1.51
    at Re s = 3/2.  ln_fact must be ln n! correctly rounded.
    """
    u = _U
    s = complex(1.5, t)
    z, err_z = _zeta_float(complex(1.5, -t))
    z = z.conjugate()
    if inverse:
        az = abs(z)
        if not az > 2 * err_z:
            return None
        z, err_z = 1 / z, err_z / (az * (az - err_z)) + 4 * u / az
    log_k = [cmath.log(s - j) for j in range(n + 1)]
    big_l = ln_fact - complex(math.fsum(lg.real for lg in log_k), math.fsum(lg.imag for lg in log_k))
    err_l = (n + 8) * u * (ln_fact + _sum(abs(lg) + 1 for lg in log_k)) + 1.25 * dt * (
        _LOG_DERIV_ZETA_3_2 + _sum(1 / abs(s - j) for j in range(n + 1))
    )
    value, err = _times_exp(z, err_z, big_l, err_l)
    return value.real, err


def _saddle_float(s: complex, ds: float, n: int, ln_fact: float):
    """(F(s) of `_saddle_integrand` in float64, bound on its error) for a node
    known within ds, or None off Re s >= 3/2 or too near a zero of sin(pi s/2).

    log F = -(s+1) ln 2pi + log(i/2) - i pi s/2 + log(1 - q) + ln n!
            + log Gamma(s+1) + log Gamma(s) - log Gamma(s+n+1),  q = e^(i pi s),

    from sin(pi s/2) = (i/2) e^(-i pi s/2) (1 - q); ln_fact must be ln n!
    correctly rounded.  The computed q is off by at most
    |q| 4u (pi |s| + 1), which moves log(1 - q) by at most twice that over
    |1 - q| while it stays below |1 - q|/4; near the real axis, where
    |1 - q| can be small, that term dominates.  A node moved by ds' (ds plus
    the rounding of s + 1 and s + n + 1) moves log F by at most ds' times
    ln 2pi + pi/2 + 2 pi |q|/|1 - q| + |zeta'/zeta(1+s)| + the three |psi|;
    for Re z >= 1, |psi(z) - log z| <= 1/2 + 1/9 by Binet's second formula
    (DLMF 5.9.13, with |t^2 + z^2| >= 3/4), and |zeta'/zeta(1+s)| < 0.57.
    """
    u = _U
    if not s.real >= 1.5:
        return None
    q = cmath.exp(complex(-math.pi * s.imag, math.pi * s.real))
    one_q = 1 - q
    aq, a1q = abs(q), abs(one_q)
    ds1 = ds + u * abs(s + n + 1)
    dq = aq * 4 * u * (math.pi * abs(s) + 1) + 2 * u
    if not 4 * (dq + math.pi * aq * ds1) <= a1q:
        return None
    lg1, e1 = _loggamma_float(s + 1)
    lg0, e0 = _loggamma_float(s)
    lgn, en = _loggamma_float(s + n + 1)
    log_1q = cmath.log(one_q)
    terms = (-(s + 1) * _LN_2PI, _LOG_I_2, -0.5j * math.pi * s, log_1q, ln_fact, lg1, lg0, -lgn)
    big_l = _sum(terms)
    log_abs = _sum(abs(math.log(abs(z))) + math.pi / 2 for z in (s + 1, s, s + n + 1))
    deriv = _LN_2PI + math.pi / 2 + 2 * math.pi * aq / a1q + _LOG_DERIV_ZETA_2 + log_abs + 3
    err_l = (
        e1 + e0 + en
        + 2 * dq / a1q
        + 2 * u * (abs(log_1q) + 1)
        + 12 * u * _sum(abs(x) for x in terms)
        + 1.25 * ds1 * deriv
    )
    z, err_z = _zeta_float(1 + s)
    return _times_exp(z, err_z, big_l, err_l)


def _slant_float(x0: float, e0: complex, n: int, ln_fact: float):
    """Float integrand g(r, dr) of the saddle's slant s = x0 + r e0: F(s) e0
    and its bound.  e0 is within u of the exact direction, so the node is off
    by at most dr + 4u (|r| + |s| + x0)."""

    def g(r, dr):
        s = x0 + r * e0
        got = _saddle_float(s, dr + 4 * _U * (abs(r) + abs(s) + x0), n, ln_fact)
        if got is None:
            return None
        v, e = got
        return v * e0, e + 4 * _U * abs(v)

    return g


def _ray_float(xl: float, n: int, ln_fact: float):
    """Float integrand g(t, dt) of the saddle's vertical ray s = xl + i t:
    F(s) i and its bound."""

    def g(t, dt):
        got = _saddle_float(complex(xl, t), dt + _U * xl, n, ln_fact)
        if got is None:
            return None
        v, e = got
        return v * 1j, e

    return g
