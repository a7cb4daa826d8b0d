"""Arbitrary-precision scalar kernel.

Thin, policy-carrying layer over mpmath: integer and Hurwitz zeta values with
a prefillable cache, Euler's constant, exact harmonic numbers, digamma at
rational points, complex gamma/zeta (with the reflection route for the left
half-plane), and a Mobius sieve.

Precision convention for this module: `prec` is either a PrecisionBudget
(its working_digits are used) or a plain int meaning working digits directly.
Scalar kernel ops have no cancellation of their own; the sequence layer is
where targets get inflated into working budgets.

Cache discipline: `prefill_zeta_cache` / `prefill_hurwitz_cache` are the only
writers; readers never mutate.  Cached values are stored at the prefill
precision and re-rounded down to the caller's working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc, workdps

from .errors import DomainError
from .precision import PrecisionBudget

_ZETA_CACHE: dict[int, mpf] = {}
_ZETA_CACHE_DPS = 0

_HURWITZ_CACHE: dict[tuple[int, int, int], mpf] = {}
_HURWITZ_CACHE_DPS = 0


@dataclass(frozen=True)
class RationalShift:
    """Rational offset m/k with 1 <= m <= k, as used in zeta(s, m/k)."""

    m: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.k, int)):
            raise DomainError("shift numerator and denominator must be ints")
        if self.k < 1 or not (1 <= self.m <= self.k):
            raise DomainError(f"need 1 <= m <= k, got m={self.m}, k={self.k}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.m, self.k)

    def as_mpf(self) -> mpf:
        # exact at the active precision
        return +mpmath.fraction(self.m, self.k)


def _coerce_shift(shift) -> RationalShift:
    if isinstance(shift, RationalShift):
        return shift
    if isinstance(shift, tuple) and len(shift) == 2:
        return RationalShift(*shift)
    raise DomainError(f"shift must be RationalShift or (m, k) tuple, got {shift!r}")


def _working_digits(prec) -> int:
    if prec is None:
        return mpmath.mp.dps
    if isinstance(prec, PrecisionBudget):
        return prec.working_digits
    w = int(prec)
    if w < 1:
        raise DomainError(f"working digits must be >= 1, got {prec}")
    return w


def _check_int_exponent(ell) -> int:
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise DomainError(f"exponent must be an int, got {ell!r}")
    if ell < 2:
        raise DomainError(f"integer zeta values need ell >= 2, got {ell}")
    return ell


def prefill_zeta_cache(max_ell: int, working_digits: int) -> None:
    """Compute zeta(2..max_ell) once at `working_digits`.

    Raising the precision discards the old cache; lowering it is a no-op
    for precision (existing entries already carry more digits).
    """
    global _ZETA_CACHE_DPS
    if working_digits > _ZETA_CACHE_DPS:
        _ZETA_CACHE.clear()
        _ZETA_CACHE_DPS = working_digits
    with workdps(_ZETA_CACHE_DPS):
        for ell in range(2, max_ell + 1):
            if ell not in _ZETA_CACHE:
                _ZETA_CACHE[ell] = mpmath.zeta(ell)


def zeta_int(ell: int, prec=None) -> mpf:
    """zeta(ell) for integer ell >= 2, rounded to the working precision."""
    ell = _check_int_exponent(ell)
    working = _working_digits(prec)
    with workdps(working):
        if _ZETA_CACHE_DPS >= working:
            cached = _ZETA_CACHE.get(ell)
            if cached is not None:
                return +cached
        return +mpmath.zeta(ell)


def prefill_hurwitz_cache(max_ell: int, shift, working_digits: int) -> None:
    """Compute zeta(2..max_ell, m/k) once at `working_digits`."""
    global _HURWITZ_CACHE_DPS
    shift = _coerce_shift(shift)
    if working_digits > _HURWITZ_CACHE_DPS:
        _HURWITZ_CACHE.clear()
        _HURWITZ_CACHE_DPS = working_digits
    with workdps(_HURWITZ_CACHE_DPS):
        a = shift.as_mpf()
        for ell in range(2, max_ell + 1):
            key = (ell, shift.m, shift.k)
            if key not in _HURWITZ_CACHE:
                _HURWITZ_CACHE[key] = mpmath.zeta(ell, a)


def hurwitz_int(ell: int, shift, prec=None) -> mpf:
    """zeta(ell, a) for integer ell >= 2.

    `shift` is a RationalShift / (m, k) tuple for a = m/k in (0, 1], or a
    plain int a >= 1 (used by series tail corrections).  The integer branch
    is correct to `prec` digits relative to the value, however small
    (see `_hurwitz_em`).
    """
    ell = _check_int_exponent(ell)
    working = _working_digits(prec)
    if isinstance(shift, int) and not isinstance(shift, bool):
        if shift < 1:
            raise DomainError(f"integer shift must be >= 1, got {shift}")
        return _hurwitz_em(ell, shift, working)
    shift = _coerce_shift(shift)
    with workdps(working):
        key = (ell, shift.m, shift.k)
        if _HURWITZ_CACHE_DPS >= working:
            cached = _HURWITZ_CACHE.get(key)
            if cached is not None:
                return +cached
        # evaluate the offset a bit above working so its rounding is harmless
        with workdps(working + 10):
            v = mpmath.zeta(ell, shift.as_mpf())
        return +v


def _hurwitz_em(ell: int, a: int, working: int) -> mpf:
    """zeta(ell, a) for integers ell >= 2, a >= 1, to `working` digits relative.

    mpmath's Hurwitz zeta stops its Euler-Maclaurin tail at an absolute
    tolerance, so at a ~ 2n it loses up to ~ell*log10(a) digits of a value
    near a^(1-ell).  Here the direct sum runs up to x = max(a, ell, w/2+6)
    and the tail terms stop once the remainder bound (Johansson 2014, Thm 1)

        |R_M| <= 4 |(ell)_(2M)| / (2 pi)^(2M) * x^(1-ell-2M) / (ell+2M-1)

    drops below 2^-prec of the leading term x^(1-ell)/(ell-1).  The direct
    terms and the leading terms are positive and the alternating Bernoulli
    corrections stay below ell(ell-1)/(12 x^2) <= 1/12 of the leading term,
    so the sum cancels no digits.
    """
    with workdps(working + 10):
        x = max(a, ell, working // 2 + 6)
        head = mpmath.fsum(mpf(i) ** (-ell) for i in range(a, x))
        xm = mpf(x)
        xpow = xm ** (1 - ell)  # x^(1-ell-2k) after k corrections
        lead = xpow / (ell - 1)
        tail = lead + xpow / (2 * xm)
        log2_tol = float(mpmath.log(lead, 2)) - mpmath.mp.prec
        ln_x, ln_2pi, ln_2 = math.log(x), math.log(2 * math.pi), math.log(2)
        poch = mpf(ell)  # (ell)_(2k-1)
        fact = mpf(2)  # (2k)!
        k = 1
        while True:
            xpow /= xm * xm
            tail += mpmath.bernoulli(2 * k) / fact * poch * xpow
            m = 2 * k
            log_rem = (
                math.log(4) + math.lgamma(ell + m) - math.lgamma(ell) - m * ln_2pi
                + (1 - ell - m) * ln_x - math.log(ell + m - 1)
            )
            if log_rem / ln_2 < log2_tol:
                break
            poch *= (ell + m - 1) * (ell + m)
            fact *= (m + 1) * (m + 2)
            k += 1
        value = head + tail
    with workdps(working):
        return +value


def euler_gamma(prec=None) -> mpf:
    with workdps(_working_digits(prec)):
        return +mpmath.euler


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n as a Fraction (H_0 = 0)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"harmonic index must be an int >= 0, got {n!r}")
    h = Fraction(0)
    for j in range(1, n + 1):
        h += Fraction(1, j)
    return h


def harmonic_mpf(n: int, prec=None) -> mpf:
    """H_n correctly rounded: exact rational, one rounding at the end."""
    h = harmonic(n)
    working = _working_digits(prec)
    with workdps(working):
        return +mpmath.fraction(h.numerator, h.denominator)


def digamma_rational(shift, prec=None) -> mpf:
    """psi(m/k) at the working precision."""
    shift = _coerce_shift(shift)
    working = _working_digits(prec)
    with workdps(working + 10):
        v = mpmath.digamma(shift.as_mpf())
    with workdps(working):
        return +v


def gamma_cx(s, prec=None) -> mpc:
    """Gamma(s) for complex s away from the poles at 0, -1, -2, ..."""
    working = _working_digits(prec)
    with workdps(working):
        s = mpc(s)
        if s.imag == 0 and s.real == mpmath.floor(s.real) and s.real <= 0:
            raise DomainError(f"gamma pole at s={s}")
        return +mpmath.gamma(s)


def zeta_cx(s, prec=None) -> mpc:
    """zeta(s) for complex s != 1.

    For Re(s) < 1/2 the reflection formula
    zeta(s) = 2 (2 pi)^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
    routes the evaluation to the half-plane where the direct series-based
    algorithms are well conditioned.
    """
    working = _working_digits(prec)
    with workdps(working + 10):
        s = mpc(s)
        if s == 1:
            raise DomainError("zeta pole at s=1")
        if s.real >= 0.5:
            v = mpmath.zeta(s)
        else:
            v = (
                2
                * (2 * mpmath.pi) ** (s - 1)
                * mpmath.sinpi(s / 2)
                * mpmath.gamma(1 - s)
                * mpmath.zeta(1 - s)
            )
    with workdps(working):
        return +v


def mobius_upto(limit: int) -> list[int]:
    """mu(0..limit) via a smallest-prime-factor sieve (mu(0) = 0)."""
    if limit < 0:
        raise DomainError(f"sieve limit must be >= 0, got {limit}")
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    spf = list(range(limit + 1))
    for i in range(2, int(math.isqrt(limit)) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    for i in range(2, limit + 1):
        p = spf[i]
        rest = i // p
        if rest % p == 0:
            mu[i] = 0  # squared factor
        else:
            mu[i] = -mu[rest]
    return mu
