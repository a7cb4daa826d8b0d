"""Arbitrary-precision scalar kernel.

Thin, policy-carrying layer over mpmath: integer zeta values, Hurwitz zeta
values at integer arguments from an exact fixed-point table, Euler's
constant, exact harmonic numbers, digamma at rational points, complex
gamma/zeta (with the reflection route for the left half-plane), and a Mobius
sieve.

Precision convention for this module: `prec` is a PrecisionBudget (its
working_digits are used), a plain int meaning working digits directly, or
None for the ambient mp.dps, as `precision.digits` reads them.  Scalar
kernel ops have no cancellation of their own; the sequence layer is where
targets get inflated into working budgets.

Hurwitz values are not cached: `_hurwitz_fixed` builds a table of
zeta(l, m/k)/k^l, l <= N, in one fixed-point pass, each entry a function of
(l, m, k, P) alone and within 2 units of 2^-P.  `_zeta_rounded` rounds one
grow-only m = k = 1 table to the bits `zeta_int` returns, for every sequence
input; an entry it cannot decide falls back to `zeta_int`.  The table's
Euler-Maclaurin tail takes exact Bernoulli numbers from `_bernoulli_even`.

Complex zeta goes through `_zeta_borwein`, which returns mpmath.zeta's bits
but keeps the amplitudes k^-(Re s) of Borwein's sum across calls, for the
vertical lines of the contour oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc, workdps
from mpmath.libmp import (
    MPZ_ZERO, dps_to_prec, fhalf, from_int, from_man_exp, from_rational, fzero, ln2_fixed,
    mpc_abs, mpc_div, mpc_one, mpc_pow, mpc_sub, mpc_two, mpf_gt, mpf_lt, pi_fixed,
    round_nearest, to_fixed, to_int,
)
from mpmath.libmp.gammazeta import borwein_coefficients, cos_sin_fixed, exp_fixed, log_int_fixed

from .errors import DomainError, TruncationBoundError
from .precision import digits


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


def _check_int_exponent(ell) -> int:
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise DomainError(f"exponent must be an int, got {ell!r}")
    if ell < 2:
        raise DomainError(f"integer zeta values need ell >= 2, got {ell}")
    return ell


def zeta_int(ell: int, prec=None) -> mpf:
    """zeta(ell) for integer ell >= 2, rounded to the working precision.

    mpmath caches the costly integer zeta values itself, each at the
    highest precision asked, and rounds them down for later requests.
    """
    ell = _check_int_exponent(ell)
    with workdps(digits(prec)[1]):
        return +mpmath.zeta(ell)


def hurwitz_int(ell: int, shift, prec=None) -> mpf:
    """zeta(ell, a) for integer ell >= 2, to `prec` digits relative.

    `shift` is a RationalShift / (m, k) tuple for a = m/k in (0, 1], or a
    plain int a >= 1 (m = a, k = 1).  Reads `_hurwitz_fixed` at the kernel's
    P raised by ceil(ell log2 m) bits, as the entry can be as small as m^-ell.
    """
    ell = _check_int_exponent(ell)
    working = digits(prec)[1]
    if isinstance(shift, int) and not isinstance(shift, bool):
        if shift < 1:
            raise DomainError(f"integer shift must be >= 1, got {shift}")
        m, k = shift, 1
    else:
        q = _coerce_shift(shift)
        m, k = q.m, q.k
    bits = _fixed_bits(working) + (m**ell - 1).bit_length()
    return _from_fixed(_hurwitz_fixed(ell, m, k, bits, bottom=ell)[ell] * k**ell, bits, working)


def _hurwitz_fixed(top: int, m: int, k: int, bits: int, bottom: int = 2) -> list[int]:
    """[X_l] for l <= top, X_l within 2 units of 2^bits sum_{j>=0} (kj+m)^-l =
    2^bits zeta(l, m/k)/k^l for l >= bottom (0 below), a function of
    (l, m, k, bits) alone.  Sums at Q = bits + g bits, then shifts down by g:

    - direct: floor(2^Q/u^l) = floor(floor(2^Q/u^(l-1))/u) for u = kj + m < U
      = kJ + m, the least such point with U/k >= x, 2 pi x = 3 (Q ln 2 + 16);
    - tail: none if U^-l + U^(1-l)/(k(l-1)), which bounds it, is < 2^-Q; else
      Euler-Maclaurin at x' = U/k, one exact floor per term, to the first M
      whose remainder bound (Johansson 2014, Thm 1)
      4 (l)_(2M) / (2 pi)^(2M) x'^(1-l-2M) / (l+2M-1) is below 2^-Q k^l.

    At most J + M + 4 floors and remainder, each under a unit of 2^-Q, so
    |X_l - 2^bits v_l| < 1 + (J + M + 4)/2^g <= 2.  A tail that misses its
    tolerance or that count raises TruncationBoundError; at three times the
    x that 2 pi x > Q ln 2 asks for, neither happens.
    """
    out = [0] * (top + 1)
    guard = (bits + 64).bit_length() + 2
    Q = bits + guard
    one = 1 << Q
    x = math.ceil(3 * (Q * math.log(2) + 16) / (2 * math.pi))
    J = max(0, x - m // k)
    U = k * J + m
    for u in range(m, U, k):
        t = one // u**bottom
        for ell in range(bottom, top + 1):
            if not t:
                break
            out[ell] += t
            t //= u

    xt = U / k
    log_x, log_k, log_2pi = math.log(xt), math.log(k), math.log(2 * math.pi)
    log_tol = -(Q + 1) * math.log(2)  # one bit of slack for the float bound
    coeffs = []  # (B_2i k^(2i-1), (2i)!)
    u_pow = U ** (bottom - 1)  # U^(l-1)
    for ell in range(bottom, top + 1):
        kl = k * (ell - 1)
        if one * (kl + U) < kl * u_pow * U:
            break  # the tail is below 2^-Q here and for every larger l
        s = one // (kl * u_pow) + one // (2 * u_pow * U)
        poch, den_pow = ell, u_pow * U * U  # (l)_(2i-1), U^(l+2i-1)
        i = 1
        while True:
            if len(coeffs) < i:
                bern = _bernoulli_even(2 * i)
                coeffs.append((bern.numerator * k ** (2 * i - 1),
                               bern.denominator * math.factorial(2 * i)))
            num, den = coeffs[i - 1]
            s += ((num * poch) << Q) // (den * den_pow)
            M = 2 * i
            log_rem = (math.log(4) + math.lgamma(ell + M) - math.lgamma(ell) - M * log_2pi
                       + (1 - ell - M) * log_x - math.log(ell + M - 1) - ell * log_k)
            if log_rem < log_tol:
                break
            if ell + M >= 2 * math.pi * xt or J + i + 5 > 1 << guard:
                raise TruncationBoundError(f"Hurwitz tail at x={xt:.6g} misses 2^-{Q} at l={ell}")
            poch *= (ell + M - 1) * (ell + M)
            den_pow *= U * U
            i += 1
        out[ell] += s
        u_pow *= U
    return [v >> guard for v in out]


# B_2, B_4, ... as Fractions; grows by rebinding, never in place, so a thread
# reads either the old tuple or the new one, and both hold exact values
_BERNOULLI: tuple = ()


def _bernoulli_even(n: int) -> Fraction:
    """B_n for even n >= 2, exact, from the integer tangent numbers T_i
    (Brent and Harvey 2011, O(i^2) integer operations):
    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).
    """
    global _BERNOULLI
    i = n // 2
    table = _BERNOULLI
    if len(table) < i:
        count = max(i, 2 * len(table))
        t = [0, 1] + [0] * (count - 1)  # t[j] = T_j
        for j in range(2, count + 1):
            t[j] = (j - 1) * t[j - 1]
        for j in range(2, count + 1):
            for h in range(j, count + 1):
                t[h] = (h - j) * t[h - 1] + (h - j + 2) * t[h]
        table = _BERNOULLI = tuple(
            Fraction((-1) ** (j - 1) * 2 * j * t[j], 4**j * (4**j - 1)) for j in range(1, count + 1)
        )
    return table[i - 1]


# (cbits, table) of `_zeta_rounded`; grows by rebinding, like _BERNOULLI
_ZETA_FIXED: tuple = (0, ())


def _zeta_rounded(top: int, working: int, window: int = 3) -> list:
    """[zeta(k)] for 2 <= k <= top (None below) as `zeta_int(k, working)` returns it.

    `_ZETA_FIXED` holds `_hurwitz_fixed(t, 1, 1, cbits)` at the largest t and
    cbits asked so far; a request past either rebuilds it at both maxima and
    rebinds the whole tuple, never editing it (a thread race costs a rebuild).
    X_k, the entry shifted right by d = cbits - P, P = `_fixed_bits(working)`,
    is within 2 units of 2^P zeta(k): 2/2^d + 1 = 1 + 2^(1-d) <= 2 for d >= 1.
    This assumes that mpmath rounds once, to nearest at prec =
    dps_to_prec(working) bits, a value it computed within 1 unit of 2^-P of
    zeta(k) (it works at prec + 20 bits, 10 finer than P), so its input to
    that rounding lies in [X_k - 3, X_k + 3] units.  libmp rounds both ends
    (`from_man_exp`, `round_nearest`); rounding is monotone, so where they
    agree that mpf is mpmath's.  Any other k, near a tie, is read from
    `zeta_int`; `window` is the 3 units.
    """
    global _ZETA_FIXED
    prec = dps_to_prec(working)
    bits = _fixed_bits(working)
    cbits, table = _ZETA_FIXED
    if cbits < bits or len(table) <= top:
        cbits = max(cbits, bits)
        table = tuple(_hurwitz_fixed(max(top, len(table) - 1), 1, 1, cbits))
        _ZETA_FIXED = (cbits, table)
    out = [None, None]
    for k in range(2, top + 1):
        x = table[k] >> (cbits - bits)
        lo = from_man_exp(x - window, -bits, prec, round_nearest)
        if lo == from_man_exp(x + window, -bits, prec, round_nearest):
            out.append(mpmath.mp.make_mpf(lo))
        else:
            out.append(zeta_int(k, working))
    return out


def _fixed_bits(working: int) -> int:
    """Fraction bits P of the fixed-point kernel at `working` digits."""
    return dps_to_prec(working) + 10


def _from_fixed(num: int, bits: int, working: int, den: int = 1) -> mpf:
    """num / (den 2^bits), rounded once to `working` digits."""
    prec = dps_to_prec(working)
    if den == 1:  # exact num 2^-bits, rounded as from_rational rounds it
        return mpmath.mp.make_mpf(from_man_exp(num, -bits, prec, round_nearest))
    return mpmath.mp.make_mpf(from_rational(num, den << bits, prec, round_nearest))


def euler_gamma(prec=None) -> mpf:
    with workdps(digits(prec)[1]):
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
    working = digits(prec)[1]
    with workdps(working):
        return +mpmath.fraction(h.numerator, h.denominator)


def digamma_rational(shift, prec=None) -> mpf:
    """psi(m/k) at the working precision."""
    shift = _coerce_shift(shift)
    working = digits(prec)[1]
    with workdps(working + 10):
        v = mpmath.digamma(shift.as_mpf())
    with workdps(working):
        return +v


def gamma_cx(s, prec=None) -> mpc:
    """Gamma(s) for complex s away from the poles at 0, -1, -2, ..."""
    working = digits(prec)[1]
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
    working = digits(prec)[1]
    with workdps(working + 10):
        s = mpc(s)
        if s == 1:
            raise DomainError("zeta pole at s=1")
        if s.real >= 0.5:
            v = _zeta_borwein(s)
        else:
            v = (
                2
                * (2 * mpmath.pi) ** (s - 1)
                * mpmath.sinpi(s / 2)
                * mpmath.gamma(1 - s)
                * _zeta_borwein(1 - s)
            )
    with workdps(working):
        return +v


# ((key, ((log k, amplitude), ...)), ...) of `_zeta_borwein`, k = 1, 2, ...,
# key = (to_fixed(Re s, wp), wp), the most recently grown key first; grows by
# rebinding, like _BERNOULLI, and keeps at most _AMPLITUDE_KEYS keys
_AMPLITUDES: tuple = ()
_AMPLITUDE_KEYS = 8


def _zeta_borwein(s: mpc) -> mpc:
    """mpmath.zeta(s) for a complex s at the ambient precision, bit for bit.

    Where mpmath 1.3.0's `libmp.mpc_zeta` takes Borwein's algorithm with
    exp_fixed amplitudes (s not real, Re s >= 0 and not 1/2, |s| <= prec at
    10 bits, s not within 2^-wp/2 of the pole), this repeats its loop step
    for step, but reads the amplitude k^-Re(s), exp_fixed((-ref log k) >> wp,
    wp), from `_AMPLITUDES`: on a vertical line Re s and wp are fixed, so
    only the phase k^-i Im(s) is new at each node.  An entry is read only
    where its stored log k equals the one `log_int_fixed` returns now, as
    mpmath's log cache can refine that value; otherwise the amplitude is
    computed and stored afresh.  Every other input goes to mpmath.zeta.
    """
    prec, rnd = mpmath.mp._prec_rounding
    re, im = s._mpc_
    if (im == fzero or mpf_lt(re, fzero) or re == fhalf
            or mpf_gt(mpc_abs(s._mpc_, 10), from_int(prec))):
        return mpmath.zeta(s)
    wp = prec + 20
    r = mpc_sub(mpc_one, s._mpc_, wp)
    _, _, aexp, abc = mpc_abs(r, 10)
    pole_dist = -2 * (aexp + abc)
    if pole_dist > wp:
        return mpmath.zeta(s)
    wp += max(0, pole_dist)

    global _AMPLITUDES
    n = int(wp / 2.54 + 5) + int(0.9 * abs(to_int(im)))
    d = borwein_coefficients(n)
    ref = to_fixed(re, wp)
    imf = to_fixed(im, wp)
    key = (ref, wp)
    table = next((amps for held, amps in _AMPLITUDES if held == key), ())
    grown = None
    tre = tim = MPZ_ZERO
    ln2 = ln2_fixed(wp)
    pi2 = pi_fixed(wp - 1)
    dn = d[n]
    for k in range(n):
        log = log_int_fixed(k + 1, wp, ln2)
        if k < len(table) and table[k][0] == log:
            w = table[k][1]
        else:
            w = exp_fixed((-ref * log) >> wp, wp)
            if grown is None:
                grown = list(table)
            grown[k:k + 1] = [(log, w)]  # replaces entry k, or appends it
        w *= (dn - d[k]) if k & 1 else (d[k] - dn)
        wre, wim = cos_sin_fixed((-imf * log) >> wp, wp, pi2)
        tre += (w * wre) >> wp
        tim += (w * wim) >> wp
    if grown is not None:
        others = tuple(item for item in _AMPLITUDES if item[0] != key)
        _AMPLITUDES = ((key, tuple(grown)),) + others[: _AMPLITUDE_KEYS - 1]
    tre //= -dn
    tim //= -dn
    z = (from_man_exp(tre, -wp, wp), from_man_exp(tim, -wp, wp))
    q = mpc_sub(mpc_one, mpc_pow(mpc_two, r, wp), wp)
    return mpmath.mp.make_mpc(mpc_div(z, q, prec, rnd))


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
