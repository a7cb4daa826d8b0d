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
(l, m, k, P) alone and within 2 units of 2^-P.  Its Euler-Maclaurin tail
takes exact Bernoulli numbers from `_bernoulli_even` and carries each term
from l to l + 1 with one division by a small integer, afresh at every 16th
l; for m = k = 1 the even entries come from the closed form of zeta(2j).
`_zeta_rounded` rounds one grow-only m = k = 1 table to the bits `zeta_int`
returns, for every sequence input; an entry it cannot decide falls back to
`zeta_int`.

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
    - tail: none past L, the last l where U^-l + U^(1-l)/(k(l-1)), which
      bounds it, is not below 2^-Q; else Euler-Maclaurin at x' = U/k.  The
      leading terms are floor(a/(k(l-1))) and floor(a/(2U)), a =
      floor(2^Q/U^(l-1)) by nested floors, and the terms T(l, i) =
      floor(2^Q B_2i k^(2i-1) (l)_(2i-1) / ((2i)! U^(l+2i-1))) run to I,
      the first i (from 1 at an anchor, else from the last l's I) whose
      remainder bound (Johansson 2014, Thm 1) 4 (l)_(2M) / (2 pi)^(2M)
      x'^(1-l-2M) / (l+2M-1), M = 2i, is below 2^-Q k^l.  T(l, i) is one
      exact floor at the anchors l = 2 (mod 16) and chained between them,
      T(l+1, i) = floor(T(l, i) (l+2i-1)/(l U)): with that factor <= 1 (else
      the term is taken exact), a term d steps past its anchor errs by under
      d + 1 units.  So a call with bottom = l pays for at most 15 more
      tails; for an integer shift m > 1 = k every l is an anchor.
    - m = k = 1: even l <= L from zeta(l) = |B_l| (2 pi)^l / (2 l!), with pi
      at Q + 32 bits, under 1 + l zeta(l) 2^-32 < 2 units of 2^-Q off, so
      X_l is within 1 + 2^(1-g) of it.  Odd l <= L step by u^2 in the
      direct sum and by 2 in the chain, anchored at l = 3 (mod 32).

    Otherwise at most J direct floors, 2 leading floors, I tail terms under
    d + 1 units each (d <= 15 steps) and a remainder under 1/2 a unit, so
    |X_l - 2^bits v_l| < 1 + (J + (d+1) I + 3)/2^g <= 2.  A tail that misses
    its tolerance or that count raises TruncationBoundError; at three times
    the x that 2 pi x > Q ln 2 asks for, neither happens: J + 16 I + 4 stays
    under 2.5 Q (bits <= 3000, k <= 8), and 2^g > 4 (bits + 64).
    """
    out = [0] * (top + 1)
    guard = (bits + 64).bit_length() + 2
    Q = bits + guard
    one = 1 << Q
    x = math.ceil(3 * (Q * math.log(2) + 16) / (2 * math.pi))
    J = max(0, x - m // k)
    U = k * J + m

    def has_tail(ell):  # U^-l + U^(1-l)/(k(l-1)), which bounds the tail, is not below 2^-Q
        return ell < 2 or one * (k * (ell - 1) + U) >= k * (ell - 1) * U**ell

    L = int(Q * math.log(2) / math.log(U))  # L: the last l with a tail, from near it
    while not has_tail(L):
        L -= 1
    while has_tail(L + 1):
        L += 1

    closed = m == k == 1
    E = L - L % 2 if closed else 0  # even l <= E: from the closed form
    if closed and bottom <= E:
        w = Q + 32
        pi2, pw = pi_fixed(w) ** 2 >> w, 1 << w  # pi^2 and pi^l, w fraction bits
        for ell in range(2, min(E, top) + 1, 2):
            pw = pw * pi2 >> w
            if ell >= bottom:
                bern = _bernoulli_even(ell)
                out[ell] = ((abs(bern.numerator) * pw << (ell - 1))
                            // (bern.denominator * math.factorial(ell) << 32))

    odd = range(bottom | 1, min(E, top + 1), 2)  # odd l < E: the direct sum steps by u^2
    rest = range(max(bottom, E + 1), top + 1)
    for u in range(m, U if odd or rest else m, k):
        t = one // u ** (odd or rest).start
        uu = u * u
        for ell in odd:
            if not t:
                break
            out[ell] += t
            t //= uu
        for ell in rest:
            if not t:
                break
            out[ell] += t
            t //= u

    step = 2 if closed else 1
    # anchors: l = base (mod span), or every l for an integer shift, whose
    # callers read one entry each (`hurwitz_int`)
    base, span = step + 1, 16 * step if m <= k else 1
    first = bottom | 1 if closed else bottom
    start = first - (first - base) % span
    xt = U / k
    log_x, log_k, log_2pi = math.log(xt), math.log(k), math.log(2 * math.pi)
    log_tol = -(Q + 1) * math.log(2)  # one bit of slack for the float bound

    def covered(ell, i):  # the remainder bound after i terms is below 2^-Q
        M = 2 * i
        return (math.log(4) + math.lgamma(ell + M) - math.lgamma(ell) - M * log_2pi
                + (1 - ell - M) * log_x - math.log(ell + M - 1) - ell * log_k) < log_tol

    coeffs = []  # (B_2i k^(2i-1), (2i)!)
    chain = []  # the I tail terms of the previous l
    Us = U**step
    a = one // U ** (start - 1)  # floor(2^Q / U^(l-1))
    for ell in range(start, min(L, top) + 1, step):
        d = (ell - base) % span // step  # steps since the anchor
        if ell > start:
            a //= Us
        if not d:
            I = 1  # I: the first i with covered(ell, i), counting on from the last l's
        while not covered(ell, I):
            if ell + 2 * I >= 2 * math.pi * xt:
                raise TruncationBoundError(f"Hurwitz tail at x={xt:.6g} misses 2^-{Q} at l={ell}")
            I += 1
        if J + (d + 1) * I + 4 > 1 << guard:
            raise TruncationBoundError(f"Hurwitz tail at x={xt:.6g} misses 2^-{Q} at l={ell}")
        for i in range(len(coeffs) + 1, I + 1):
            bern = _bernoulli_even(2 * i)
            coeffs.append((bern.numerator * k ** (2 * i - 1),
                           bern.denominator * math.factorial(2 * i)))

        # T(l, i) = floor(T(l - step, i) p/q), p/q = (l)_(2i-1)/((l - step)_(2i-1) U^step) <= 1
        n = len(chain) if d else 0
        ps = range(ell, ell + 2 * n - 1, 2)  # l + 2i - 2
        if closed:
            ps = [v * (v - 1) for v in ps]
        q = ((ell - 1) * (ell - 2) if closed else ell - 1) * Us
        if n and ps[-1] <= q:
            chain = [c * p // q for c, p in zip(chain, ps)]
        else:
            chain, n = [], 0
        if n < I:  # fresh terms, from (l)_(2i-1) and U^(l+2i-1)
            poch, den_pow = math.perm(ell + 2 * n, 2 * n + 1), U ** (ell + 2 * n + 1)
            for i, (num, den) in enumerate(coeffs[n:I], n + 1):
                chain.append(((num * poch) << Q) // (den * den_pow))
                poch *= (ell + 2 * i - 1) * (ell + 2 * i)
                den_pow *= U * U
        if ell >= bottom:
            out[ell] += a // (k * (ell - 1)) + a // (2 * U) + sum(chain)
    return [v >> guard for v in out]


# (B_2, B_4, ... as Fractions, the last tangent-number column); grows by
# rebinding, never in place, so a thread reads the old pair or the new one
_BERNOULLI: tuple = ((), ())


def _bernoulli_even(n: int) -> Fraction:
    """B_n for even n >= 2, exact, from the integer tangent numbers T_i
    (Brent and Harvey 2011, O(i^2) integer operations):
    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).  The table grows to the index
    asked, one triangle column per entry: col_h[1] = (h-1) col_(h-1)[1],
    col_h[j] = (h-j) col_(h-1)[j] + (h-j+2) col_h[j-1], T_h = col_h[h].
    """
    global _BERNOULLI
    i = n // 2
    table, col = _BERNOULLI
    if len(table) < i:
        table = list(table)
        for h in range(len(table) + 1, i + 1):
            new = [(h - 1) * col[0] if col else 1]
            for j in range(2, h + 1):
                new.append((h - j) * (col[j - 1] if j < h else 0) + (h - j + 2) * new[-1])
            col = new
            table.append(Fraction((-1) ** (h - 1) * 2 * h * col[-1], 4**h * (4**h - 1)))
        _BERNOULLI = (tuple(table), tuple(col))
    return table[i - 1]


# (cbits, table) of `_zeta_rounded`; grows by rebinding, like _BERNOULLI
_ZETA_FIXED: tuple = (0, ())


def _zeta_rounded(top: int, working: int, window: int = 3) -> list:
    """[zeta(k)] for 2 <= k <= top (None below) as `zeta_int(k, working)` returns it.

    `_ZETA_FIXED` holds `_hurwitz_fixed(t, 1, 1, cbits)` at the largest t and
    cbits asked so far.  A request for more bits rebuilds it at both maxima; a
    request for more entries at the held bits builds only the new ones
    (`bottom` = the old length) and appends them.  Either way the whole tuple
    is rebound, never edited (a thread race costs a rebuild).
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
    if cbits < bits:
        cbits, table = bits, tuple(_hurwitz_fixed(max(top, len(table) - 1), 1, 1, bits))
        _ZETA_FIXED = (cbits, table)
    elif len(table) <= top:
        new = _hurwitz_fixed(top, 1, 1, cbits, bottom=max(2, len(table)))
        table += tuple(new[len(table):])
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
    """psi(m/k) at the working precision by Gauss's digamma theorem (DLMF
    5.4.19, its terms j and k - j paired): for 1 <= m < k, psi(m/k) = -gamma
    - ln(2k) - (pi/2) cot(pi m/k) + 2 sum_{j=1..ceil(k/2)-1} cos(2 pi jm/k)
    ln sin(pi j/k); psi(1) = -gamma apart, at the cotangent's pole.  Summed at
    working + 10 digits and rounded once."""
    shift = _coerce_shift(shift)
    m, k = shift.m, shift.k
    working = digits(prec)[1]
    with workdps(working + 10):
        v = -mpmath.euler
        if m < k:
            x = mpf(m) / k
            v -= mpmath.ln(2 * k) + mpmath.pi / 2 * mpmath.cospi(x) / mpmath.sinpi(x)
            for j in range(1, (k + 1) // 2):
                v += 2 * mpmath.cospi(mpf(2 * j * m % (2 * k)) / k) * mpmath.ln(mpmath.sinpi(mpf(j) / k))
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
