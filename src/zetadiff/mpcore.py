"""Arbitrary-precision scalar kernel.

Thin, policy-carrying layer over mpmath: integer zeta values, Hurwitz zeta
values at integer arguments from an exact fixed-point table, Euler's
constant, exact harmonic numbers, digamma at rational points, complex
gamma/zeta, and a Mobius sieve.

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

Complex zeta has one route per job.  `zeta_cx` rounds mpmath.zeta once.
`_zeta_bounded` serves the contour oracles' Rice lines, Re s = 3/2 and -1/2
alike, with Euler-Maclaurin summation in fixed point and an absolute error
bound.  The bound rests on Johansson's remainder theorem, the one that
`floattier._zeta_float` and `_hurwitz_fixed` use, and on a reading of
mpmath's fixed-point exp and cos/sin.  `_amplitudes` keeps the k^-(Re s)
across the calls on a vertical line, `_dirichlet_phases` forms the k^-it by
products from those at primes, and the correction coefficients B_2j (2
pi)^2j/(2j)! = +-2 zeta(2j) are even entries of a `_hurwitz_fixed` table,
built on first use (`_em_coefficients`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc, workdps
from mpmath.libmp import (
    dps_to_prec, from_man_exp, from_rational, fzero, ln2_fixed, pi_fixed, round_nearest, to_fixed,
    to_float,
)
from mpmath.libmp.gammazeta import cos_sin_fixed, exp_fixed, log_int_fixed

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
    that rounding lies in [X_k - 3, X_k + 3] units.  Rounding is monotone,
    so where both ends round alike (`_rounds_alike`, an integer test on X_k's
    rounding cell) X_k rounded once is mpmath's mpf.  Any other k, near a
    tie, is read from `zeta_int`; `window` is the 3 units.
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
        if _rounds_alike(x, window, prec):
            out.append(mpmath.mp.make_mpf(from_man_exp(x, -bits, prec, round_nearest)))
        else:
            out.append(zeta_int(k, working))
    return out


def _rounds_alike(x: int, window: int, prec: int) -> bool:
    """Whether x - window and x + window (x > window >= 0) round to one mantissa
    under round_nearest at prec bits.  Where both have x's bit length prec +
    sh, sh > 0, each rounds to m = the nearest multiple of 2^sh (half to
    even m / 2^sh); the cell of m reaches half = 2^(sh-1) either side of it,
    edges included for an even m / 2^sh only.  Otherwise both are rounded.
    """
    sh = x.bit_length() - prec
    if sh > 0 and (x - window).bit_length() == (x + window).bit_length() == prec + sh:
        half = 1 << (sh - 1)
        m = (x + half) >> sh << sh  # nearest, ties up
        odd = (m >> sh) & 1
        if x + half == m and odd:  # tie at x itself goes down to even
            m -= 1 << sh
            odd = 0
        return m - half + odd <= x - window and x + window <= m + half - odd
    return (from_man_exp(x - window, 0, prec, round_nearest)
            == from_man_exp(x + window, 0, prec, round_nearest))


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
    """zeta(s) for complex s != 1: mpmath.zeta at working + 10 digits,
    rounded once to the working digits."""
    working = digits(prec)[1]
    with workdps(working + 10):
        s = mpc(s)
        if s == 1:
            raise DomainError("zeta pole at s=1")
        v = mpmath.zeta(s)
    with workdps(working):
        return +v


# ((key, ((log k, amplitude, its float, its charge), ...)), ...) of
# `_amplitudes`, k = 1, 2, ..., key = (to_fixed(Re s, wp), wp), the most
# recently grown key first; grows by rebinding, like _BERNOULLI, and keeps at
# most _AMPLITUDE_KEYS keys
_AMPLITUDES: tuple = ()
_AMPLITUDE_KEYS = 8

# (bits, (X_2, X_4, ...)) of `_em_coefficients`, X_2j the entry of
# `_hurwitz_fixed(., 1, 1, bits)` for zeta(2j); grows by rebinding, like
# _BERNOULLI, and is first built by the first call that needs it
_EVEN_ZETA: tuple = (0, ())


def _amplitudes(ref: int, wp: int, n: int) -> tuple[list, tuple]:
    """([log k], [(log k, a_k, float k^-sigma, d_k)]) for k = 1..n: a_k within
    d_k units of 2^wp k^-sigma, sigma = ref 2^-wp exactly.

    log k is `log_int_fixed`'s, floored from at least wp + 10 bits (mpf_log
    at wp + 15), so within 1.01 units, and a_k = exp_fixed(x_k, wp), x_k =
    (-ref log k) >> wp.  They are read from `_AMPLITUDES`: on a vertical line
    sigma and wp are fixed, so only the phase k^-it is new at each node.  An
    entry is read only where its stored log k equals the one `log_int_fixed`
    returns now, as mpmath's log cache can refine that value; otherwise it is
    computed and stored afresh.  The charge d_k:
    - x_k is within 1.01 |sigma| + 1 units of -sigma ln k 2^wp (log k, then
      the shift).  exp_fixed takes n = floor(x_k / ln2), ln 2 floored at wp
      bits (within 1.01 units) and |n| <= |sigma| log2 k + 1, so its reduced
      argument r in [0, ln 2) is within D_k = 1.01 |sigma| + 1 + 1.01 |n|
      units of the exact one; as e^r < 2, that moves e^r by under 2.01 D_k.
    - exp_basecase(r) is within C' = 4 ceil(wp/q) + 8 units of 2^wp e^r, q =
      floor(sqrt wp): up to 600 bits it sums its series in r 2^-q at wp + q
      bits, each term within 2 units, squares q times and drops q bits;
      above, `exponential_series` works 10 + 2q' bits finer and loses at most
      2q' of them in q' squarings, within 2 units.
    - The shift by n multiplies both by 2^n <= k^-sigma (1 + 2^-40), or
      divides by 2^-n and floors (one more unit).
    So d_k = k^-sigma (C' + 2.01 D_k) (1 + 2^-40) + 1, the 2^-40 also
    covering the float k^-sigma.
    """
    global _AMPLITUDES
    key = (ref, wp)
    table = next((amps for held, amps in _AMPLITUDES if held == key), ())
    ln2 = ln2_fixed(wp)
    logs = [log_int_fixed(k, wp, ln2) for k in range(1, n + 1)]
    if len(table) < n or any(held[0] != log for held, log in zip(table, logs)):
        mag = abs(ref / (1 << wp))
        cexp = 4 * -(-wp // math.isqrt(wp)) + 8
        grown = list(table)
        for k, log in enumerate(logs, 1):
            if k > len(grown) or grown[k - 1][0] != log:  # replaces entry k, or appends it
                amp = k ** (ref / -(1 << wp))
                reduced = 1.01 * mag + 1 + 1.01 * (mag * math.log2(k) + 1)
                charge = amp * (cexp + 2.01 * reduced) * (1 + 2.0**-40) + 1
                grown[k - 1:k] = [(log, exp_fixed((-ref * log) >> wp, wp, ln2), amp, charge)]
        others = tuple(item for item in _AMPLITUDES if item[0] != key)
        _AMPLITUDES = ((key, tuple(grown)),) + others[: _AMPLITUDE_KEYS - 1]
        table = grown
    return logs, table[:n]


def _dirichlet_phases(imf: int, logs: list, wp: int) -> tuple[list, list, list]:
    """([Re c_k], [Im c_k], [e_k]) for k = 1..len(logs) (index 0 unused):
    c_k approximates 2^wp k^-it, t = imf 2^-wp, within e_k units in modulus.

    c_1 = (2^wp, 0), exact.  A prime p takes cos_sin_fixed(x_p, wp, pi2), x_p
    = (-imf log p) >> wp, charged e_p = ceil(1.5 C + |N| + 1.01 |t| + ln p +
    1), as |e^(ia) - e^(ib)| <= |a - b|:
    - C = 4 ceil(wp/16) + 8 units on each part of the result.  mpmath
      states no bound; read from its code: up to 400 bits its basecase
      takes cos and sin of a multiple of 2^-8, cached at 410 bits and
      floored (within 1 + 2^-9 units), and at most ceil(wp/16) + 1 Taylor
      steps in h < 2^-8 that add a term within 2 units to each of cos h and
      sin h, so each part of the product is within 4 (steps) + 4 units;
      above 400 bits it works 10 + 2r bits finer and loses at most 2r of
      them in r doublings, within 2 units.  1.5 > sqrt 2 turns C into a
      modulus.
    - |N| <= |x_p| // pi2 + 1 quarter turns come off x_p, each short by
      under one unit, as pi2 = floor(pi 2^(wp-1)).
    - 1.01 |t|: log p from `log_int_fixed` is floored from at least wp + 10
      bits (mpf_log at wp + 15), so it errs by under 1.01 units.
    - ln p, as imf is t floored (exact for `_zeta_bounded`), and 1 for the
      shift that floors x_p.
    A composite k = p (k/p), p its least prime factor, is one product of
    held phases with both parts floored: e_k = e_p + e_(k/p) + 2, as |ab -
    AB| <= e_a |b| + e_b + sqrt 2, and e_a e_b < 2^(wp-1).
    """
    n = len(logs)
    one = 1 << wp
    pi2 = pi_fixed(wp - 1)
    spf = _least_prime_factors(n)
    lead = 1.5 * (4 * -(-wp // 16) + 8) + 1.01 * abs(imf) / one + 2
    res, ims, charges = [0, one], [0, 0], [0, 0]
    for k in range(2, n + 1):
        p = spf[k]
        if p == k:
            x = (-imf * logs[k - 1]) >> wp
            c, s = cos_sin_fixed(x, wp, pi2)
            res.append(c)
            ims.append(s)
            charges.append(math.ceil(lead + abs(x) // pi2 + math.log(k)))
        else:
            q = k // p
            are, aim, bre, bim = res[p], ims[p], res[q], ims[q]
            res.append((are * bre - aim * bim) >> wp)
            ims.append((are * bim + aim * bre) >> wp)
            charges.append(charges[p] + charges[q] + 2)
    return res, ims, charges


def _em_coefficients(wp: int, m: int) -> list[int]:
    """[beta_j] for j = 1..m, beta_j = B_2j (2 pi)^2j / (2j)! = (-1)^(j+1)
    2 zeta(2j), each within 1.5 units of 2^wp beta_j.

    `_EVEN_ZETA` holds X_2j within 2 units of 2^bits zeta(2j), bits >= wp +
    3 (`_hurwitz_fixed`, whose even entries come from the closed form
    |B_2j| (2 pi)^2j / (2 (2j)!) up to its last tail); X_2j shifted down by
    d = bits - wp - 1 >= 2 is within 2/2^d + 1 <= 1.5 units of 2^wp 2
    zeta(2j).  A request for more bits rebuilds the table and one for more
    entries appends them (`bottom`), as in `_zeta_rounded`.
    """
    global _EVEN_ZETA
    bits, held = _EVEN_ZETA
    top = max(m, len(held))
    if bits < wp + 3:
        bits, held = wp + 3, ()
    if len(held) < m:
        first = 2 * len(held) + 2
        held += tuple(_hurwitz_fixed(2 * top, 1, 1, bits, bottom=first)[first::2])
        _EVEN_ZETA = (bits, held)
    d = bits - wp - 1
    return [x >> d if j & 1 else -(x >> d) for j, x in enumerate(held[:m], 1)]


@functools.lru_cache(maxsize=4096)
def _em_sizes(sigma: float, wp: int, band: int) -> tuple:
    """(N, M, R, H, e_H) of `_zeta_bounded` at wp bits, for every s = sigma +
    it with floor(|t|/2 pi) = band.

    N = floor(wp/7) + 3 + band, and M the first count of corrections whose
    remainder R, in units 2^-wp, is below 1, with (Johansson 2014, Thm 1,
    for sigma + 2M > 1)

        R <= 4 |(s)_2M| / (2 pi N)^2M N^(1-sigma) / (sigma + 2M - 1).

    The Horner scheme of the corrections multiplies by r_j = (s + 2j - 1)(s
    + 2j) / (2 pi N)^2, j < M; where some |r_j| >= 1 comes first, rounding
    would grow, and N takes N - band more terms and M is sought afresh.
    |s + k| grows with |t|, so R and every |r_j| are taken at |t| = T =
    6.3 (band + 1), above every |t| of the band.  H bounds |h_1| and e_H the
    units of its error in the scheme h_M = beta_M, h_j = beta_j + r_j
    h_(j+1): with |beta_j| = 2 zeta(2j) <= 2 + 6 4^-j, |h_M| <= that and
    |h_j| <= |beta_j| + |r_j| |h_(j+1)|; e_M = 1.5 and e_j = 3 + (|r_j| +
    2^(-1-wp)) e_(j+1) + |h_(j+1)|/2: beta_j's 1.5 units, the product's two
    floors, and r~_j within half a unit of r_j (`_zeta_bounded`).  Each
    float here errs by a few parts in 2^52, which the 2^-30 that
    `_zeta_bounded` adds covers.
    """
    T = 6.3 * (band + 1)
    tol = -wp * math.log(2)
    N = wp // 7 + 3 + band
    while True:
        D = (2 * math.pi * N) ** 2
        log_rem = math.log(4) + (1 - sigma) * math.log(N)
        ratios = []
        for M in itertools.count(1):
            log_rem += math.log(math.hypot(sigma + 2 * M - 2, T) * math.hypot(sigma + 2 * M - 1, T) / D)
            if sigma + 2 * M > 1 and log_rem - math.log(sigma + 2 * M - 1) < tol:
                h_bound, h_err = 2 + 6 * 4.0**-M, 1.5
                for j in range(M - 1, 0, -1):
                    r = ratios[j - 1]
                    h_bound, h_err = (2 + 6 * 4.0**-j + r * h_bound,
                                      3 + (r + 2.0 ** (-1 - wp)) * h_err + h_bound / 2)
                return N, M, math.exp(log_rem - math.log(sigma + 2 * M - 1) - tol), h_bound, h_err
            ratios.append(math.hypot(sigma + 2 * M - 1, T) * math.hypot(sigma + 2 * M, T) / D)
            if ratios[-1] >= 1:
                break
        N += N - band


def _zeta_bounded(s: mpc) -> tuple[mpc, mpf]:
    """(zeta(s) at the ambient precision, an absolute error bound) for a
    complex s; the mpmath nodes of the Rice lines take zeta from here.

    Euler-Maclaurin summation in fixed point at wp = prec + 20 bits, or more
    where Re s or Im s needs them to be exact:

        zeta(s) = sum_(k<N) k^-s + N^(1-s)/(s-1) + N^-s/2
                  + N^(1-s) s/(2 pi N)^2 sum_(j<=M) beta_j r_1 ... r_(j-1) + R,

    beta_j = B_2j (2 pi)^2j/(2j)! (`_em_coefficients`), r_j = (s + 2j - 1)(s
    + 2j)/(2 pi N)^2, N, M and R as `_em_sizes` chooses them, and the last
    sum by Horner's scheme.  Each k^-s is an amplitude from `_amplitudes`
    times a phase from `_dirichlet_phases`, one `cos_sin_fixed` call per
    prime k.  With u = 2^-wp, the bound is

        2^(1-prec) |v| + (E_head + E_tail + E_corr + R) (1 + 2^-30) u,

    v the sum rounded once to prec bits, each term an upper bound in units u
    for one source of error:
    - E_head = sum_(k<N) (d_k + k^-sigma e_k) + 1.5: amplitude and phase
      errors (`_amplitudes`, `_dirichlet_phases`), as |ac - AC| <= |a - A|
      |c| + A |c - C|, and the one floor of the exact sum of products.
    - E_tail = e_z (N/|s - 1| + 1/2) + 3, e_z = d_N + N^-sigma e_N + 1.5 the
      units of N^-s (one floored product): N^(1-s) = N N^-s is exact, the
      division by s - 1 is exact before its floors, and N^-s/2 floors once.
    - E_corr = (P + e_P u) e_H + H e_P + 1.5, P = N^(1-sigma) |s|/(2 pi N)^2
      the prefactor's modulus and e_P = N e_z |s|/(2 pi N)^2 + P/2 + 1.5 its
      error.  1/(2 pi N)^2 is held at G = wp + g bits, 2^g > 10 Z^2 + 40
      N^2, Z = |sigma| + |t| + 2M + 1: c2 = floor(2^G/(2 pi~ N)^2), pi~ = pi
      floored at G bits, is within 2 units (at G bits) of 2^G/(2 pi N)^2.
      So the prefactor, one floor of its exact numerator times c2, errs by
      N e_z |s|/(2 pi N)^2 + 2 P (2 pi N)^2 2^-g + 1.5 <= e_P units.  The
      r_j are held as (R_j + i I_j) 2^-G, R_j = c0 + (4j - 1) c1 + (4j^2 -
      2j) c2 and I_j = d0 + 4j d1 stepped exactly from j = M - 1, c1, d1,
      c0 and d0 = sigma, t, sigma^2 - t^2 and t (2 sigma - 1) times c2, each
      floored: within 2 |x| + 1 units of x 2^G/(2 pi N)^2, so R_j + i I_j
      is within 4 Z^2 + 8M + 1 <= 5 Z^2 units of 2^G r_j, and r~_j within
      half a unit (u) of r_j.  H and e_H are `_em_sizes`'s.
    - R from `_em_sizes`; the 2^-30 covers its floats and the other
      products of two errors.
    - 2^(1-prec) |v|: each part of v is within 2^-prec of its exact value,
      relative (`from_man_exp` rounds to nearest).
    Real s takes mpmath.zeta(s) instead, charged 2^(1-prec) |v|: an
    allowance, as mpmath proves no bound on it.  The charges are floats, so
    the bound needs |Re s| below about 150, where k^-sigma stays finite.
    """
    prec, rnd = mpmath.mp._prec_rounding
    re, im = s._mpc_
    if im == fzero:  # charged 2^(1-prec) |v|, an allowance
        v = mpmath.zeta(s)
        return v, mpmath.ldexp(abs(v), 1 - prec)
    wp = max(prec + 20, -re[2] if re[1] else 0, -im[2])  # Re s and Im s exact at wp bits
    one = 1 << wp
    sig, tf = to_fixed(re, wp), to_fixed(im, wp)
    sigma, t = to_float(re), to_float(im)
    N, M, rem, h_bound, h_err = _em_sizes(sigma, wp, int(abs(t) / (2 * math.pi)))
    logs, amps = _amplitudes(sig, wp, N)
    res, ims, charges = _dirichlet_phases(tf, logs, wp)
    amp = [a for _, a, _, _ in amps]
    sre = sum(map(operator.mul, amp[:-1], res[1:N])) >> wp
    sim = sum(map(operator.mul, amp[:-1], ims[1:N])) >> wp
    zre, zim = (amp[-1] * res[N]) >> wp, (amp[-1] * ims[N]) >> wp  # N^-s
    wre, wim = N * zre, N * zim  # N^(1-s)
    a, b = sig - one, tf  # s - 1
    den = a * a + b * b
    sre += (((wre * a + wim * b) << wp) // den) + (zre >> 1)
    sim += (((wim * a - wre * b) << wp) // den) + (zim >> 1)

    # 1/(2 pi N)^2 and the r_j at G = wp + g bits, the r_j stepped from j = M - 1
    g = (10 * (int(abs(sigma) + abs(t)) + 2 * M + 2) ** 2 + 40 * N * N).bit_length()
    G = wp + g
    two_pi_n = 2 * N * pi_fixed(G)
    c2 = (1 << 3 * G) // (two_pi_n * two_pi_n)  # 2^G / (2 pi N)^2
    c1, d1 = (sig * c2) >> wp, (tf * c2) >> wp
    c0, d0 = ((sig * sig - tf * tf) * c2) >> 2 * wp, ((tf * (2 * sig - one)) * c2) >> 2 * wp
    R, I = c0 + (4 * M - 5) * c1 + (2 * M - 2) * (2 * M - 3) * c2, d0 + (4 * M - 4) * d1
    step, step2, istep = 4 * c1 + (8 * M - 14) * c2, 8 * c2, 4 * d1  # R_j - R_(j-1), ...
    betas = _em_coefficients(wp, M)
    hre, him = betas[-1], 0
    for beta in reversed(betas[:-1]):
        hre, him = beta + ((R * hre - I * him) >> G), (R * him + I * hre) >> G
        R, step, I = R - step, step - step2, I - istep
    pre = ((wre * sig - wim * tf) * c2) >> (2 * wp + g)
    pim = ((wre * tf + wim * sig) * c2) >> (2 * wp + g)
    sre += (pre * hre - pim * him) >> wp
    sim += (pre * him + pim * hre) >> wp
    v = (from_man_exp(sre, -wp, prec, rnd), from_man_exp(sim, -wp, prec, rnd))

    afl, dfl = [a for _, _, a, _ in amps], [d for *_, d in amps]
    e_head = sum(dfl[:-1]) + sum(map(operator.mul, afl[:-1], charges[1:N])) + 1.5
    e_z = dfl[-1] + afl[-1] * charges[N] + 1.5
    abs_s, D = math.hypot(sigma, t), (2 * math.pi * N) ** 2
    P = afl[-1] * N * abs_s / D
    e_tail = e_z * (N / math.hypot(sigma - 1, t) + 0.5) + 3
    e_P = N * e_z * abs_s / D + P / 2 + 1.5
    e_corr = (P + math.ldexp(e_P, -wp)) * h_err + h_bound * e_P + 1.5
    units = (e_head + e_tail + e_corr + rem) * (1 + 2.0**-30)
    units += math.ldexp(math.hypot(to_float(v[0]), to_float(v[1])), wp + 1 - prec)
    bound = from_man_exp(math.ceil(units * (1 + 2.0**-40)), -wp)
    return mpmath.mp.make_mpc(v), mpmath.mp.make_mpf(bound)


def _least_prime_factors(limit: int) -> list[int]:
    """[spf(0..limit)]: the least prime factor of each i >= 2, and i below."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def mobius_upto(limit: int) -> list[int]:
    """mu(0..limit) via a smallest-prime-factor sieve (mu(0) = 0)."""
    if limit < 0:
        raise DomainError(f"sieve limit must be >= 0, got {limit}")
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    spf = _least_prime_factors(limit)
    for i in range(2, limit + 1):
        p = spf[i]
        rest = i // p
        if rest % p == 0:
            mu[i] = 0  # squared factor
        else:
            mu[i] = -mu[rest]
    return mu
