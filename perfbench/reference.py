"""Reference values computed apart from zetadiff, with plain mpmath.

Each function uses a different formula from the route zetadiff takes by
default, and none of them imports zetadiff:

* delta_n, A_n(m,k) and c_n come from the rearranged series
  sum_u [(1 - 1/u)^N - 1 + N/u] over u = k*j + m, whose tail past u_J is
  resummed exactly through Hurwitz zeta values zeta(q, J + m/k);
* b_n and a_n add their O(1) parts to those, with H_{n-1} from
  mpmath.harmonic (digamma) rather than an exact rational sum;
* d_n comes from the Moebius sum sum_l mu(l) [(1 - 1/l)^n - 1 + n/l];
* the oracle references are the plain binomial sums at a precision that
  covers their n*log10(2) cancellation;
* Z(s) = zeta(s) - 1/(s-1) is the function the Newton series converges to.

`digits` arguments are the significant digits the caller compares; each
function adds the digits its own formula cancels, plus ten guard digits.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf, workdps

LOG10_2 = math.log10(2.0)


def smallness_digits(n: int, k: int = 1) -> int:
    """Digits of the e^(-2 sqrt(pi n / k)) scale of b_n and a_n(m,k)."""
    return math.ceil(2 * math.sqrt(math.pi * n / k) / math.log(10)) if n > 0 else 0


def hurwitz(q: int, a, dps: int) -> mpf:
    """zeta(q, a) = sum_{j>=0} (a + j)^(-q) for a >= 64, by Euler-Maclaurin at a.

    mpmath.zeta(q, a) loses up to 40 digits here (at 50 digits, q = 20 and
    a = 603 it is off by 2e-10 relative); the expansion below has terms
    that shrink by about ((q + 2i) / (2 pi a))^2 each, so it stops after a
    few dozen terms.
    """
    with workdps(dps + 10):
        a = mpf(a)
        total = a ** (1 - q) / (q - 1) + a ** (-q) / 2
        eps = mpf(10) ** (-dps - 5) * total
        rising = mpf(q)  # q (q+1) ... (q + 2i - 2)
        i = 1
        while True:
            term = mpmath.bernoulli(2 * i) / mpmath.factorial(2 * i) * rising * a ** (-q - 2 * i + 1)
            total += term
            if abs(term) < eps:
                return total
            rising *= (q + 2 * i - 1) * (q + 2 * i)
            i += 1


def _rearranged(N: int, start: int, step: int, dps: int) -> mpf:
    """sum_{j>=0} G(u_j) with G(u) = (1 - 1/u)^N - 1 + N/u, u_j = step*j + start.

    The head runs to u_J >= 2N; the tail is sum_{q>=2} C(N,q) (-1)^q
    step^(-q) zeta(q, J + start/step), whose terms shrink at least twice
    per step there, so it stops once a term is below 10^-dps of the head.
    """
    with workdps(dps):
        J = max(2 * N // step + 2, 64)
        head = mpf(0)
        for j in range(J):
            x = mpf(1) / (step * j + start)
            head += (1 - x) ** N - 1 + N * x
        shift = J + mpf(start) / step
        eps = mpf(10) ** (-dps) * max(abs(head), 1)
        tail = mpf(0)
        cq = N * (N - 1) // 2
        for q in range(2, N + 1):
            term = cq * hurwitz(q, shift, dps) / mpf(step) ** q
            tail += term if q % 2 == 0 else -term
            if abs(term) < eps:
                break
            cq = cq * (N - q) // (q + 1)
        return head + tail


def delta(n: int, digits: int) -> mpf:
    """delta_n = sum_{k=2..n} C(n,k) (-1)^k zeta(k), from the rearranged series."""
    if n < 2:
        return mpf(0)
    return _rearranged(n, 1, 1, digits + 10)


def b(n: int, digits: int) -> mpf:
    """b_n = n(1 - gamma - H_{n-1}) - 1/2 + delta_n (b_0 = 1/2)."""
    if n == 0:
        return mpf("0.5")
    # the O(n log n) parts cancel down to the e^(-2 sqrt(pi n)) scale
    dps = digits + smallness_digits(n) + math.ceil(math.log10(n + 1)) + 10
    with workdps(dps):
        h = mpmath.harmonic(n - 1)
        value = n * (1 - mpmath.euler - h) - mpf("0.5") + _rearranged(n, 1, 1, dps)
    return value


def A(n: int, m: int, k: int, digits: int) -> mpf:
    """A_n(m,k) = sum C(n,l) (-1)^l zeta(l, m/k) / k^l, rearranged over u = k*j + m."""
    if n < 2:
        return mpf(0)
    return _rearranged(n, m, k, digits + 10)


def a(n: int, m: int, k: int, digits: int) -> mpf:
    """a_n(m,k) = A_n - (m/k - 1/2) + (n/k)[psi(m/k) + ln k + 1 - H_{n-1}]."""
    dps = digits + smallness_digits(n, k) + math.ceil(math.log10(n + 1)) + 10
    with workdps(dps):
        mk = mpf(m) / k
        h = mpmath.harmonic(n - 1)
        rest = mpmath.digamma(mk) + mpmath.ln(k) + 1 - h
        value = _rearranged(n, m, k, dps) - (mk - mpf("0.5")) + (mpf(n) / k) * rest
    return value


def c(n: int, digits: int) -> mpf:
    """c_n = sum_{q=2..n+1} C(n+1,q) (-1)^q zeta(q) / (n+1), rearranged."""
    if n == 0:
        return mpf(0)
    with workdps(digits + 10):
        return _rearranged(n + 1, 1, 1, digits + 10) / (n + 1)


def mobius(limit: int) -> list[int]:
    """mu(0..limit) by trial factorisation of each index (mu(0) = 0)."""
    mu = [0] * (limit + 1)
    for i in range(1, limit + 1):
        x, sign, p = i, 1, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    sign = 0
                    break
                sign = -sign
            p += 1
        if sign and x > 1:
            sign = -sign
        mu[i] = sign
    return mu


def d(n: int, digits: int) -> mpf:
    """d_n = sum_{k=2..n} C(n,k) (-1)^k / zeta(k), from the Moebius sum.

    Head over l <= L = 2n; the tail coefficients sum_{l>L} mu(l) l^(-q) are
    1/zeta(q) minus the head sum, formed q*log10(L) digits wider because
    they are that much smaller than either term.
    """
    if n < 2:
        return mpf(0)
    L = max(2 * n, 32)
    mu = mobius(L)
    # the head's partial sums run to ~n; the value tends to 2
    dps = digits + math.ceil(math.log10(n + 1)) + 10
    with workdps(dps):
        head = mpf(0)
        for ell in range(1, L + 1):
            if mu[ell]:
                x = mpf(1) / ell
                head += mu[ell] * ((1 - x) ** n - 1 + n * x)
        eps = mpf(10) ** (-dps) * max(abs(head), 1)
        tail = mpf(0)
        cq = n * (n - 1) // 2
        for q in range(2, n + 1):
            with workdps(dps + math.ceil(q * math.log10(L + 1)) + 10):
                part = mpmath.fsum(mu[ell] * mpf(ell) ** (-q) for ell in range(1, L + 1) if mu[ell])
                coeff = 1 / mpmath.zeta(q) - part
            term = cq * coeff
            tail += term if q % 2 == 0 else -term
            if abs(term) < eps:
                break
            cq = cq * (n - q) // (q + 1)
        return head + tail


def binomial_sum(n: int, phi, dps: int) -> mpf:
    """sum_{k=2..n} C(n,k) (-1)^k phi(k), at dps digits past its cancellation."""
    with workdps(dps + math.ceil(n * LOG10_2)):
        return mpmath.fsum(math.comb(n, k) * (-1) ** k * phi(k) for k in range(2, n + 1))


def delta_direct(n: int, digits: int) -> mpf:
    return binomial_sum(n, mpmath.zeta, digits + 10)


def b_direct(n: int, digits: int) -> mpf:
    dps = digits + smallness_digits(n) + math.ceil(math.log10(n + 1)) + 10
    with workdps(dps):
        h = mpmath.harmonic(n - 1)
        return n * (1 - mpmath.euler - h) - mpf("0.5") + binomial_sum(n, mpmath.zeta, dps)


def d_direct(n: int, digits: int) -> mpf:
    return binomial_sum(n, lambda k: 1 / mpmath.zeta(k), digits + 10)


def newton_target(s, dps: int = 60):
    """Z(s) = zeta(s) - 1/(s-1), with Z(1) = gamma."""
    with workdps(dps):
        s = mpmath.mpmathify(s)
        if s == 1:
            return +mpmath.euler
        return mpmath.zeta(s) - 1 / (s - 1)


def envelope(n: int, dps: int = 30) -> mpf:
    """2 (2n/pi)^(1/4) e^(-2 sqrt(pi n)), the proven bound on |b_n| for n >= 2."""
    with workdps(dps):
        return 2 * (2 * mpf(n) / mpmath.pi) ** mpf("0.25") * mpmath.exp(-2 * mpmath.sqrt(mpmath.pi * n))


def main_term_zeros(n_max: float) -> list[float]:
    """Zeros pi (j + 9/8)^2 / 4 of the b_n main term, up to n_max."""
    zeros = []
    j = 0
    while math.pi * (j + 1.125) ** 2 / 4 <= n_max:
        zeros.append(math.pi * (j + 1.125) ** 2 / 4)
        j += 1
    return zeros
