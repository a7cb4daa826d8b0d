"""Contour-integral oracles for the difference sequences.

Two families:

* `rice_integral` evaluates the residue-sum-as-line-integral representation

      (-1)^(n-1) (1/pi) Int_0^inf Re[ phi(c+it) K_n(c+it) ] dt,
      K_n(s) = n! / (s (s-1) ... (s-n)),

  with phi = zeta on c in (1,2) giving delta_n, phi = zeta on c = -1/2
  giving b_n (the poles at s=0 and s=1 crossed by moving the line are what
  turn delta into b), and phi = 1/zeta on c in (1,2) giving d_n.

* `saddle_contour_integral` evaluates b_n = -(2/pi) Im Int_C F(s) ds with

      F(s) = (2 pi)^(-s-1) sin(pi s/2) zeta(1+s)
             * n! Gamma(s+1) Gamma(s) / Gamma(s+n+1)

  along a contour C that starts on the real axis, runs up-left along the
  steepest-descent slant through the saddle sigma = (1+i) sqrt(pi n)
  (direction e^(5 i pi/8); the slant crosses the axis at exactly
  sqrt(2 pi n)), and finishes with a vertical ray once Re s has dropped
  to c1 sqrt(n).

Quadrature is composite Gauss-Legendre with cached nodes, panels graded
geometrically from the start of each interval (the integrands peak at the
start and decay fast), pairwise summation of panel contributions, and an
embedded error estimate: each panel's rule against one of half its degree.
On the left line, panels above t = 16 whose proven float64 rounding bound
fits their share of the tolerance are evaluated in float64 (see
`_left_line_float`); the bounds join the error estimate.  Truncation
heights come from explicit tail bounds; a user-supplied height that cannot
meet the tolerance, or a quadrature that runs out of its panel budget,
raises TruncationBoundError rather than returning a silently wrong value.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf, mpc, workdps

from . import mpcore
from .asymptotics import envelope_bound
from .differences import _binomial_sum
from .errors import DomainError, TruncationBoundError
from .precision import as_budget, digits

SQRT_PI = math.sqrt(math.pi)

RICE_KINDS = ("zeta-right", "zeta-left", "inv-zeta")

_MAX_RICE_N = 100
_MAX_TARGET = 30


@dataclass(frozen=True)
class ContourSpec:
    """Contour geometry; `vertical` is a Rice line, `fig1-saddle` the slant path."""

    kind: str = "vertical"
    c1: float = 1.0
    c2: float = 3.0
    T: float | None = None
    panels: int | None = None
    degree: int = 32

    def __post_init__(self):
        if self.kind not in ("vertical", "fig1-saddle"):
            raise DomainError(f"unknown contour kind {self.kind!r}")
        if self.kind == "fig1-saddle":
            if not (0 < self.c1 < SQRT_PI < self.c2 < 2 * SQRT_PI):
                raise DomainError(
                    "fig1-saddle needs 0 < c1 < sqrt(pi) < c2 < 2 sqrt(pi), "
                    f"got c1={self.c1}, c2={self.c2}"
                )
        if self.T is not None and not 0 < self.T < math.inf:
            raise DomainError(f"truncation height must be finite and positive, got {self.T}")
        if self.panels is not None and self.panels < 1:
            raise DomainError(f"panel count must be >= 1, got {self.panels}")
        if self.degree < 3 or self.degree > 256:
            # below 3 there is no smaller rule left for the error estimate
            raise DomainError(f"Gauss-Legendre degree must be in 3..256, got {self.degree}")


@dataclass(frozen=True)
class PieceContribution:
    name: str
    value: mpc


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    error_estimate: mpf
    truncation_height: mpf
    truncation_bound: mpf
    pieces: tuple


# cached Gauss-Legendre rules keyed by degree; recomputed if the cached
# precision is below the requested one
_GL_CACHE: dict = {}


def legendre_rule(degree: int, working: int):
    """Nodes and weights of degree-point Gauss-Legendre on [-1, 1]."""
    if degree < 2:
        raise DomainError(f"need degree >= 2, got {degree}")
    cached = _GL_CACHE.get(degree)
    if cached is not None and cached[0] >= working:
        return cached[1]
    dps = working + 10
    with workdps(dps):
        nodes = []
        for i in range(1, degree + 1):
            # Newton iteration from the Chebyshev-like initial guess
            x = mpmath.cos(mpmath.pi * (i - mpf("0.25")) / (degree + mpf("0.5")))
            for _ in range(60):
                p0, p1 = mpf(1), x
                for k in range(2, degree + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = degree * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x = x - dx
                if abs(dx) < mpf(10) ** (-dps):
                    break
            p0, p1 = mpf(1), x
            for k in range(2, degree + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = degree * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((+x, +w))
    _GL_CACHE[degree] = (working, tuple(nodes))
    return _GL_CACHE[degree][1]


def _pairwise_sum(values: list):
    """Sum by pairwise reduction to keep rounding error O(log n) deep."""
    if not values:
        return mpf(0)
    vals = list(values)
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _graded_boundaries(a, b, panels: int):
    """Panel boundaries on [a, b], widths doubling away from a."""
    a = mpf(a)
    b = mpf(b)
    denom = mpf(2) ** panels - 1
    return [a + (b - a) * (mpf(2) ** k - 1) / denom for k in range(panels + 1)]


def _uniform_boundaries(a, b, panels: int):
    a = mpf(a)
    b = mpf(b)
    return [a + (b - a) * mpf(k) / panels for k in range(panels + 1)]


def _gl_panel(f, a, b, rule):
    mid = (a + b) / 2
    half = (b - a) / 2
    terms = [w * f(mid + half * x) for x, w in rule]
    return half * _pairwise_sum(terms)


def _embedded_rules(degree: int, working: int):
    """The panel rule and the strictly smaller rule its error estimate compares."""
    return legendre_rule(degree, working), legendre_rule(max(2, degree // 2), working)


def _panel_record(f, a, b, rule_hi, rule_lo, fast=None):
    """(value, error delta, rounding bound) for one panel from an embedded
    degree pair.  `fast(a, b)` may supply both rule sums and a proven bound
    on their rounding error; when it returns None, `f` is evaluated."""
    got = fast(a, b) if fast is not None else None
    if got is None:
        fine = _gl_panel(f, a, b, rule_hi)
        coarse = _gl_panel(f, a, b, rule_lo)
        return fine, abs(fine - coarse), mpf(0)
    fine, coarse, bound = got
    return fine, abs(fine - coarse), bound


def _adaptive_quad(f, boundaries, rule_hi, rule_lo, tol_abs, max_panels=3000, fast=None):
    """Composite GL with worst-first bisection until the summed embedded
    deltas drop below tol_abs.  Running out of the `max_panels` budget
    first raises TruncationBoundError.  The returned error estimate
    includes the rounding bounds of panels that `fast` evaluated."""
    panels = {}
    heap = []
    serial = 0
    err = mpf(0)
    for a, b in zip(boundaries, boundaries[1:]):
        fine, delta, bound = _panel_record(f, a, b, rule_hi, rule_lo, fast)
        panels[serial] = (a, b, fine, delta, bound)
        heapq.heappush(heap, (-delta, serial))
        err += delta
        serial += 1

    steps = 0
    while len(panels) < max_panels and heap and err > tol_abs:
        neg_delta, key = heapq.heappop(heap)
        rec = panels.get(key)
        if rec is None:
            continue
        a, b, _, delta, _ = rec
        if delta <= tol_abs / (4 * max(1, len(panels))):
            break  # worst panel is already negligible; the rest are smaller
        mid = (a + b) / 2
        del panels[key]
        err -= delta
        for lo, hi in ((a, mid), (mid, b)):
            fine, dlt, bound = _panel_record(f, lo, hi, rule_hi, rule_lo, fast)
            panels[serial] = (lo, hi, fine, dlt, bound)
            heapq.heappush(heap, (-dlt, serial))
            err += dlt
            serial += 1
        steps += 1
        if steps % 128 == 0:  # refresh the running error against drift
            err = _pairwise_sum([rec[3] for rec in panels.values()])

    ordered = sorted(panels.values(), key=lambda rec: (rec[0], rec[1]))
    value = _pairwise_sum([rec[2] for rec in ordered])
    err = _pairwise_sum([rec[3] for rec in ordered])
    if len(panels) >= max_panels and err > tol_abs:
        raise TruncationBoundError(f"quadrature used its budget of {max_panels} panels with "
                                   f"error {mpmath.nstr(err, 3)} > {mpmath.nstr(tol_abs, 3)}")
    if fast is not None:
        err += _pairwise_sum([rec[4] for rec in ordered])
    return value, err


def _osc_boundaries(t0: float, T: float, freq, capacity: float):
    """Panel boundaries on [t0, T] with phase per panel near `capacity`.

    `freq(t)` estimates |d(phase)/dt| of the integrand; widths also stay
    below 4t so power-law magnitude variation stays resolved per panel.
    """
    bounds = [mpf(t0)]
    t = float(t0)
    while t < T:
        w = capacity / max(freq(t), 1e-2)
        w = min(w, 4 * max(t, 1.0), T - t)
        t = min(t + w, T)
        bounds.append(mpf(t))
    if len(bounds) < 2:
        bounds.append(mpf(T))
    return bounds


def _gl_capacity(degree: int) -> float:
    """Phase (radians) a degree-point GL panel absorbs at ~1e-14 accuracy."""
    return 0.7 * 2 * degree * 10 ** (-14.0 / (2 * degree))


# -- float64 tier of the left line --------------------------------------------
#
# Far up the left line the integrand lies many orders below the tolerance, yet
# one mpmath zeta(1-s) there costs ~0.1 s (t ~ 6000, 36 digits).  A panel is
# evaluated in float64 instead when the proven bound on its rounding error fits
# its share of the tolerance; the bound is added to the error estimate.

_U = 2.0**-53  # unit roundoff of IEEE double
_LN_2PI = math.log(2 * math.pi)
_FLOAT_T_MIN = 16.0  # 10 Stirling terms reach 1e-21 there
_STIRLING_TERMS = 10
_EM_TERMS = 60


@functools.lru_cache(maxsize=None)
def _bernoulli_floats():
    """(B_2j (2 pi)^2j / (2j)!,  B_2j / (2j (2j-1))) for j = 1.._EM_TERMS."""
    with workdps(30):
        return tuple(
            (
                float(mpmath.bernoulli(2 * j) * (2 * mpmath.pi) ** (2 * j) / mpmath.factorial(2 * j)),
                float(mpmath.bernoulli(2 * j) / (2 * j * (2 * j - 1))),
            )
            for j in range(1, _EM_TERMS + 1)
        )


@functools.lru_cache(maxsize=32)
def _dirichlet_terms(sigma: float, size: int):
    """k^-sigma and ln k for k = 1..size, and the running sums of k^-sigma
    and k^-sigma ln k (index m holds the sum over k <= m)."""
    amps = tuple(k**-sigma for k in range(1, size + 1))
    logs = tuple(math.log(k) for k in range(1, size + 1))
    sum_a = tuple(itertools.accumulate(amps, initial=0.0))
    sum_al = tuple(itertools.accumulate((a * lk for a, lk in zip(amps, logs)), initial=0.0))
    return amps, logs, sum_a, sum_al


def _left_line_float(t: float, sigma: float, n: int, ln_fact: float) -> tuple[float, float]:
    """(Re[zeta(s) K_n(s)] at s = 1 - sigma + i t in float64, bound on its error).

    zeta(s) = chi(s) zeta(w) with w = 1 - s = sigma - i t:

    * zeta(w) by Euler-Maclaurin with N ~ |w|/pi terms; its remainder after
      M corrections is at most 4 |(w)_2M| / (2 pi N)^2M N^(1-sigma) /
      (sigma+2M-1) (Johansson 2014, Thm 1).
    * log chi(s) = (s-1) ln 2pi - i pi (s-1)/2 + log(1 - e^(i pi s))
      + log Gamma(w), from sin(pi s/2) = (i/2) e^(-i pi s/2) (1 - e^(i pi s));
      Stirling's series for log Gamma(w) stops after J terms with remainder
      at most the next term times sec^(2J+2)(arg(w)/2) <= 2^(J+1) (DLMF 5.11.ii).
    * log K_n(s) = ln n! - sum_j log(s - j).

    The bound charges every float operation one unit roundoff per operand
    magnitude, with margin: the phase t ln k of each k^(it) (including the
    rounding of t itself), the summation of the N head terms, the products
    behind each correction term and the large terms of log chi.
    """
    u = _U
    s = complex(1.0 - sigma, t)
    w = complex(sigma, -t)
    # zeta(w): head, tail and corrections
    big_n = int(abs(w) / math.pi) + 8
    # tables come in power-of-two sizes, so a handful serve the whole line
    amps, logs, sum_a, sum_al = _dirichlet_terms(sigma, 1 << (big_n - 1).bit_length())
    cos, sin = math.cos, math.sin
    re = im = 0.0
    for a, lk in itertools.islice(zip(amps, logs), big_n - 1):
        ph = t * lk
        re += a * cos(ph)
        im += a * sin(ph)
    head = complex(re, im)
    err_head = 2 * u * (6 * t * sum_al[big_n - 1] + (big_n + 4) * sum_a[big_n - 1])
    ln_n = math.log(big_n)
    a_n = big_n**-sigma
    n_w = a_n * complex(cos(t * ln_n), sin(t * ln_n))  # N^-w
    n_w1 = big_n * n_w  # N^(1-w)
    eps_n = u * (6 * t * ln_n + 4)
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
    zeta_w = head + tail + corr
    err_zeta = err_head + err_tail + err_corr + rem + 2 * u * (abs(head) + abs(tail) + corr_abs)

    # log chi(s) + log K_n(s)
    log_w = cmath.log(w)
    inv_w = 1 / w
    inv_w2 = inv_w * inv_w
    p = inv_w
    stirling = (w - 0.5) * log_w - w + 0.5 * _LN_2PI
    stirling_abs = 0.0
    for _, sc in coeffs[:_STIRLING_TERMS]:
        stirling += sc * p
        stirling_abs += abs(sc * p)
        p *= inv_w2
    rem_gamma = abs(coeffs[_STIRLING_TERMS][1]) * abs(p) * 2.0 ** (_STIRLING_TERMS + 1)
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
        + (n + 8) * u * (ln_fact + sum(abs(z) for z in log_k))
    )
    value = cmath.exp(big_l) * zeta_w
    mag = math.exp(big_l.real)
    err = 1.25 * mag * (abs(zeta_w) * (err_l + 4 * u) + err_zeta) * (1 + 2 * err_l)
    return value.real, err


def _left_line_fast(n: int, c, T, tol_abs, rule_hi, rule_lo):
    """Panel evaluator for `_adaptive_quad` on the left line: the float64 tier,
    taken when the panel [a, b] lies above _FLOAT_T_MIN and its rounding bound
    is within tol_abs (b - a) / T, so the bounds of all panels sum to at most
    tol_abs."""
    sigma = 1.0 - float(c)
    ln_fact = math.lgamma(n + 1)
    rules = [[(float(x), float(wt)) for x, wt in rule] for rule in (rule_hi, rule_lo)]
    per_length = float(tol_abs) / float(T)

    def panel_sum(rule, mid, half):
        acc = acc_abs = acc_err = 0.0
        for x, wt in rule:
            v, e = _left_line_float(mid + half * x, sigma, n, ln_fact)
            acc += wt * v
            acc_abs += wt * abs(v)
            acc_err += wt * e
        return half * acc, half * (acc_err + (len(rule) + 4) * _U * acc_abs)

    def fast(a, b):
        if a < _FLOAT_T_MIN:
            return None
        mid, half = float((a + b) / 2), float((b - a) / 2)
        fine, bound = panel_sum(rules[0], mid, half)
        if not bound <= per_length * 2 * half:
            return None
        coarse, _ = panel_sum(rules[1], mid, half)
        return mpf(fine), mpf(coarse), mpf(bound)

    return fast


def rice_sum_residues(phi, n0: int, n: int, prec=15):
    """Finite alternating binomial sum  sum_{k=n0}^{n} C(n,k) (-1)^k phi(k).

    This is the residue side of the line-integral representation; phi may
    return real or complex values.  It runs at the budget of delta_n, which
    carries the n*log10(2) digits the sum cancels: phi is evaluated at those
    working digits and its real and imaginary parts go through the exact
    integer kernel of `differences`.
    """
    if n < 0 or n0 < 0 or n0 > n:
        raise DomainError(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    working = as_budget(prec, "delta", n).working_digits
    with workdps(working):
        vals = [mpmath.mpmathify(phi(k)) if k >= n0 else mpf(0) for k in range(n + 1)]
    real = _binomial_sum(n, [v.real for v in vals], working)
    if all(isinstance(v, mpf) for v in vals):
        return real
    return mpc(real, _binomial_sum(n, [v.imag for v in vals], working))


def _rice_kernel(s, n: int, ln_fact):
    """n!/(s(s-1)...(s-n)) via exp(ln n!) / running product."""
    prod = mpc(1)
    for j in range(n + 1):
        prod *= s - j
    return mpmath.exp(ln_fact) / prod


def _line_freq(n: int, chi_phase: bool, ln_amp0: float, amp_slope: float, tol: float):
    """Float estimate of the integrand's local phase rate on a Rice line.

    Components: the reflection-factor phase ln(t/2pi) (left line only), the
    kernel's arctan drift <= (n+2)/t, and the highest Dirichlet frequency
    ln k whose k^(-3/2)-sized term is still above tol at height t.
    """
    ln_fact = math.lgamma(n + 1)
    ln_tol = math.log(tol)

    def freq(t: float) -> float:
        t = max(t, 1e-6)
        ln_kern = ln_fact - (n + 1) * math.log(t)
        ln_amp = ln_amp0 + amp_slope * math.log1p(t)
        ln_kmax = (2.0 / 3.0) * (ln_amp + ln_kern - ln_tol)
        base = abs(math.log(t / (2 * math.pi))) if chi_phase else 0.0
        return max(base, ln_kmax, 0.1) + (n + 2) / t

    return freq


def _line_data(kind: str, n: int, working: int):
    """Integrand f(t), tail bound, result scale, abscissa, frequency model.

    The right and inverse lines sit at Re s = 3/2, the left line at -1/2.
    """
    with workdps(working):
        ln_fact = mpmath.loggamma(n + 1)
        c = mpf("-0.5") if kind == "zeta-left" else mpf("1.5")
        if kind == "zeta-right":
            zc = mpmath.zeta(c)

            def f(t):
                s = c + mpc(0, 1) * t
                return (mpmath.zeta(s) * _rice_kernel(s, n, ln_fact)).real

            def tail(T):
                return zc * mpmath.exp(ln_fact - n * mpmath.ln(T)) / n

            scale = max(mpf(1), n * mpmath.ln(n + 1))

            def freq_for(tol: float):
                return _line_freq(n, False, float(mpmath.ln(zc)), 0.0, tol)

        elif kind == "inv-zeta":
            bound = mpmath.zeta(c) / mpmath.zeta(2 * c)

            def f(t):
                s = c + mpc(0, 1) * t
                return (_rice_kernel(s, n, ln_fact) / mpmath.zeta(s)).real

            def tail(T):
                return bound * mpmath.exp(ln_fact - n * mpmath.ln(T)) / n

            scale = mpf(2)

            def freq_for(tol: float):
                return _line_freq(n, False, float(mpmath.ln(bound)), 0.0, tol)

        else:  # zeta-left
            def f(t):
                s = c + mpc(0, 1) * t
                return (mpcore.zeta_cx(s) * _rice_kernel(s, n, ln_fact)).real

            # |zeta(-1/2+it)| <= zeta(3/2) sqrt(1/4+t^2) / (2 pi): the
            # reflection factor has |chi(-1/2+it)| = sqrt(1/4+t^2)/(2 pi)
            # exactly, from |Gamma(3/2+it)|^2 = pi (1/4+t^2)/cosh(pi t) and
            # |sin(pi(-1/2+it)/2)|^2 = cosh(pi t)/2.
            amp = mpmath.zeta(mpf(3) / 2) / (2 * mpmath.pi)

            def tail(T):
                return amp * (
                    mpmath.exp(ln_fact - (n - 1) * mpmath.ln(T)) / (n - 1)
                    + mpmath.exp(ln_fact - n * mpmath.ln(T)) / (2 * n)
                )

            scale = envelope_bound(n, working)

            def freq_for(tol: float):
                return _line_freq(n, True, float(mpmath.ln(amp)), 1.0, tol)

        return f, tail, +scale, c, freq_for


def _choose_height(tail, tol_abs, T_given, what: str, T_start=4):
    """Smallest T of the geometric search with tail(T) <= tol_abs, or validate
    T_given; a T_given that fails is refused naming the search's T rounded up."""
    if T_given is not None:
        T = mpf(T_given)
        bound = tail(T)
        if bound <= tol_abs:
            return T, bound
        try:
            found = int(mpmath.ceil(_choose_height(tail, tol_abs, None, what, T_start)[0]))
        except TruncationBoundError:
            found = None
        ok = found is not None and tail(mpf(found)) <= tol_abs
        remedy = f"T={found} would suffice" if ok else "increase T"
        raise TruncationBoundError(
            f"{what}: tail bound {mpmath.nstr(bound, 6)} at height T={mpmath.nstr(T, 6)} "
            f"exceeds tolerance {mpmath.nstr(tol_abs, 6)}; {remedy}"
        )
    T = mpf(T_start)
    for _ in range(400):
        bound = tail(T)
        if bound <= tol_abs:
            return T, bound
        T = T * mpf("1.25")
    raise TruncationBoundError(f"{what}: no truncation height up to {mpmath.nstr(T, 6)} meets tolerance")


def rice_integral(kind: str, n: int, prec=15, spec: ContourSpec | None = None) -> QuadratureResult:
    """Line-integral evaluation of delta_n (zeta-right), b_n (zeta-left) or d_n (inv-zeta).

    Cross-validation oracle: capped at 30 target digits and n <= 100.
    """
    if kind not in RICE_KINDS:
        raise DomainError(f"unknown Rice line kind {kind!r}; expected one of {RICE_KINDS}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"rice_integral needs an int n >= 2, got {n!r}")
    if kind == "zeta-left" and n < 4:
        raise DomainError(f"zeta-left integral needs n >= 4, got {n}")
    if n > _MAX_RICE_N:
        raise DomainError(f"rice_integral is an oracle for n <= {_MAX_RICE_N}, got {n}")
    target = digits(prec)[0]
    if target > _MAX_TARGET:
        raise DomainError(f"rice_integral is capped at {_MAX_TARGET} digits, got {target}")
    auto_degree = spec is None
    spec = spec or ContourSpec(kind="vertical")
    if spec.kind != "vertical":
        raise DomainError(f"rice_integral needs a vertical contour, got {spec.kind!r}")

    if kind == "zeta-left":
        cancel = math.ceil(2 * math.sqrt(math.pi * n) / math.log(10))
    elif kind == "inv-zeta":
        cancel = 2 + math.ceil(1.5 * math.log10(n))
    else:
        cancel = 2 + math.ceil(math.log10(n + 1))
    working = target + cancel + 12

    with workdps(working):
        f, tail, scale, c, freq_for = _line_data(kind, n, working)
        tol_abs = mpf(10) ** (-(target + 1)) * scale
        T, bound = _choose_height(tail, tol_abs, spec.T, f"{kind} line integral at n={n}")

        degree = spec.degree
        if auto_degree and kind == "zeta-left" and float(T) > 2000:
            # long left lines are oscillation-dominated; a wider panel rule
            # absorbs more phase per node (measured ~25% cheaper at n=5)
            degree = 64
        rule_hi, rule_lo = _embedded_rules(degree, working)
        if spec.panels is not None:
            boundaries = _graded_boundaries(0, T, spec.panels)
        elif kind == "zeta-left":
            # the reflection factor grows like t and carries a huge steadily
            # swept Dirichlet spectrum; a frequency grid oversizes itself
            # here, so start coarse and let the worst-first splitter resolve
            boundaries = _graded_boundaries(0, T, max(10, int(math.ceil(math.log2(float(T)))) + 6))
        else:
            t_head = min(mpf(16), T / 2)
            head = _graded_boundaries(0, t_head, 12)
            osc = _osc_boundaries(
                float(t_head), float(T), freq_for(float(tol_abs)), _gl_capacity(degree)
            )
            boundaries = head + osc[1:]
        fast = None
        if kind == "zeta-left":
            fast = _left_line_fast(n, c, T, tol_abs / 4, rule_hi, rule_lo)
        integral, quad_err = _adaptive_quad(f, boundaries, rule_hi, rule_lo, tol_abs / 2, fast=fast)

        sign = 1 if n % 2 else -1
        value = +(sign * integral / mpmath.pi)
        err = +(quad_err / mpmath.pi + bound / mpmath.pi + tol_abs)
        return QuadratureResult(
            value=value,
            error_estimate=err,
            truncation_height=+T,
            truncation_bound=+bound,
            pieces=(PieceContribution("vertical", value),),
        )


def _saddle_integrand(n: int, ln_fact):
    def F(s):
        return (
            (2 * mpmath.pi) ** (-s - 1)
            * mpmath.sinpi(s / 2)
            * mpmath.zeta(1 + s)
            * mpmath.exp(
                ln_fact
                + mpmath.loggamma(s + 1)
                + mpmath.loggamma(s)
                - mpmath.loggamma(s + n + 1)
            )
        )

    return F


def saddle_contour_integral(n: int, prec=15, spec: ContourSpec | None = None) -> QuadratureResult:
    """b_n from the slanted saddle contour (kind fig1-saddle).

    Pieces reported: `axis` (real-axis run from c2 to the slant crossing
    sqrt(2 pi n); exactly real, so it contributes 0 to the imaginary part),
    `slant`, and `vertical`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise DomainError(f"saddle_contour_integral needs an int n >= 4, got {n!r}")
    if n > 500:
        raise DomainError(f"saddle_contour_integral is an oracle for n <= 500, got {n}")
    target = digits(prec)[0]
    if target > _MAX_TARGET:
        raise DomainError(f"saddle_contour_integral is capped at {_MAX_TARGET} digits, got {target}")
    spec = spec or ContourSpec(kind="fig1-saddle")
    if spec.kind != "fig1-saddle":
        raise DomainError(f"saddle_contour_integral needs kind fig1-saddle, got {spec.kind!r}")

    working = target + 18
    with workdps(working):
        ln_fact = mpmath.loggamma(n + 1)
        F = _saddle_integrand(n, ln_fact)
        x_cross = mpmath.sqrt(2 * mpmath.pi * n)
        if not spec.c2 < x_cross:
            raise DomainError(
                f"slant axis crossing {mpmath.nstr(x_cross, 6)} must lie right of c2={spec.c2}"
            )
        e_dir = mpmath.exp(mpc(0, 1) * 5 * mpmath.pi / 8)
        x_left = mpf(spec.c1) * mpmath.sqrt(n)
        u_end = (x_cross - x_left) / (-e_dir.real)
        z_end = x_cross + u_end * e_dir

        scale = envelope_bound(n, working)
        tol_abs = mpf(10) ** (-(target + 1)) * scale

        # vertical tail: |F| ~ t^(c1 sqrt(n) - n - 1/2) up the ray, so
        # integral above T is within 2 |F(T)| T / (p - 1) of zero
        p_decay = n + mpf("0.5") - x_left

        h_end = z_end.imag

        def tail(T):
            if not T > h_end:
                return mpf("inf")  # below the slant end; never acceptable
            return 2 * abs(F(x_left + mpc(0, 1) * T)) * T / max(mpf(1), p_decay - 1)

        T, bound = _choose_height(
            tail, tol_abs, spec.T, f"saddle contour at n={n}", T_start=h_end * mpf("1.2")
        )

        rule_hi, rule_lo = _embedded_rules(spec.degree, working)
        base = spec.panels if spec.panels is not None else 12

        slant_bounds = _uniform_boundaries(0, u_end, base)
        slant, err_s = _adaptive_quad(
            lambda u: F(x_cross + u * e_dir) * e_dir, slant_bounds, rule_hi, rule_lo, tol_abs / 4
        )

        if spec.panels is not None:
            vert_bounds = _graded_boundaries(h_end, T, max(8, base // 2 + 4))
        else:
            x_f = float(x_left)
            n_f = float(n)

            def vert_freq(t: float) -> float:
                r = math.hypot(x_f, max(t, 1e-6))
                return abs(math.log(r / (2 * math.pi))) + (n_f + 2) / max(t, 1e-6) + 0.1

            vert_bounds = _osc_boundaries(
                float(h_end), float(T), vert_freq, _gl_capacity(spec.degree)
            )
        vert, err_v = _adaptive_quad(
            lambda t: F(x_left + mpc(0, 1) * t) * mpc(0, 1), vert_bounds, rule_hi, rule_lo, tol_abs / 4
        )

        total = slant + vert
        value = +(-(2 / mpmath.pi) * total.imag)
        err = +((err_s + err_v + bound + tol_abs) * 2 / mpmath.pi)
        return QuadratureResult(
            value=value,
            error_estimate=err,
            truncation_height=+T,
            truncation_bound=+bound,
            pieces=(
                PieceContribution("axis", mpc(0)),
                PieceContribution("slant", +slant),
                PieceContribution("vertical", +vert),
            ),
        )
