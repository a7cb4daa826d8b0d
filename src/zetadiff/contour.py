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
  to sqrt(n).

Quadrature is composite Gauss-Legendre with nodes built in fixed point and
cached per degree, exact sums (`mpmath.fsum`, rounded once) of the nodes and
of the panel contributions, and an embedded error estimate: each panel's rule
against one of half its degree.  The degree is the oracle's own: 32, or 64
on a left line truncated above T = 2000.  A caller may name the truncation
height T.
A Rice line's grid starts with panels whose widths double away from t = 0
(the integrands peak there and decay fast), but its first panel is never
narrower than w0 = 10^(-working/degree): each integrand is analytic in the
strip |Im t| < 1/2 around the line, so Gauss-Legendre converges
geometrically on a panel of width w0 too.  The half-degree rule's error on
a start panel of width w falls like (w/2)^degree, so at w0 it is already
below the working precision, and narrower start panels only add mpmath
evaluations.  Past the head, the right and inverse lines and the saddle's
ray take panels sized to the phase one absorbs; the slant takes 12 equal ones.
Every integral (the three Rice lines and both saddle pieces) also has a
float64 integrand with a proven error bound, from `floattier`.  One driver,
`_adaptive_quad`, picks the tier of each panel: float64 when the integrand
is bounded at every node and the panel's bound fits its share of half the
tolerance, with the bound joining the error estimate; mpmath otherwise,
which is mostly the head of each contour where the integrand is largest.
There zeta comes from `mpcore._zeta_bounded`, Euler-Maclaurin summation in
fixed point with a stated error bound, on the left line at Re s = -1/2 as
directly as on the others: the amplitudes k^-(Re s) are shared by every node
of a line through one bounded table, and the phases k^-it are computed at
primes only and multiplied out for composite k.  The Rice kernel
n!/(s(s-1)...(s-n)) is one fixed-point product (`_rice_kernel`), and each
Rice integrand forms only the real part it returns.
Truncation heights come from explicit tail bounds; a user-supplied height
that cannot meet the tolerance, or a quadrature that runs out of its panel
budget, raises TruncationBoundError rather than returning a silently wrong
value.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf, mpc, workdps
from mpmath.libmp import (
    dps_to_prec, from_man_exp, mpc_mpf_div, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sub, round_nearest,
)

from . import mpcore
from .asymptotics import envelope_bound
from .differences import _binomial_sum
from .errors import DomainError, TruncationBoundError
from .floattier import _U, _left_line_float, _ray_float, _rice_line_float, _slant_float
from .precision import as_budget, digits

RICE_KINDS = ("zeta-right", "zeta-left", "inv-zeta")

_MAX_RICE_N = 100
_MAX_TARGET = 30

# Gauss-Legendre degree of every panel rule, and of a left line truncated
# above T = 2000
_DEGREE = 32
_LONG_LEFT_DEGREE = 64


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
    # integrand nodes evaluated by the quadrature: (mpmath, float64)
    evaluations: tuple = (0, 0)


# every oracle works at most _MAX_TARGET + 28 digits (zeta-left at n = 100:
# 30 target, 16 cancellation and 12 guard digits), so one build per degree at
# that precision serves them all
_GL_WORKING = _MAX_TARGET + 28


def legendre_rule(degree: int):
    """Nodes and weights of degree-point Gauss-Legendre on [-1, 1], accurate to
    _GL_WORKING digits."""
    if degree < 2:
        raise DomainError(f"need degree >= 2, got {degree}")
    return _legendre_nodes(degree)


@functools.lru_cache(maxsize=None)
def _legendre_nodes(degree: int):
    """Gauss-Legendre nodes and weights by Newton's method on fixed-point
    integers (value times 2^F, F = prec + 20 for the prec bits of
    _GL_WORKING + 10 digits); each node x and weight 2 / ((1 - x^2)
    P_degree'(x)^2) is rounded once to prec."""
    prec = dps_to_prec(_GL_WORKING + 10)
    F = prec + 20
    one = 1 << F
    make = mpmath.mp.make_mpf

    def p_dp(x):
        # P_degree(x) and its derivative by the three-term recurrence; the
        # 20 guard bits absorb what its floors add
        p0, p1 = one, x
        for k in range(2, degree + 1):
            p0, p1 = p1, (((2 * k - 1) * x * p1 >> F) - (k - 1) * p0) // k
        return p1, (degree * ((x * p1 >> F) - p0) << F) // ((x * x >> F) - one)

    half = []
    # the roots are symmetric about 0: build the positive ones (and 0 for
    # odd degree) from the Chebyshev-like guess, and mirror the rest
    for i in range(1, (degree + 1) // 2 + 1):
        guess = math.cos(math.pi * (i - 0.25) / (degree + 0.5))
        # the middle root of an odd degree is 0, where P_degree is exactly 0
        x = 0 if 2 * i - 1 == degree else int(guess * 2.0**53) << (F - 53)
        for _ in range(60):
            p, dp = p_dp(x)
            dx = (p << F) // dp
            x -= dx
            if abs(dx) < 1 << 20:
                # the error before this step was about |dx|, so after it
                # only the recurrence's rounding is left
                break
        dp = p_dp(x)[1]
        w = (2 << 4 * F) // ((one - (x * x >> F)) * dp * dp)
        half.append((from_man_exp(x, -F, prec, round_nearest), from_man_exp(w, -F, prec, round_nearest)))
    nodes = half + [(mpf_neg(x), w) for x, w in reversed(half[: degree // 2])]
    return tuple((make(x), make(w)) for x, w in nodes)


def _graded_boundaries(a, b, panels: int, min_width=0):
    """Panel boundaries on [a, b], widths doubling away from a; the interior
    boundaries closer than min_width to a are left out."""
    a = mpf(a)
    b = mpf(b)
    denom = mpf(2) ** panels - 1
    bounds = [a + (b - a) * (mpf(2) ** k - 1) / denom for k in range(panels + 1)]
    return bounds[:1] + [x for x in bounds[1:-1] if x - a >= min_width] + bounds[-1:]


def _gl_panel(f, a, b, rule):
    mid = (a + b) / 2
    half = (b - a) / 2
    return half * mpmath.fsum(w * f(mid + half * x) for x, w in rule)


def _embedded_rules(degree: int):
    """The panel rule and the strictly smaller rule its error estimate compares."""
    return legendre_rule(degree), legendre_rule(degree // 2)


def _float_panel(g, rule, mid, half):
    """Float64 sum of the rule over [mid - half, mid + half] for the float
    integrand g, and a proven bound on its error; None where g gives no
    bound at some node."""
    # the node mid + half x is within u (|mid| + 3 |half| + |t|) of exact
    node_err = 1.01 * _U * (abs(mid) + 3 * abs(half))
    acc = acc_abs = acc_err = 0.0
    for x, wt in rule:
        t = mid + half * x
        got = g(t, node_err + 1.01 * _U * abs(t))
        if got is None:
            return None
        v, e = got
        acc += wt * v
        acc_abs += wt * abs(v)
        acc_err += wt * e
    return half * acc, half * (acc_err + (len(rule) + 4) * _U * acc_abs)


def _adaptive_quad(f, boundaries, rule_hi, rule_lo, tol_abs, max_panels=3000, g=None,
                   evaluations=None):
    """Composite GL with worst-first bisection until the summed embedded
    deltas drop below tol_abs.  Running out of the `max_panels` budget
    first raises TruncationBoundError.

    `g(t, dt) -> (value, bound) | None` is the integrand's float64 tier,
    where dt bounds the rounding of the float node t.  A panel [a, b] is
    evaluated in float64 when g bounds every node and the panel's bound is
    within (tol_abs/2) (b - a) / (boundaries[-1] - boundaries[0]), so the
    bounds of all accepted panels sum to at most tol_abs/2; otherwise f is
    evaluated.  The returned error estimate includes the accepted bounds.

    `evaluations`, a list [mpmath, float64], gains the number of integrand
    nodes evaluated in each tier.
    """
    counts = evaluations if evaluations is not None else [0, 0]
    if g is not None:
        float_rules = [[(float(x), float(wt)) for x, wt in rule] for rule in (rule_hi, rule_lo)]
        share = float(tol_abs / 2) / float(boundaries[-1] - boundaries[0])

        def g_counted(t, dt):
            counts[1] += 1
            return g(t, dt)

    def record(a, b):
        """(value, error delta, rounding bound) of the panel [a, b]."""
        if g is not None:
            mid, half = float((a + b) / 2), float((b - a) / 2)
            fine = _float_panel(g_counted, float_rules[0], mid, half)
            if fine is not None and fine[1] <= share * 2 * half:
                coarse = _float_panel(g_counted, float_rules[1], mid, half)
                if coarse is not None:
                    value = mpmath.mpmathify(fine[0])
                    return value, abs(value - mpmath.mpmathify(coarse[0])), mpf(fine[1])
        counts[0] += len(rule_hi) + len(rule_lo)
        fine = _gl_panel(f, a, b, rule_hi)
        return fine, abs(fine - _gl_panel(f, a, b, rule_lo)), mpf(0)

    panels = {}
    heap = []
    serial = 0
    err = mpf(0)
    for a, b in zip(boundaries, boundaries[1:]):
        fine, delta, bound = record(a, b)
        panels[serial] = (a, b, fine, delta, bound)
        heapq.heappush(heap, (-delta, serial))
        err += delta
        serial += 1

    steps = 0
    while len(panels) < max_panels and heap and err > tol_abs:
        _, key = heapq.heappop(heap)
        a, b, _, delta, _ = panels[key]
        if delta <= tol_abs / (4 * max(1, len(panels))):
            break  # worst panel is already negligible; the rest are smaller
        mid = (a + b) / 2
        del panels[key]
        err -= delta
        for lo, hi in ((a, mid), (mid, b)):
            fine, dlt, bound = record(lo, hi)
            panels[serial] = (lo, hi, fine, dlt, bound)
            heapq.heappush(heap, (-dlt, serial))
            err += dlt
            serial += 1
        steps += 1
        if steps % 128 == 0:  # refresh the running error against drift
            err = mpmath.fsum(rec[3] for rec in panels.values())

    value = mpmath.fsum(rec[2] for rec in panels.values())
    err = mpmath.fsum(rec[3] for rec in panels.values())
    if len(panels) >= max_panels and err > tol_abs:
        raise TruncationBoundError(f"quadrature used its budget of {max_panels} panels with "
                                   f"error {mpmath.nstr(err, 3)} > {mpmath.nstr(tol_abs, 3)}")
    return value, err + mpmath.fsum(rec[4] for rec in panels.values())


def _osc_boundaries(t0: float, T: float, freq, degree: int):
    """Panel boundaries on [t0, T] with phase per panel near what a
    degree-point GL panel absorbs at ~1e-14 accuracy.

    `freq(t)` estimates |d(phase)/dt| of the integrand; widths also stay
    below 4t so power-law magnitude variation stays resolved per panel.
    """
    capacity = 0.7 * 2 * degree * 10 ** (-14.0 / (2 * degree))
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


def _rice_kernel(s, n: int, fact):
    """fact/(s(s-1)...(s-n)), fact = n! rounded once in the line's setup, at
    the ambient precision prec, rounding to nearest.

    Each s - j is an exact Gaussian integer times a power of 2.  The running
    product keeps W = prec + 10 bits: after each step one shift truncates
    both parts by under a unit, |error| < sqrt(2) units while the product is
    at least 2^(W-1) units, so each step errs by under 2^(1.5-W) relative.
    The quotient (`mpc_mpf_div`: |p|^2 to prec + 10 bits, each part rounded
    once) adds at most (1 + 2^-9) 2^-prec, so the result is within
    (1 + (n + 2)/256) 2^-prec relative of fact/prod(s - j)."""
    prec, rnd = mpmath.mp._prec_rounding
    width = prec + 10
    (asign, aman, aexp, _), (bsign, bman, bexp, _) = s._mpc_
    a = -aman if asign else aman
    b = -bman if bsign else bman
    # a common exponent e <= 0 (a zero part has man 0 and exp 0), so that
    # s - j = (a - j 2^-e) + i b, all in units of 2^e
    e = min(aexp if aman else 0, bexp if bman else 0, 0)
    a <<= aexp - e if aman else 0
    b <<= bexp - e if bman else 0
    step = 1 << -e
    x, y, ex = 1, 0, 0  # the product is (x + i y) 2^ex
    for _ in range(n + 1):
        x, y = x * a - y * b, x * b + y * a
        shift = max(abs(x).bit_length(), abs(y).bit_length()) - width
        if shift > 0:
            x >>= shift
            y >>= shift
            ex += shift
        ex += e
        a -= step
    prod = (from_man_exp(x, ex), from_man_exp(y, ex))
    return mpmath.mp.make_mpc(mpc_mpf_div(fact._mpf_, prod, prec, rnd))


def _re_mul(z, w) -> mpf:
    """Re(z w), with the bits of (z * w).real at the ambient precision."""
    prec, rnd = mpmath.mp._prec_rounding
    (a, b), (c, d) = z._mpc_, w._mpc_
    return mpmath.mp.make_mpf(mpf_sub(mpf_mul(a, c), mpf_mul(b, d), prec, rnd))


def _re_div(z, w) -> mpf:
    """Re(z / w), with the bits of (z / w).real at the ambient precision."""
    prec, rnd = mpmath.mp._prec_rounding
    (a, b), (c, d) = z._mpc_, w._mpc_
    mag = mpf_add(mpf_mul(c, c), mpf_mul(d, d), prec + 10)
    return mpmath.mp.make_mpf(mpf_div(mpf_add(mpf_mul(a, c), mpf_mul(b, d), prec + 10), mag, prec, rnd))


def _line_freq(n: int, ln_amp: float, tol: float):
    """Float estimate of the integrand's local phase rate on the line
    Re s = 3/2, where |phi| <= e^ln_amp.

    Components: the kernel's arctan drift <= (n+2)/t and the highest
    Dirichlet frequency ln k whose k^(-3/2)-sized term is still above tol
    at height t.
    """
    ln_fact = math.lgamma(n + 1)
    ln_tol = math.log(tol)

    def freq(t: float) -> float:
        t = max(t, 1e-6)
        ln_kern = ln_fact - (n + 1) * math.log(t)
        ln_kmax = (2.0 / 3.0) * (ln_amp + ln_kern - ln_tol)
        return max(ln_kmax, 0.1) + (n + 2) / t

    return freq


def _line_data(kind: str, n: int, target: int):
    """What `rice_integral` needs of one Rice line: working digits (target,
    the digits the line cancels and 12 guard digits), integrand f(t), its
    float64 tier g(t, dt), tail bound, result scale and frequency model
    (None on the left line, whose grid is graded instead).

    The right and inverse lines sit at Re s = 3/2, the left line at -1/2.
    """
    if kind == "zeta-left":
        cancel = math.ceil(2 * math.sqrt(math.pi * n) / math.log(10))
    elif kind == "inv-zeta":
        cancel = 2 + math.ceil(1.5 * math.log10(n))
    else:
        cancel = 2 + math.ceil(math.log10(n + 1))
    working = target + cancel + 12
    with workdps(working):
        ln_fact = mpmath.loggamma(n + 1)
        fact = mpf(math.factorial(n))
        c = mpf("-0.5") if kind == "zeta-left" else mpf("1.5")
        inverse = kind == "inv-zeta"  # phi = 1/zeta, else zeta

        def f(t):
            s = mpc(c, t)
            kern, z = _rice_kernel(s, n, fact), mpcore._zeta_bounded(s)[0]
            return _re_div(kern, z) if inverse else _re_mul(z, kern)

        if kind == "zeta-left":
            lg_fact = math.lgamma(n + 1)

            def g(t, dt):
                return _left_line_float(t, 1.5, n, lg_fact, dt)

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

            return working, f, g, tail, +envelope_bound(n, working), None

        # zeta-right and inv-zeta, |phi| <= amp
        amp = mpmath.zeta(c) / mpmath.zeta(2 * c) if inverse else mpmath.zeta(c)
        ln_fact_f = float(ln_fact)

        def g(t, dt):
            return _rice_line_float(t, dt, n, ln_fact_f, inverse)

        def tail(T):
            return amp * mpmath.exp(ln_fact - n * mpmath.ln(T)) / n

        scale = mpf(2) if inverse else max(mpf(1), n * mpmath.ln(n + 1))
        ln_amp = float(mpmath.ln(amp))
        return working, f, g, tail, +scale, lambda tol: _line_freq(n, ln_amp, tol)


def _check_height(T) -> None:
    """Refuse a caller's truncation height that is not a finite positive number."""
    try:
        ok = T is None or 0 < T < math.inf
    except TypeError:  # no order against numbers: a string, a complex
        ok = False
    if not ok:
        raise DomainError(f"truncation height must be finite and positive, got {T!r}")


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


def rice_integral(kind: str, n: int, prec=15, *, T=None) -> QuadratureResult:
    """Line-integral evaluation of delta_n (zeta-right), b_n (zeta-left) or d_n (inv-zeta),
    truncated at height T, or at the smallest height the tail bound allows.

    Cross-validation oracle: capped at 30 target digits and n <= 100.
    """
    _check_height(T)
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

    working, f, g, tail, scale, freq_for = _line_data(kind, n, target)
    with workdps(working):
        tol_abs = mpf(10) ** (-(target + 1)) * scale
        T, bound = _choose_height(tail, tol_abs, T, f"{kind} line integral at n={n}")

        # degree 64 on long left lines.  It is no longer cheaper there than
        # 32, since the float64 tier takes most panels (n = 5, T = 6400:
        # 6.25-8.16 s at 64, 6.35-7.58 s at 32), but 32 moves the error
        # estimate that `contour left --n 5` prints (+1.36e-14 becomes +1.37e-14)
        degree = _LONG_LEFT_DEGREE if kind == "zeta-left" and float(T) > 2000 else _DEGREE
        rule_hi, rule_lo = _embedded_rules(degree)
        # no start panel narrower than w0 (see the module docstring)
        w0 = mpf(10) ** (-mpf(working) / degree)
        if freq_for is None:
            # the left line's reflection factor grows like t and carries a
            # huge steadily swept Dirichlet spectrum; a frequency grid
            # oversizes itself there, so start coarse and let the
            # worst-first splitter resolve
            panels = max(10, int(math.ceil(math.log2(float(T)))) + 6)
            boundaries = _graded_boundaries(0, T, panels, w0)
        else:
            t_head = min(mpf(16), T / 2)
            head = _graded_boundaries(0, t_head, 12, w0)
            osc = _osc_boundaries(float(t_head), float(T), freq_for(float(tol_abs)), degree)
            boundaries = head + osc[1:]
        evaluations = [0, 0]
        integral, quad_err = _adaptive_quad(
            f, boundaries, rule_hi, rule_lo, tol_abs / 2, g=g, evaluations=evaluations
        )

        sign = 1 if n % 2 else -1
        value = +(sign * integral / mpmath.pi)
        err = +(quad_err / mpmath.pi + bound / mpmath.pi + tol_abs)
        return QuadratureResult(
            value=value,
            error_estimate=err,
            truncation_height=+T,
            truncation_bound=+bound,
            pieces=(PieceContribution("vertical", value),),
            evaluations=tuple(evaluations),
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


def saddle_contour_integral(n: int, prec=15, *, T=None) -> QuadratureResult:
    """b_n from the slanted saddle contour, truncated at height T, or at the
    smallest height the tail bound allows.

    Pieces reported: `axis` (the real-axis run up to the slant crossing
    sqrt(2 pi n); exactly real, so it contributes 0 to the imaginary part),
    `slant`, and `vertical` (the ray up from Re s = sqrt(n)).
    """
    _check_height(T)
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise DomainError(f"saddle_contour_integral needs an int n >= 4, got {n!r}")
    if n > 500:
        raise DomainError(f"saddle_contour_integral is an oracle for n <= 500, got {n}")
    target = digits(prec)[0]
    if target > _MAX_TARGET:
        raise DomainError(f"saddle_contour_integral is capped at {_MAX_TARGET} digits, got {target}")

    working = target + 18
    with workdps(working):
        ln_fact = mpmath.loggamma(n + 1)
        F = _saddle_integrand(n, ln_fact)
        x_cross = mpmath.sqrt(2 * mpmath.pi * n)
        e_dir = mpmath.exp(mpc(0, 1) * 5 * mpmath.pi / 8)
        x_left = mpmath.sqrt(n)
        u_end = (x_cross - x_left) / (-e_dir.real)
        z_end = x_cross + u_end * e_dir

        scale = envelope_bound(n, working)
        tol_abs = mpf(10) ** (-(target + 1)) * scale

        # vertical tail: |F| ~ t^(sqrt(n) - n - 1/2) up the ray, so
        # integral above T is within 2 |F(T)| T / (p - 1) of zero
        p_decay = n + mpf("0.5") - x_left

        h_end = z_end.imag

        def tail(T):
            if not T > h_end:
                return mpf("inf")  # below the slant end; never acceptable
            return 2 * abs(F(x_left + mpc(0, 1) * T)) * T / max(mpf(1), p_decay - 1)

        T, bound = _choose_height(
            tail, tol_abs, T, f"saddle contour at n={n}", T_start=h_end * mpf("1.2")
        )

        rule_hi, rule_lo = _embedded_rules(_DEGREE)

        ln_fact_f = float(ln_fact)
        xl = float(x_left)

        evaluations = [0, 0]  # both pieces
        slant_bounds = mpmath.linspace(0, u_end, 13)
        slant, err_s = _adaptive_quad(
            lambda u: F(x_cross + u * e_dir) * e_dir, slant_bounds, rule_hi, rule_lo, tol_abs / 4,
            g=_slant_float(float(x_cross), complex(e_dir), n, ln_fact_f), evaluations=evaluations,
        )

        n_f = float(n)

        def vert_freq(t: float) -> float:
            r = math.hypot(xl, max(t, 1e-6))
            return abs(math.log(r / (2 * math.pi))) + (n_f + 2) / max(t, 1e-6) + 0.1

        vert_bounds = _osc_boundaries(float(h_end), float(T), vert_freq, _DEGREE)
        vert, err_v = _adaptive_quad(
            lambda t: F(x_left + mpc(0, 1) * t) * mpc(0, 1), vert_bounds, rule_hi, rule_lo, tol_abs / 4,
            g=_ray_float(xl, n, ln_fact_f), evaluations=evaluations,
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
            evaluations=tuple(evaluations),
        )
