"""Newton-series evaluation and generating-function checks for delta_n.

The interpolation series Phi(s) = sum_{n>=0} (-1)^n b_n C(s,n) reproduces
zeta(s) - 1/(s-1) at every complex s (gamma at s = 1).  ``newton_eval``
returns a partial sum together with a certified tail bound built from the
proven |b_n| envelope and the product formula for the binomial factor, so
callers get a true error certificate rather than a heuristic.

The module also expands the two generating functions of delta_n as
truncated power series: the ordinary one z/(1-z)^2 (psi(1/(1-z)) + gamma)
and the exponential one e^z sum_{n>=2} zeta(n)(-z)^n / n!.  Their
coefficients must match the directly computed differences, which makes a
sharp cross-representation consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf, workdps

from . import differences, mpcore
from .asymptotics import envelope_bound
from .errors import DomainError, InsufficientPrecisionError, TruncationBoundError
from .precision import PrecisionBudget, digits

# Hard ceiling on tail-scan length; past this the certificate search gives up.
_TAIL_SCAN_CAP = 400_000


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known through z^order; arithmetic keeps the min order.

    Coefficients are mpf (or mpc) values indexed 0..order.  Adding or
    multiplying two series truncates to the shorter one, since coefficients
    beyond the shared order would be incomplete.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise DomainError("a truncated series needs at least the z^0 term")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for c in self.coefficients:
            if not mpmath.isfinite(c):
                raise DomainError("series coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise DomainError(
                f"coefficient index {n} outside stored range 0..{self.order}"
            )
        return self.coefficients[n]

    def _pair(self, other: "TruncatedSeries"):
        m = min(self.order, other.order)
        return m, self.coefficients[: m + 1], other.coefficients[: m + 1]

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            m, a, b = self._pair(other)
            return TruncatedSeries(tuple(x + y for x, y in zip(a, b)))
        head = (self.coefficients[0] + other,) + self.coefficients[1:]
        return TruncatedSeries(head)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            m, a, b = self._pair(other)
            return TruncatedSeries(tuple(x - y for x, y in zip(a, b)))
        head = (self.coefficients[0] - other,) + self.coefficients[1:]
        return TruncatedSeries(head)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            m, a, b = self._pair(other)
            out = []
            for n in range(m + 1):
                out.append(mpmath.fsum(a[i] * b[n - i] for i in range(n + 1)))
            return TruncatedSeries(tuple(out))
        return TruncatedSeries(tuple(c * other for c in self.coefficients))

    __rmul__ = __mul__


def _refuse_growing_tail(s, N: int) -> None:
    """Refuse at once a point whose tail terms keep growing past the scan cap.

    The tail scan needs a ratio below 0.99 between consecutive tail terms.
    That ratio is |s - n|/(n + 1) times the envelope ratio B(n+1)/B(n) >=
    exp(-sqrt(pi/n)), so for n > N it is at least (|s| - n) c/(n + 1) with
    c = exp(-sqrt(pi/(N+1))), which stays >= 1 for n <= n0 = (c|s| - 1)/(1 + c).
    """
    with workdps(30):
        c = mpmath.exp(-mpmath.sqrt(mpmath.pi / (N + 1)))
        n0 = mpmath.floor((c * abs(s) - 1) / (1 + c))
        if n0 <= N + _TAIL_SCAN_CAP:
            return
        # three significant digits, rounded down so the named N stays a lower bound
        shown = mpf(mpmath.nstr(n0, 3))
        if shown > n0:
            shown -= mpf(10) ** (int(mpmath.floor(mpmath.log10(shown))) - 2)
        raise TruncationBoundError(
            f"tail terms at s={mpmath.nstr(s, 8)} keep growing up to n={mpmath.nstr(shown, 3)}, beyond "
            f"the scan cap of {_TAIL_SCAN_CAP} indices; N >= {mpmath.nstr(shown, 3)} would be needed"
        )


def _log_envelope(n: int) -> float:
    """log B(n) in float64, B(n) = 2 (2n/pi)^(1/4) e^(-2 sqrt(pi n)) the |b_n| envelope."""
    return math.log(2) + 0.25 * math.log(2 * n / math.pi) - 2 * math.sqrt(math.pi * n)


def _below_envelope(bn, n: int, working: int) -> bool:
    """True if float64 shows |b_n| <= envelope_bound(n, working) for n >= 2.

    Let L = log B(n), B(n) = 2 (2n/pi)^(1/4) e^(-2 sqrt(pi n)), and write b_n
    = man 2^e with man of bc bits, t = max(0, bc - 53).  Then
    log|b_n| = log(man >> t) + (e + t) log 2 is computed within 2^-52 (the
    cut) + 8e-15 (an ulp of a log below 37) + 2^-51 |e + t| log 2, so within
    1e-14 + 2^-50 (|log|b_n|| + 40); L within 2^-48 (|L| + 1), as its three
    terms' absolute values sum to under 3 |L| + 1.  envelope_bound rounds
    about eight operations at prec > 3.3 working bits, so its log is within
    2^(4-prec) (|L| + 1) <= 10^(2-working) (|L| + 1) of L.  Hence if |b_n| is
    at or above it, either b_n > 1 or |log|b_n|| < 2 |L| + 1, and either way
    the float gap below exceeds -(1e-9 + 10^(2-working)) (|L| + 1): this
    returns True only where the exact comparison would not raise.
    """
    _, man, exp, bc = bn._mpf_
    if not man:
        return bn == 0
    cut = max(0, bc - 53)
    log_b = math.log(man >> cut) + (exp + cut) * math.log(2)
    log_env = _log_envelope(n)
    return log_b < log_env - (1e-9 + 10.0 ** (2 - working)) * (abs(log_env) + 1)


def newton_eval(s, N: int, prec: PrecisionBudget | int = 15):
    """Partial Newton sum of order N at complex s with a tail certificate.

    Returns ``(value, tail_bound)`` where value = sum_{n=0..N} (-1)^n b_n
    C(s,n) and tail_bound covers BOTH error sources of the returned value:
    the truncated tail, bounded by sum_{n>N} B(n) |C(s,n)| with B(n) the
    proven |b_n| envelope, plus a summation-rounding allowance, so that
    |value - Z(s)| <= tail_bound holds for the value actually handed back.
    The binomial factor runs as the product prod_{j<n} (s-j)/(j+1), which
    terminates exactly at nonnegative integer s (no truncation error there).
    If the certificate exceeds the requested tolerance
    10^-target * max(1, |value|), the error reports the N that would
    suffice.
    """
    if not isinstance(N, int) or N < 1:
        raise DomainError(f"truncation order must be an integer >= 1, got {N!r}")
    target, working = digits(prec, 12 + math.ceil(math.log10(N + 1)))
    try:
        s = mpmath.mpmathify(s)
    except (TypeError, ValueError):  # not a number: None, "abc"
        raise DomainError(f"evaluation point must be a number, got {s!r}") from None
    if not mpmath.isfinite(s):
        raise DomainError(f"evaluation point must be finite, got {s}")
    if isinstance(s, mpmath.mpc) and s.imag == 0:
        s = s.real
    _refuse_growing_tail(s, N)

    points = differences.sequence_many("b", list(range(N + 1)), target_digits=working)
    with workdps(working):
        binom = mpmath.mpmathify(1)
        terms = []
        for n in range(N + 1):
            bn = points[n].value
            if (n >= 2 and not _below_envelope(bn, n, working)
                    and abs(bn) > envelope_bound(n, working)):
                # certificate premise broken; never return an invalid bound
                raise TruncationBoundError(
                    f"|b_{n}| exceeds its proven envelope; tail certificate void"
                )
            terms.append(binom * bn if n % 2 == 0 else -binom * bn)
            binom *= (s - n) / (n + 1)
        value = mpmath.fsum(terms)

        # rounding allowance: each term carries O(n) ulp from the binomial
        # recurrence, fsum adds one final rounding
        s_abs = mpmath.fsum(abs(t) for t in terms)
        arith = mpf(10) ** (-working) * ((2 * N + 5) * s_abs + 1 + abs(value))
        tol = 10.0 ** (-target) * max(1.0, float(abs(value)))
        if float(arith) > tol / 2:
            need = working + int(math.ceil(math.log10(float(arith) / tol))) + 2
            raise InsufficientPrecisionError(
                f"rounding allowance {mpmath.nstr(arith, 3)} alone exceeds the "
                f"10^-{target} tolerance at N={N}; need ~{need} working digits",
                need,
            )

        if binom == 0:
            return +value, +arith

        # Tail scan in double-precision logs: a bound needs ~3 digits, not 30.
        lc = float(mpmath.log(abs(binom)))
        log_terms = []
        n = N + 1
        lt = _log_envelope(n) + lc
        closure = math.inf
        floor = 1e-6 * 10.0 ** (-target) * max(1.0, float(abs(value)))
        while n <= N + _TAIL_SCAN_CAP:
            log_terms.append(lt)
            lc += float(mpmath.log(abs(s - n))) - math.log(n + 1)
            n += 1
            lt_next = _log_envelope(n) + lc
            ratio = math.exp(min(lt_next - lt, 700.0))
            if ratio < 0.99:
                closure = math.exp(lt) * ratio / (1 - ratio)
                if closure < floor:
                    break
            lt = lt_next
        else:
            raise TruncationBoundError(
                f"tail terms at s={s} still growing after scanning "
                f"{_TAIL_SCAN_CAP} indices; no certificate"
            )

        tail = math.fsum(math.exp(min(lt, 700.0)) for lt in reversed(log_terms))
        bound = (tail + closure) * 1.001  # slack for the double-precision scan
        if bound > tol:
            # smallest order whose remaining tail fits under the tolerance
            suffix = closure
            needed = None
            for i in range(len(log_terms) - 1, -1, -1):
                suffix += math.exp(min(log_terms[i], 700.0))
                if suffix * 1.001 > tol:
                    needed = N + 1 + i + 1
                    break
            raise TruncationBoundError(
                f"tail bound {bound:.3e} exceeds tolerance {tol:.3e} at N={N}; "
                f"N={needed if needed is not None else N} would suffice"
            )
        return +value, mpf(bound) + arith


def _check_order(M) -> int:
    if not isinstance(M, int) or M < 2:
        raise DomainError(f"generating-function order must be an integer >= 2, got {M!r}")
    return M


def ogf_coeffs(M: int, prec: PrecisionBudget | int = 30) -> TruncatedSeries:
    """Ordinary generating function of delta_n through z^M.

    Expands z/(1-z)^2 (psi(1/(1-z)) + gamma) by Horner composition of
    psi(1+u) + gamma = sum_{k>=1} (-1)^{k+1} zeta(k+1) u^k with
    u = z/(1-z).  The z^n coefficient equals delta_n for n >= 2.
    """
    M = _check_order(M)
    # composition squares error growth; run it half again as wide
    working = math.ceil(1.5 * digits(prec, 10 + M)[1])
    with workdps(working):
        u = TruncatedSeries((mpf(0),) + (mpf(1),) * M)
        acc = TruncatedSeries((mpf(0),) * (M + 1))
        zetas = mpcore._zeta_rounded(M + 1, working)
        for k in range(M, 0, -1):
            acc = (acc + (zetas[k + 1] if k % 2 == 1 else -zetas[k + 1])) * u
        prefactor = TruncatedSeries(tuple(mpf(n) for n in range(M + 1)))
        return acc * prefactor


def egf_coeffs(M: int, prec: PrecisionBudget | int = 30) -> TruncatedSeries:
    """Exponential generating function of delta_n through z^M.

    Expands e^z sum_{n>=2} zeta(n) (-z)^n / n!; the n-th coefficient times
    n! equals delta_n for n >= 2.
    """
    M = _check_order(M)
    working = math.ceil(1.5 * digits(prec, 10 + M)[1])
    with workdps(working):
        fact = [mpf(1)]
        for n in range(1, M + 1):
            fact.append(fact[-1] * n)
        inner = [mpf(0), mpf(0)]
        for n, zn in enumerate(mpcore._zeta_rounded(M, working)[2:], 2):
            inner.append(zn / fact[n] if n % 2 == 0 else -zn / fact[n])
        expo = TruncatedSeries(tuple(1 / fact[n] for n in range(M + 1)))
        return TruncatedSeries(tuple(inner)) * expo
