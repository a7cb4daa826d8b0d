"""Finite-difference sequences of zeta values.

The objects here are the alternating binomial transforms

    delta_n   = sum_{k=2..n} C(n,k) (-1)^k zeta(k)
    b_n       = n(1 - gamma - H_{n-1}) - 1/2 + delta_n          (b_0 = 1/2)
    A_n(m,k)  = sum_{l=2..n} C(n,l) (-1)^l zeta(l, m/k) / k^l
    a_n(m,k)  = A_n - (m/k - 1/2) + (n/k)[psi(m/k) + ln k + 1 - H_{n-1}]
    d_n       = sum_{k=2..n} C(n,k) (-1)^k / zeta(k)
    c_n       = -sum_{k=1..n} C(n,k) (-1)^k zeta(k+1) / (k+1)
    D(x)      = sum_l mu(l) [e^(-x/l) - 1 + x/l]

b_n are the Newton-series coefficients of zeta(s) - 1/(s-1); a_n(1,1) = b_n
and A_n(1,1) = delta_n exactly.  delta and d carry a second, independent
evaluation route (series rearrangement / Mobius sum) used for cross-checks.

Every operation sizes its working precision from the budget rules in
`precision` (binomial cancellation costs ~0.30103*n digits; exponentially
small results cost their own scale on routes that assemble them from O(1)
pieces) and refuses budgets that cannot reach the requested target.

One exact kernel serves every binomial route, in fixed point with
P = dps_to_prec(w) + 10 bits at the working digits w.  Its inputs are
integers: floor(x_k 2^P) of zeta(k), 1/zeta(k) or zeta(k+1)/(k+1) taken from
`mpcore` at w digits (within one unit of 2^-P of that mpf), and for A and a
the entries of `mpcore._hurwitz_fixed`, proven within 2 units of 2^-P of
zeta(l, m/k)/k^l itself.  S_n = sum_k C(n,k) (-1)^k X_k is exact, so for A_n
it is within 2^(n+1) units of 2^P A_n; the budget's cancellation digits cover
that.  b_n and a_n are assembled in the same fixed point
with exact harmonic numbers, and every value is rounded once, to w digits.
A single index costs one dot product with C(n,k).  A batch
(`sequence_many`) reads each input once and, for a dense index set, takes
every S_n from one difference table in O(N^2/2) integer subtractions.  Both
routes give the same integers, so batch values equal single-call values at
the same budget bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workdps
from mpmath.libmp import to_fixed

from . import mpcore
from .errors import DomainError
from .mpcore import _coerce_shift, _fixed_bits, _from_fixed
from .precision import PrecisionBudget, as_budget, required_working_digits

_DELTA_METHODS = ("binomial", "series")
_D_METHODS = ("binomial", "moebius")


@dataclass(frozen=True)
class SequencePoint:
    """One computed sequence value: index, value, producing method, digits."""

    n: int
    value: object  # mpf (mpc for dirichlet combinations)
    method: str
    achieved_digits: int


@dataclass(frozen=True)
class CharacterTable:
    """Values chi(1..k) of a completely multiplicative character mod k."""

    k: int
    values: tuple

    def __post_init__(self):
        if self.k < 1 or len(self.values) != self.k:
            raise DomainError(
                f"character table mod {self.k} needs exactly {self.k} values"
            )
        chi = self._chi
        if chi(1) != 1:
            raise DomainError("character must have chi(1) = 1")
        for m in range(1, self.k + 1):
            if math.gcd(m, self.k) != 1 and chi(m) != 0:
                raise DomainError(f"chi({m}) must be 0 (gcd({m},{self.k}) > 1)")
        coprime = [m for m in range(1, self.k + 1) if math.gcd(m, self.k) == 1]
        for x in coprime:
            for y in coprime:
                lhs = chi((x * y - 1) % self.k + 1)
                rhs = chi(x) * chi(y)
                if abs(complex(lhs) - complex(rhs)) > 1e-12:
                    raise DomainError(
                        f"character not multiplicative at ({x},{y}) mod {self.k}"
                    )

    def _chi(self, m: int):
        return self.values[(m - 1) % self.k]


def _check_index(n, minimum=0) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"sequence index must be an int, got {n!r}")
    if n < minimum:
        raise DomainError(f"sequence index must be >= {minimum}, got {n}")
    return n


def _to_fixed(x: mpf, bits: int) -> int:
    """floor(x 2^bits)."""
    return to_fixed(x._mpf_, bits)


def _binomial_dot(n: int, xs: list[int]) -> int:
    """sum_{k=0..n} C(n,k) (-1)^k xs[k], exactly."""
    acc, cnk = 0, 1
    for k in range(n + 1):
        acc += cnk * xs[k] if k % 2 == 0 else -cnk * xs[k]
        cnk = cnk * (n - k) // (k + 1)
    return acc


def _difference_table(xs: list[int], ns) -> dict[int, int]:
    """The sums of `_binomial_dot` for every n in ns, by repeated differencing:
    sum_k C(n,k) (-1)^k xs[k] = (-1)^n (Delta^n xs)[0]."""
    wanted = set(ns)
    sums = {}
    row = xs
    for n in range(max(wanted) + 1):
        if n in wanted:
            sums[n] = row[0] if n % 2 == 0 else -row[0]
        row = [hi - lo for lo, hi in zip(row, row[1:])]
    return sums


def _binomial_sum(n: int, xs: list, working: int) -> mpf:
    """sum_{k=0..n} C(n,k) (-1)^k xs[k] for mpf inputs, through the kernel."""
    bits = _fixed_bits(working)
    return _from_fixed(_binomial_dot(n, [_to_fixed(x, bits) for x in xs]), bits, working)


def _input(kind: str, k: int, working: int, q) -> mpf:
    """x_k of the kind's alternating sum as an mpf (k >= 2; k >= 1 for c)."""
    if kind == "c":
        return mpcore.zeta_int(k + 1, working) / (k + 1)
    if kind in ("A", "a"):
        return mpcore.hurwitz_int(k, q, working) / mpf(q.k) ** k
    if kind == "d":
        return 1 / mpcore.zeta_int(k, working)
    return mpcore.zeta_int(k, working)


def _harmonic_fixed(ns, bits: int) -> dict[int, int]:
    """floor(H_{n-1} 2^bits) for every n in ns, from one running exact sum."""
    out, h, j = {}, Fraction(0), 0
    for n in sorted(set(ns)):
        while j < n - 1:
            j += 1
            h += Fraction(1, j)
        out[n] = (h.numerator << bits) // h.denominator
    return out


def _kernel(kind: str, ns, working: int, q=None) -> dict[int, mpf]:
    """Values of a binomial-route kind at every n in ns, at `working` digits."""
    bits = _fixed_bits(working)
    top = max(ns)
    if q is not None:
        xs = mpcore._hurwitz_fixed(top, q.m, q.k, bits)
    else:
        xs = [0] * (top + 1)
        with workdps(working):
            for k in range(1 if kind == "c" else 2, top + 1):
                xs[k] = _to_fixed(_input(kind, k, working, q), bits)
    wanted = set(ns)
    if 2 * len(wanted) > top:
        sums = _difference_table(xs, wanted)
    else:
        sums = {n: _binomial_dot(n, xs) for n in wanted}
    if kind in ("delta", "A", "d"):
        return {n: _from_fixed(s, bits, working) for n, s in sums.items()}
    if kind == "c":
        return {n: _from_fixed(-s, bits, working) for n, s in sums.items()}

    one = 1 << bits
    gamma = _to_fixed(mpcore.euler_gamma(working), bits)
    harm = _harmonic_fixed(wanted, bits)
    if kind == "b":
        return {
            n: mpf("0.5") if n == 0
            else _from_fixed(n * (one - gamma - harm[n]) - one // 2 + s, bits, working)
            for n, s in sums.items()
        }
    # a: 2k a_n = 2k A_n - (2m - k) + 2n [psi(m/k) + ln k + 1 - H_{n-1}]
    with workdps(working):
        psi = _to_fixed(mpcore.digamma_rational(q, working), bits)
        lnk = _to_fixed(mpmath.ln(q.k), bits)
    return {
        n: _from_fixed(
            2 * q.k * s - (2 * q.m - q.k) * one + 2 * n * (psi + lnk + one - harm[n]),
            bits, working, den=2 * q.k,
        )
        for n, s in sums.items()
    }


def _rearranged(L: int, working: int, target: int, mobius: bool, head, coeffs) -> mpf:
    """sum_{l<=L} w(l) head(l) + sum_{j>=2} (-1)^j c_j T_j, T_j = sum_{l>L} w(l) l^-j.

    The weights w(l) are mu(l) (T_j from `_mobius_tails`) or 1 (T_j =
    zeta(j, L+1)); `coeffs` yields c_2, c_3, ..., finitely many where the
    expansion is exact.  The tail stops once the next-term bound
    2 c_j ((L+1)^-j + L^(1-j)/(j-1)) is below 10^-(target+5) max(1, |head|).
    """
    mu = _mobius_table(L) if mobius else None
    with workdps(working):
        acc = mpf(0)
        for ell in range(1, L + 1):
            w = mu[ell] if mobius else 1
            if w:
                acc += w * head(ell)
        tol = mpf(10) ** (-(target + 5)) * max(mpf(1), abs(acc))
        cs = []
        for j, c in enumerate(coeffs, 2):
            if cs and 2 * mpf(c) * ((L + 1) ** mpf(-j) + mpf(L) ** (1 - j) / (j - 1)) < tol:
                break
            cs.append(c)
        top = len(cs) + 1
        if mobius:
            tails = _mobius_tails(L, top, working)
        else:
            tails = [None, None] + [mpcore.hurwitz_int(j, L + 1, working) for j in range(2, top + 1)]
        for j, c in enumerate(cs, 2):
            term = mpf(c) * tails[j]
            acc = acc + term if j % 2 == 0 else acc - term
        return +acc


def _rearranged_difference(n: int, budget: PrecisionBudget, mobius: bool) -> mpf:
    """delta_n (weights 1) or d_n (weights mu(l)) with L = max(2n, 32), where
    the tail terms shrink by at least 1/2 per step and end at j = n."""
    return _rearranged(
        max(2 * n, 32), budget.working_digits, budget.target_digits, mobius,
        lambda ell: (1 - mpf(1) / ell) ** n - 1 + n * (mpf(1) / ell),
        (math.comb(n, j) for j in range(2, n + 1)),
    )


def delta(n: int, prec: PrecisionBudget | int = 15, method: str = "binomial") -> SequencePoint:
    """delta_n by the alternating binomial sum or the series rearrangement."""
    n = _check_index(n)
    if method not in _DELTA_METHODS:
        raise DomainError(f"delta method must be one of {_DELTA_METHODS}, got {method!r}")
    budget = as_budget(prec, "delta", n, method=method)
    if method == "binomial":
        value = _kernel("delta", [n], budget.working_digits)[n]
    elif n < 2:
        value = mpf(0)
    else:
        value = _rearranged_difference(n, budget, mobius=False)
    return SequencePoint(n, value, method, budget.target_digits)


def b(n: int, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Newton coefficient b_n of zeta(s) - 1/(s-1); b_0 = 1/2."""
    n = _check_index(n)
    budget = as_budget(prec, "b", n)
    value = _kernel("b", [n], budget.working_digits)[n]
    return SequencePoint(n, value, "binomial", budget.target_digits)


def A(n: int, shift, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Hurwitz difference A_n(m,k) = sum C(n,l)(-1)^l zeta(l, m/k)/k^l."""
    n = _check_index(n)
    q = _coerce_shift(shift)
    budget = as_budget(prec, "A", n, k=q.k)
    value = _kernel("A", [n], budget.working_digits, q)[n]
    return SequencePoint(n, value, "binomial", budget.target_digits)


def a(n: int, shift, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Exponentially small residue-adjusted part a_n(m,k); a_n(1,1) = b_n."""
    n = _check_index(n, minimum=1)
    q = _coerce_shift(shift)
    budget = as_budget(prec, "a", n, k=q.k)
    value = _kernel("a", [n], budget.working_digits, q)[n]
    return SequencePoint(n, value, "residue-adjusted", budget.target_digits)


def dirichlet_diff(chi: CharacterTable, n: int, prec: PrecisionBudget | int = 15) -> mpc:
    """sum_m chi(m) A_n(m,k) = sum_{l=2..n} C(n,l)(-1)^l L(chi, l)."""
    if not isinstance(chi, CharacterTable):
        raise DomainError("dirichlet_diff needs a CharacterTable")
    n = _check_index(n)
    budget = as_budget(prec, "A", n, k=chi.k)
    w = budget.working_digits
    with workdps(w):
        acc = mpc(0)
        for m in range(1, chi.k + 1):
            coeff = chi.values[m - 1]
            if coeff == 0:
                continue
            part = A(n, (m, chi.k), PrecisionBudget(budget.target_digits, w, budget.guard_digits)).value
            acc += mpc(coeff) * part
        return +acc


_MOBIUS_TABLE: list[int] = []


def _mobius_table(limit: int) -> list[int]:
    global _MOBIUS_TABLE
    if len(_MOBIUS_TABLE) <= limit:
        _MOBIUS_TABLE = mpcore.mobius_upto(max(limit, 64))
    return _MOBIUS_TABLE


def _mobius_tails(L: int, top: int, working: int) -> list:
    """[T_j] for j <= top, T_j = sum_{l>L} mu(l) l^-j = 1/zeta(j) - sum_{l<=L} mu(l) l^-j.

    T_j ~ (L+1)^-j is a difference of O(1) numbers, so both are formed at the
    kernel bits of the largest lift, working + top log10(L+1) + 10 digits: the
    partial sums in one pass of floor(floor(2^P/l^(j-1))/l) = floor(2^P/l^j)
    (within L units), 1/zeta(j) once per j at the lifted digits.
    """
    mu = _mobius_table(L)
    lifted = working + math.ceil(top * math.log10(L + 1)) + 10
    bits = _fixed_bits(lifted)
    one = 1 << bits
    part = [0] * (top + 1)
    for ell in range(1, L + 1):
        if mu[ell]:
            t = one // ell
            for j in range(2, top + 1):
                t //= ell
                if not t:
                    break
                part[j] += mu[ell] * t
    with workdps(lifted):
        return [None, None] + [
            _from_fixed(_to_fixed(1 / mpmath.zeta(j), bits) - part[j], bits, working)
            for j in range(2, top + 1)
        ]


def d(n: int, prec: PrecisionBudget | int = 15, method: str = "binomial") -> SequencePoint:
    """Differences of inverse zeta values d_n (tends to 2)."""
    n = _check_index(n)
    if method not in _D_METHODS:
        raise DomainError(f"d method must be one of {_D_METHODS}, got {method!r}")
    budget = as_budget(prec, "d", n, method=method)
    if method == "binomial":
        value = _kernel("d", [n], budget.working_digits)[n]
    elif n < 2:
        value = mpf(0)
    else:
        value = _rearranged_difference(n, budget, mobius=True)
    return SequencePoint(n, value, method, budget.target_digits)


def c(n: int, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """c_n = -sum_{k=1..n} C(n,k)(-1)^k zeta(k+1)/(k+1) (~ H_n + gamma - 1)."""
    n = _check_index(n)
    budget = as_budget(prec, "c", n)
    value = _kernel("c", [n], budget.working_digits)[n]
    return SequencePoint(n, value, "binomial", budget.target_digits)


def D_of(x, prec: PrecisionBudget | int = 15) -> mpf:
    """Mobius-smoothed comparison function D(x) = sum mu(l)[e^(-x/l) - 1 + x/l]."""
    budget = as_budget(prec, "D", 0)
    with workdps(budget.working_digits):
        xv = mpf(x)
        if not mpmath.isfinite(xv) or xv <= 0:
            raise DomainError(f"D(x) needs finite x > 0, got {x!r}")

    def powers():  # x^j / j!
        j, xpow, fact = 2, xv * xv, mpf(2)
        while True:
            yield xpow / fact
            j += 1
            xpow *= xv
            fact *= j

    return _rearranged(
        max(32, int(math.ceil(2 * float(xv)))), budget.working_digits, budget.target_digits,
        True, lambda ell: mpmath.exp(-xv / ell) - 1 + xv / ell, powers(),
    )


_METHODS = {"delta": _DELTA_METHODS, "d": _D_METHODS}
_KINDS = ("delta", "b", "A", "a", "d", "c")


def sequence_many(
    kind: str,
    ns: list[int],
    target_digits: int = 15,
    shift=None,
    method: str | None = None,
    threads: int = 1,
) -> list[SequencePoint]:
    """Evaluate one sequence kind over many indices at one working precision.

    The working precision is sized for the largest index, so every value
    equals the single call at that budget bit for bit.  Binomial routes read
    each input once (zeta values from `mpcore.zeta_int`, Hurwitz values
    from one fixed-point table) and run the exact kernel once for the whole
    batch; the rearranged routes (delta 'series', d 'moebius')
    go index by index.  `threads` is accepted for compatibility and changes
    nothing: the batch is integer arithmetic that threads cannot share under
    the interpreter lock, so it runs in the calling thread.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}")
    if not ns:
        raise DomainError("empty index list")
    allowed = _METHODS.get(kind, ("binomial",))
    if method is not None and method not in allowed:
        raise DomainError(f"{kind} method must be one of {allowed}, got {method!r}")
    for n in ns:
        _check_index(n, minimum=1 if kind == "a" else 0)
    q = None
    if kind in ("A", "a"):
        q = _coerce_shift(shift if shift is not None else (1, 1))
    n_max = max(ns)
    working = required_working_digits(
        kind, n_max, target_digits, k=q.k if q else 1, method=method
    )
    budget = PrecisionBudget(target_digits, working)
    if method == "series":
        return [delta(n, budget, method) for n in ns]
    if method == "moebius":
        return [d(n, budget, method) for n in ns]

    values = _kernel(kind, ns, working, q)
    label = "residue-adjusted" if kind == "a" else "binomial"
    return [SequencePoint(n, values[n], label, target_digits) for n in ns]
