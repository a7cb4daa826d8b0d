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
integers: floor(x_k 2^P) of zeta(k), 1/zeta(k) or zeta(k+1)/(k+1) as mpfs
at w digits, and for A and a the entries of `mpcore._hurwitz_fixed`, proven
within 2 units of 2^-P of zeta(l, m/k)/k^l itself.  zeta(k) is the mpf
`mpcore.zeta_int` returns, read for one index or many from
`mpcore._zeta_rounded`: one grow-only fixed-point table, rounded once
(mpmath only near a rounding tie).  S_n = sum_k C(n,k) (-1)^k X_k is exact,
so for A_n it is within 2^(n+1) units of 2^P A_n; the budget's cancellation
digits cover that.  b_n and a_n are assembled in the same fixed point with
exact harmonic numbers, and every value is rounded once, to w digits.  A
single index costs one dot product with C(n,k).  A batch (`sequence_many`)
reads each input once and, for a dense index set, takes every S_n from one
difference table in O(N^2/2) integer subtractions.  Both routes give the
same integers, so batch values equal single-call values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workdps
from mpmath.libmp import to_fixed

from . import mpcore
from .errors import DomainError
from .mpcore import _coerce_shift, _fixed_bits, _from_fixed
from .precision import PrecisionBudget, as_budget

# kind -> (smallest index, second route or None, label of the binomial route);
# the second routes are the series rearrangement of delta and the Mobius sum of d
KINDS = {
    "b": (0, None, "binomial"),
    "delta": (0, "series", "binomial"),
    "A": (0, None, "binomial"),
    "a": (1, None, "residue-adjusted"),
    "d": (0, "moebius", "binomial"),
    "c": (0, None, "binomial"),
}


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


def _input(kind: str, k: int, zeta: mpf) -> mpf:
    """x_k from zeta = zeta(k) (zeta(k+1) for c): zeta, 1/zeta or zeta/(k+1)."""
    if kind == "c":
        return zeta / (k + 1)
    if kind == "d":
        return 1 / zeta
    return zeta


def _harmonic_fixed(ns, bits: int) -> dict[int, int]:
    """floor(H_{n-1} 2^bits) for every n in ns, from one running integer sum.

    S = sum_{j<n} floor(2^(bits+g)/j), g = 16 + the bit length of max(ns), is
    at most n - 1 units below 2^(bits+g) H_{n-1}, so the floor is S >> g
    unless a multiple of 2^g lies in (S, S + n - 1]; only then is the exact
    sum `mpcore.harmonic(n - 1)` taken.
    """
    ns = sorted(set(ns))
    g = max(ns, default=0).bit_length() + 16
    one = 1 << (bits + g)
    out, acc, j = {}, 0, 0
    for n in ns:
        while j < n - 1:
            j += 1
            acc += one // j
        floor = acc >> g
        if floor != (acc + max(n - 1, 0)) >> g:
            h = mpcore.harmonic(n - 1)
            floor = (h.numerator << bits) // h.denominator
        out[n] = floor
    return out


def _kernel(kind: str, ns, working: int, q=None) -> dict[int, mpf]:
    """Values of a binomial-route kind at every n in ns, at `working` digits."""
    bits = _fixed_bits(working)
    top, wanted = max(ns), set(ns)
    if q is not None:
        xs = mpcore._hurwitz_fixed(top, q.m, q.k, bits)
    else:
        # c reads zeta(k+1) for k >= 1, the others zeta(k) for k >= 2
        lift = 1 if kind == "c" else 0
        xs = [0] * (top + 1)
        with workdps(working):
            for k, z in enumerate(mpcore._zeta_rounded(top + lift, working)[2:], 2 - lift):
                xs[k] = _to_fixed(_input(kind, k, z), bits)
    if 2 * len(wanted) > top:
        sums = _difference_table(xs, wanted)
    else:
        sums = {n: _binomial_dot(n, xs) for n in wanted}
    if kind in ("delta", "A", "d", "c"):
        sign = -1 if kind == "c" else 1
        return {n: _from_fixed(sign * s, bits, working) for n, s in sums.items()}

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


def _rearranged(head: mpf, mu, L: int, working: int, target: int, coeffs) -> mpf:
    """head + sum_{j>=2} (-1)^j c_j T_j, T_j = sum_{l>L} w(l) l^-j; the head,
    sum_{l<=L} w(l) h(l), arrives already summed.  The weights w(l) are mu(l)
    from `mu` = mu(0..L) (T_j from `_mobius_tails`) or 1 for mu None (T_j =
    zeta(j, L+1)); `coeffs` yields c_2, c_3, ..., finitely many where the
    expansion is exact.  The tail stops once the next-term bound 2 c_j
    ((L+1)^-j + L^(1-j)/(j-1)) is below 10^-(target+5) max(1, |head|)."""
    with workdps(working):
        acc = head
        tol = mpf(10) ** (-(target + 5)) * max(mpf(1), abs(acc))
        cs = []
        for j, c in enumerate(coeffs, 2):
            if cs and 2 * mpf(c) * ((L + 1) ** mpf(-j) + mpf(L) ** (1 - j) / (j - 1)) < tol:
                break
            cs.append(c)
        top = len(cs) + 1
        if mu is not None:
            tails = _mobius_tails(mu, top, working)
        else:
            tails = [None, None] + [mpcore.hurwitz_int(j, L + 1, working) for j in range(2, top + 1)]
        for j, c in enumerate(cs, 2):
            term = mpf(c) * tails[j]
            acc = acc + term if j % 2 == 0 else acc - term
        return +acc


def _head_fixed(n: int, mu, L: int, bits: int) -> int:
    """sum_{l<=L} w(l) [floor(2^bits (l-1)^n / l^n) - 2^bits + floor(n 2^bits / l)],
    w(l) = mu(l) from `mu` = mu(0..L), or 1 for mu None.  Each bracket is two
    floors under 1 unit of 2^-bits low, so the sum is within 2N units of
    2^bits sum_{l<=L} w(l) [(1 - 1/l)^n - 1 + n/l], N <= L nonzero weights.
    """
    one, acc, prev = 1 << bits, 0, 0  # prev = (l-1)^n
    for ell in range(1, L + 1):
        cur, w = ell**n, 1 if mu is None else mu[ell]
        if w:
            acc += w * ((prev << bits) // cur - one + (n << bits) // ell)
        prev = cur
    return acc


def _rearranged_difference(n: int, budget: PrecisionBudget, mobius: bool) -> mpf:
    """delta_n (weights 1) or d_n (weights mu(l)) with L = max(2n, 32), where
    the tail terms shrink by at least 1/2 per step and end at j = n.  The head
    is `_head_fixed` at P + g bits, 2L < 2^g, so within 1 unit of 2^-P, P =
    `_fixed_bits(working)`, before its one rounding."""
    if n < 2:
        return mpf(0)
    L, working = max(2 * n, 32), budget.working_digits
    mu = mpcore.mobius_upto(L) if mobius else None
    bits = _fixed_bits(working) + (2 * L).bit_length()
    return _rearranged(
        _from_fixed(_head_fixed(n, mu, L, bits), bits, working), mu, L, working,
        budget.target_digits, (math.comb(n, j) for j in range(2, n + 1)),
    )


def _evaluate(kind: str, ns, prec, shift=None, method: str = "binomial") -> list[SequencePoint]:
    """Values of one sequence kind at every n in ns, all at the budget of max(ns).

    The second route of a kind goes index by index; the binomial route is one
    `_kernel` call for the whole list, so each value equals the single call
    at that budget bit for bit.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}")
    if not ns:
        raise DomainError("empty index list")
    minimum, second, label = KINDS[kind]
    for n in ns:
        _check_index(n, minimum)
    methods = ("binomial", second) if second else ("binomial",)
    if method not in methods:
        raise DomainError(f"{kind} method must be one of {methods}, got {method!r}")
    q = _coerce_shift(shift) if kind in ("A", "a") else None
    budget = as_budget(prec, kind, max(ns), k=q.k if q else 1, method=method)
    if method == "binomial":
        values = _kernel(kind, ns, budget.working_digits, q)
    else:
        label = method
        values = {n: _rearranged_difference(n, budget, kind == "d") for n in ns}
    return [SequencePoint(n, values[n], label, budget.target_digits) for n in ns]


def delta(n: int, prec: PrecisionBudget | int = 15, method: str = "binomial") -> SequencePoint:
    """delta_n by the alternating binomial sum or the series rearrangement."""
    return _evaluate("delta", [n], prec, method=method)[0]


def b(n: int, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Newton coefficient b_n of zeta(s) - 1/(s-1); b_0 = 1/2."""
    return _evaluate("b", [n], prec)[0]


def A(n: int, shift, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Hurwitz difference A_n(m,k) = sum C(n,l)(-1)^l zeta(l, m/k)/k^l."""
    return _evaluate("A", [n], prec, shift)[0]


def a(n: int, shift, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """Exponentially small residue-adjusted part a_n(m,k); a_n(1,1) = b_n."""
    return _evaluate("a", [n], prec, shift)[0]


def dirichlet_diff(chi: CharacterTable, n: int, prec: PrecisionBudget | int = 15) -> mpc:
    """sum_m chi(m) A_n(m,k) = sum_{l=2..n} C(n,l)(-1)^l L(chi, l)."""
    if not isinstance(chi, CharacterTable):
        raise DomainError("dirichlet_diff needs a CharacterTable")
    n = _check_index(n)
    budget = as_budget(prec, "A", n, k=chi.k)
    with workdps(budget.working_digits):
        acc = mpc(0)
        for m, coeff in enumerate(chi.values, 1):
            if coeff != 0:
                acc += mpc(coeff) * A(n, (m, chi.k), budget).value
        return +acc


def _mobius_tails(mu: list[int], top: int, working: int) -> list:
    """[T_j] for j <= top, T_j = sum_{l>L} mu(l) l^-j = 1/zeta(j) - sum_{l<=L} mu(l) l^-j,
    where mu = mu(0..L).

    T_j ~ (L+1)^-j is a difference of O(1) numbers, so both are formed at the
    kernel bits of the largest lift, working + top log10(L+1) + 10 digits: the
    partial sums in one pass of floor(floor(2^P/l^(j-1))/l) = floor(2^P/l^j)
    (within L units), 1/zeta(j) at the lifted digits from `mpcore._zeta_rounded`.
    """
    L = len(mu) - 1
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
            _from_fixed(_to_fixed(1 / z, bits) - part[j], bits, working)
            for j, z in enumerate(mpcore._zeta_rounded(top, lifted)[2:], 2)
        ]


def d(n: int, prec: PrecisionBudget | int = 15, method: str = "binomial") -> SequencePoint:
    """Differences of inverse zeta values d_n (tends to 2)."""
    return _evaluate("d", [n], prec, method=method)[0]


def c(n: int, prec: PrecisionBudget | int = 15) -> SequencePoint:
    """c_n = -sum_{k=1..n} C(n,k)(-1)^k zeta(k+1)/(k+1) (~ H_n + gamma - 1)."""
    return _evaluate("c", [n], prec)[0]


def D_of(x, prec: PrecisionBudget | int = 15) -> mpf:
    """Mobius-smoothed comparison function D(x) = sum mu(l)[e^(-x/l) - 1 + x/l]."""
    budget = as_budget(prec, "D", 0)
    with workdps(budget.working_digits):
        xv = mpf(x)
        if not mpmath.isfinite(xv) or xv <= 0:
            raise DomainError(f"D(x) needs finite x > 0, got {x!r}")
        L = max(32, int(math.ceil(2 * float(xv))))
        mu = mpcore.mobius_upto(L)
        head = sum(mu[ell] * (mpmath.exp(-xv / ell) - 1 + xv / ell) for ell in range(1, L + 1) if mu[ell])

    def powers():  # x^j / j!
        j, xpow, fact = 2, xv * xv, mpf(2)
        while True:
            yield xpow / fact
            j += 1
            xpow *= xv
            fact *= j

    return _rearranged(head, mu, L, budget.working_digits, budget.target_digits, powers())


def sequence_many(
    kind: str, ns: list[int], target_digits: int = 15, shift=None, method: str | None = None
) -> list[SequencePoint]:
    """Evaluate one sequence kind over many indices at one working precision.

    The working precision is sized for the largest index, so every value
    equals the single call at that budget bit for bit.  Binomial routes read
    each input once, as a single call does (zeta values from
    `mpcore._zeta_rounded`, Hurwitz values from `mpcore._hurwitz_fixed`), and
    run the exact kernel once for the whole batch, in the calling thread: it
    is integer arithmetic that threads cannot share under the interpreter
    lock.  The rearranged routes (delta 'series', d 'moebius') go index by
    index.  The shift of A and a defaults to (1, 1) and the method to
    'binomial'.
    """
    return _evaluate(
        kind, ns, target_digits, (1, 1) if shift is None else shift,
        "binomial" if method is None else method,
    )
