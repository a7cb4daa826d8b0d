"""Precision budgets and decimal text formatting.

Every operation in this package runs at an explicit decimal working precision
chosen from three ingredients: the digits the caller wants (*target*), the
digits the algorithm destroys, and a fixed guard.  The destroyed digits come
in two flavors:

* binomial cancellation: an alternating sum with C(n, k) weights loses about
  n*log10(2) leading digits, independent of how small the answer is;
* smallness: sequences that decay like e^(-2*sqrt(pi*n)) need the budget to
  carry the decayed scale explicitly when the route first computes O(1)
  quantities (harmonic numbers, digamma values) whose difference is the tiny
  answer.

Budgets are ordinary data (`PrecisionBudget`); operations refuse budgets that
cannot deliver the requested target by raising `InsufficientPrecisionError`
with the minimum acceptable working precision attached.  `digits` reads any
precision argument (a budget, a plain int or None) as a (target, working)
pair.

Formatting is decimal-exact: an mpf is a dyadic rational, which converts to a
`decimal.Decimal` without error, and rounding to N significant digits is then
a single correctly-rounded (half-even) decimal operation.  This is what makes
the CSV round-trip contract bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext

import mpmath
from mpmath import mpf

from .errors import DomainError, InsufficientPrecisionError

LOG10_2 = math.log10(2.0)
LN10 = math.log(10.0)

DEFAULT_GUARD_DIGITS = 20

# sequence kinds whose binomial route alternates with C(n,k) weights
_CANCELLING_KINDS = frozenset({"delta", "b", "A", "a", "d", "c"})


@dataclass(frozen=True)
class PrecisionBudget:
    """Decimal precision plan: target digits requested, working digits used.

    Invariant: working_digits >= target_digits + guard_digits.
    """

    target_digits: int
    working_digits: int
    guard_digits: int = DEFAULT_GUARD_DIGITS

    def __post_init__(self):
        if self.target_digits < 1:
            raise DomainError(f"target_digits must be >= 1, got {self.target_digits}")
        if self.guard_digits < 0:
            raise DomainError(f"guard_digits must be >= 0, got {self.guard_digits}")
        if self.working_digits < self.target_digits + self.guard_digits:
            raise DomainError(
                f"working_digits={self.working_digits} below "
                f"target+guard={self.target_digits + self.guard_digits}"
            )

    def require(self, working_digits: int, what: str = "operation") -> None:
        """Refuse the budget unless it carries at least `working_digits`."""
        if self.working_digits < working_digits:
            raise InsufficientPrecisionError(
                f"{what} needs >= {working_digits} working digits, "
                f"budget has {self.working_digits}",
                required_digits=working_digits,
            )


def digits(prec, extra: int = 0) -> tuple[int, int]:
    """(target, working) digits of a precision argument.

    A PrecisionBudget gives its own pair, an int d >= 1 gives (d, d + extra)
    and None gives the ambient mp.dps for both; each caller picks the
    `extra` its own plain-int convention needs.
    """
    if prec is None:
        return mpmath.mp.dps, mpmath.mp.dps
    if isinstance(prec, PrecisionBudget):
        return prec.target_digits, prec.working_digits
    d = int(prec)
    if d < 1:
        raise DomainError(f"precision must be >= 1 digit, got {prec!r}")
    return d, d + extra


def cancellation_digits(n: int) -> int:
    """Digits lost to alternating C(n,k) weights: ceil(n*log10(2))."""
    return int(math.ceil(n * LOG10_2)) if n > 0 else 0


def smallness_exponent(kind: str, n: int, k: int = 1) -> float:
    """E(n) with |value| ~ e^(-E(n)); 0 for sequences with O(1) scale.

    b, c and a decay like this, and their direct routes assemble them from
    O(1) pieces, so the decayed scale costs working digits.
    """
    if kind in ("b", "c"):
        return 2.0 * math.sqrt(math.pi * n)
    if kind == "a":
        return 2.0 * math.sqrt(math.pi * n / k)
    return 0.0


def smallness_digits(kind: str, n: int, k: int = 1) -> int:
    return int(math.ceil(smallness_exponent(kind, n, k) / LN10))


def required_working_digits(
    kind: str,
    n: int,
    target_digits: int,
    k: int = 1,
    method: str | None = None,
    guard_digits: int = DEFAULT_GUARD_DIGITS,
) -> int:
    """Minimum working precision for computing sequence `kind` at index n.

    `method` matters where a non-cancelling route exists: 'series' for delta
    and 'moebius' for d skip the binomial-cancellation surcharge.
    """
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    cancel = 0
    if kind in _CANCELLING_KINDS and method not in ("series", "moebius"):
        cancel = cancellation_digits(n)
    return cancel + smallness_digits(kind, n, k) + target_digits + guard_digits


def as_budget(
    prec: "PrecisionBudget | int",
    kind: str,
    n: int,
    k: int = 1,
    method: str | None = None,
) -> PrecisionBudget:
    """Normalize a precision argument for a sequence operation.

    An int is a target-digit request and gets the full budget built here; an
    explicit PrecisionBudget is honored but refused (with the requirement in
    the error) if it cannot reach its own target for this kind and index.
    """
    if isinstance(prec, PrecisionBudget):
        need = required_working_digits(
            kind, n, prec.target_digits, k, method, prec.guard_digits
        )
        prec.require(need, what=f"{kind}(n={n})")
        return prec
    target = int(prec)
    return PrecisionBudget(target, required_working_digits(kind, n, target, k, method))


def _mpf_to_decimal_exact(x: mpf) -> Decimal:
    """Exact dyadic-to-decimal conversion: man*2^exp with no rounding."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        return Decimal(0)
    if sign:
        man = -man
    if exp >= 0:
        return Decimal(man << exp)
    # man * 2^exp = (man * 5^(-exp)) * 10^exp, exactly
    return Decimal(f"{man * 5 ** (-exp)}E{exp}")


def format_decimal(x, digits: int) -> str:
    """Scientific-notation string `±d.ddd…e±dd`, half-even at `digits` digits.

    The sign is always explicit and the exponent has at least two digits, so
    emitted strings compare bytewise when the underlying values round alike.
    """
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    if not isinstance(x, mpf):
        # mpf(mpf) would re-round to the ambient context and destroy any
        # wider mantissa the caller computed; convert only foreign types
        x = mpf(x)
    if mpmath.isnan(x) or mpmath.isinf(x):
        raise DomainError(f"cannot format non-finite value {x}")
    d = _mpf_to_decimal_exact(x)
    if d == 0:
        frac = "0" * (digits - 1)
        mant = "+0" + (("." + frac) if frac else "")
        return mant + "e+00"
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        q = +d
    body = f"{q:.{digits - 1}E}"  # e.g. '-1.2346E-5'
    mant, _, expo = body.partition("E")
    if not mant.startswith("-"):
        mant = "+" + mant
    e = int(expo)
    return f"{mant}e{'+' if e >= 0 else '-'}{abs(e):02d}"


def parse_decimal(s: str, working_digits: int | None = None) -> mpf:
    """Parse a decimal string to an mpf at (default) generous precision."""
    s = s.strip()
    if working_digits is None:
        digits = sum(c.isdigit() for c in s.split("e")[0].split("E")[0])
        working_digits = max(digits + 15, mpmath.mp.dps)
    with mpmath.workdps(working_digits):
        return mpf(s)
