"""Command-line interface: sequences, experiments, oracles, verification.

Subcommands cover the difference sequences (``seq``), their asymptotic main
terms (``asym``), the sign-change census with its quadratic fit (``signs``),
the scaled exact-vs-asymptotic comparison table (``figure2``), the harmonic
near-identity display (``identity``), the illustrative zero-oscillation
model for 1/zeta differences (``zero-model``), the contour-integral oracles
(``contour``), Newton-series evaluation (``newton``), generating-function
checks (``gf-check``), and the cross-module verification suites
(``verify``).

Tables are emitted as CSV (header ``n,value,method,digits``) or JSON; every
numeric cell is a decimal string formatted by exact dyadic-to-decimal
rounding, so output round-trips bytewise and is independent of --threads.
Exit status: 0 success, 1 verification/computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workdps

from . import asymptotics, contour, differences, mpcore, series
from .contour import ContourSpec
from .errors import (
    DomainError,
    FitError,
    InsufficientPrecisionError,
    TruncationBoundError,
)
from .precision import format_decimal

_SEQ_KINDS = ("b", "delta", "A", "a", "d", "c")
_SEQ_METHODS = {"delta": ("binomial", "series"), "d": ("binomial", "moebius")}
_CONTOUR_KINDS = {"right": "zeta-right", "left": "zeta-left", "inv": "inv-zeta"}
# display digits may go lower, computation never does
_COMPUTE_FLOOR = 10


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: what to compute and how to emit it."""

    command: str
    ns: tuple[int, ...] = ()
    m: int = 1
    k: int = 1
    digits: int = 15
    method: str | None = None
    fmt: str = "csv"
    out: str | None = None
    threads: int = 1
    quad_T: float | None = None
    quad_panels: int | None = None

    def __post_init__(self):
        if self.digits < 1:
            raise DomainError(f"--digits must be >= 1, got {self.digits}")
        if self.threads < 1:
            raise DomainError(f"--threads must be >= 1, got {self.threads}")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"--format must be csv or json, got {self.fmt!r}")
        if not self.ns:
            raise DomainError("empty index list")

    @property
    def compute_digits(self) -> int:
        return max(self.digits, _COMPUTE_FLOOR)


@dataclass(frozen=True)
class ZeroModelInput:
    """Nontrivial-zero data for the illustrative 1/zeta oscillation model."""

    zeros: tuple  # of (rho: mpc, coeff_magnitude: mpf)

    def __post_init__(self):
        if not self.zeros:
            raise DomainError("zero model needs at least one zero")
        for rho, coeff in self.zeros:
            rho = mpc(rho)
            if not (0 < rho.real < 1):
                raise DomainError(f"Re(rho) must lie in (0,1), got {rho}")
            if not mpf(coeff) > 0:
                raise DomainError(f"coefficient magnitude must be positive, got {coeff}")


DEFAULT_ZEROS = ZeroModelInput(
    ((mpc("0.5", "14.13"), mpf("1e-9")), (mpc("0.5", "21.022"), mpf("1e-14")))
)


def _parse_ns(text: str) -> tuple[int, ...]:
    """Index list syntax: a single int, a comma list, or a range A..B."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        elif "," in text:
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise DomainError(f"empty index list {text!r}")
            return tuple(int(p) for p in parts)
        else:
            return (int(text),)
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"cannot parse index list {text!r}") from exc
    if hi < lo:
        raise DomainError(f"empty range {text!r}")
    return tuple(range(lo, hi + 1))


def _parse_complex(text: str):
    s = mpmath.mpmathify(text.strip().replace("i", "j"))
    return s


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(rows, columns, fmt: str, comments=()) -> str:
    """CSV with optional leading # comments, or the JSON mirror."""
    if fmt == "json":
        payload = {"comments": list(comments), "rows": rows} if comments else rows
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_report(lines, fmt: str, fields=None) -> str:
    if fmt == "json":
        return json.dumps(fields if fields is not None else {"lines": lines}, indent=2) + "\n"
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_sequence(config: RunConfig, kind: str) -> list[dict]:
    """Sequence values over the requested indices as emit-ready rows."""
    if kind not in _SEQ_KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}")
    if config.method is not None:
        allowed = _SEQ_METHODS.get(kind, ())
        if config.method not in allowed:
            raise DomainError(
                f"--method {config.method!r} is not valid for seq {kind}"
                + (f" (choose from {allowed})" if allowed else " (it takes none)")
            )
    shift = (config.m, config.k) if kind in ("A", "a") else None
    points = differences.sequence_many(
        kind,
        list(config.ns),
        target_digits=config.compute_digits,
        shift=shift,
        method=config.method,
        threads=config.threads,
    )
    return [
        {
            "n": p.n,
            "value": format_decimal(p.value, config.digits),
            "method": p.method,
            "digits": config.digits,
        }
        for p in points
    ]


def cmd_asym(config: RunConfig, kind: str) -> list[dict]:
    """Asymptotic main terms as emit-ready rows."""
    rows = []
    for n in config.ns:
        if kind == "b":
            value = asymptotics.b_asym(n, config.compute_digits).main
            method = "main-term"
        elif kind == "a":
            value = asymptotics.a_asym(n, (config.m, config.k), config.compute_digits).main
            method = "main-term(derived)"
        elif kind == "an12":
            value = asymptotics.an12_main(n, config.compute_digits)
            method = "A-main(1,2)"
        else:
            raise DomainError(f"unknown asym kind {kind!r}")
        rows.append(
            {
                "n": n,
                "value": format_decimal(value, config.digits),
                "method": method,
                "digits": config.digits,
            }
        )
    return rows


def cmd_signs(config: RunConfig):
    """Sign-change census for b_n plus the quadratic fit of change ranks."""
    n_max = config.ns[-1]
    if n_max < 10:
        raise DomainError(f"signs needs n_max >= 10, got {n_max}")
    digits = max(12, config.compute_digits)
    quarter_pi = mpmath.pi / 4
    try:
        fit = asymptotics.beta_fit(range(1, n_max + 1), target_digits=digits)
    except FitError as exc:
        # short ranges have too few changes for the 3-parameter fit;
        # the census itself is still well defined
        indices = asymptotics.sign_change_indices(n_max, target_digits=digits)
        changes = ",".join(str(i) for i in indices)
        lines = [
            f"sign changes (n <= {n_max}): {changes}",
            f"count: {len(indices)}",
            f"quadratic fit: unavailable ({exc})",
        ]
        fields = {"n_max": n_max, "sign_changes": list(indices), "alpha": None}
        return lines, fields
    changes = ",".join(str(i) for i in fit.sign_changes)
    lines = [
        f"sign changes (n <= {n_max}): {changes}",
        f"count: {len(fit.sign_changes)}",
        f"quadratic coefficient alpha: {format_decimal(fit.alpha, 6)}",
        f"pi/4: {format_decimal(quarter_pi, 6)}",
        f"alpha / (pi/4): {format_decimal(fit.alpha_over_quarter_pi, 6)}",
    ]
    fields = {
        "n_max": n_max,
        "sign_changes": list(fit.sign_changes),
        "alpha": format_decimal(fit.alpha, 12),
        "quarter_pi": format_decimal(quarter_pi, 12),
        "alpha_over_quarter_pi": format_decimal(fit.alpha_over_quarter_pi, 12),
    }
    return lines, fields


def cmd_figure2(config: RunConfig) -> list[dict]:
    """Exact and asymptotic b_n, both scaled by e^(2 sqrt(pi n)) n^(-1/4)."""
    points = differences.sequence_many(
        "b", list(config.ns), target_digits=config.compute_digits, threads=config.threads
    )
    rows = []
    with workdps(config.compute_digits + 10):
        for p in points:
            nn = mpf(p.n)
            root = 2 * mpmath.sqrt(mpmath.pi * nn)
            scale = mpmath.exp(root) * nn ** mpf("-0.25")
            exact = p.value * scale
            asym = (2 / mpmath.pi) ** mpf("0.25") * mpmath.cos(root - 5 * mpmath.pi / 8)
            rows.append(
                {
                    "n": p.n,
                    "scaled_exact": format_decimal(exact, config.digits),
                    "scaled_asym": format_decimal(asym, config.digits),
                }
            )
    return rows


def cmd_identity(config: RunConfig):
    """Display c_n - H_n + 1 against gamma with the exact 1/(2(n+1)) offset."""
    n = config.ns[-1]
    if n < 2:
        raise DomainError(f"identity needs n >= 2, got {n}")
    digits = config.digits
    point = differences.c(n, digits + 10)
    with workdps(digits + 15):
        lhs = point.value - mpcore.harmonic_mpf(n, digits + 15) + 1
        gamma = mpcore.euler_gamma(digits + 15)
        offset = mpf(1) / (2 * (n + 1))
        diff = lhs - gamma
        eps = diff - offset
        lhs_str = mpmath.nstr(lhs, digits, strip_zeros=False)
        gamma_str = mpmath.nstr(gamma, digits, strip_zeros=False)
    lines = [
        f"n = {n}",
        f"c_n - H_n + 1 = {lhs_str}",
        f"gamma         = {gamma_str}",
        f"difference    = {format_decimal(diff, 12)}",
        f"offset 1/(2(n+1)) = {format_decimal(offset, 12)}",
        f"difference - offset = {format_decimal(eps, 6)}",
    ]
    fields = {
        "n": n,
        "lhs": lhs_str,
        "gamma": gamma_str,
        "difference": format_decimal(diff, 12),
        "offset": format_decimal(offset, 12),
        "epsilon": format_decimal(eps, 6),
    }
    return lines, fields


def cmd_zero_model(config: RunConfig, zeros: ZeroModelInput = DEFAULT_ZEROS):
    """Per-zero oscillation terms coeff * n^Re(rho) * cos(Im(rho) ln n).

    This is an illustrative model, not a computation of the grouped
    zero-sum expansion; only the coefficient magnitudes quoted for the
    first two zeros ship as defaults.
    """
    comments = [
        "illustrative model, not a computation of the grouped zero sum",
        "term(n) = coeff * n^Re(rho) * cos(Im(rho) * ln n)",
    ]
    with workdps(config.compute_digits + 10):
        for i, (rho, coeff) in enumerate(zeros.zeros, start=1):
            rho = mpc(rho)
            n_unit = (1 / mpf(coeff)) ** (1 / rho.real)
            comments.append(
                f"zero {i}: rho = {mpmath.nstr(rho, 8)}, coeff = {mpmath.nstr(mpf(coeff), 3)}, "
                f"amplitude reaches 1 near n = {format_decimal(n_unit, 3)}"
            )
        rows = []
        for n in config.ns:
            if n < 2:
                raise DomainError(f"zero-model needs n >= 2, got {n}")
            nn = mpf(n)
            for i, (rho, coeff) in enumerate(zeros.zeros, start=1):
                rho = mpc(rho)
                envelope = mpf(coeff) * nn ** rho.real
                term = envelope * mpmath.cos(rho.imag * mpmath.log(nn))
                rows.append(
                    {
                        "n": n,
                        "zero": i,
                        "term": format_decimal(term, config.digits),
                        "envelope": format_decimal(envelope, config.digits),
                    }
                )
    return rows, comments


def cmd_contour(config: RunConfig, token: str):
    """One contour-oracle evaluation as report lines."""
    spec = None
    if token == "saddle":
        if config.quad_T is not None or config.quad_panels is not None:
            spec = ContourSpec(kind="fig1-saddle", T=config.quad_T, panels=config.quad_panels)
        results = [
            (n, contour.saddle_contour_integral(n, config.compute_digits, spec))
            for n in config.ns
        ]
    elif token in _CONTOUR_KINDS:
        if config.quad_T is not None or config.quad_panels is not None:
            spec = ContourSpec(kind="vertical", T=config.quad_T, panels=config.quad_panels)
        results = [
            (n, contour.rice_integral(_CONTOUR_KINDS[token], n, config.compute_digits, spec))
            for n in config.ns
        ]
    else:
        raise DomainError(f"unknown contour kind {token!r}")
    lines = []
    fields = []
    for n, res in results:
        lines.append(
            f"{token} n={n}: value = {format_decimal(res.value, config.digits)}  "
            f"error_estimate = {format_decimal(res.error_estimate, 3)}  "
            f"T = {mpmath.nstr(res.truncation_height, 6)}"
        )
        fields.append(
            {
                "kind": token,
                "n": n,
                "value": format_decimal(res.value, config.digits),
                "error_estimate": format_decimal(res.error_estimate, 3),
                "truncation_height": mpmath.nstr(res.truncation_height, 8),
                "truncation_bound": format_decimal(res.truncation_bound, 3),
                # saddle pieces are complex path integrals; nstr handles both
                "pieces": {p.name: mpmath.nstr(p.value, 12) for p in res.pieces},
            }
        )
    return lines, fields


def cmd_newton(config: RunConfig, s_text: str):
    """Evaluate the Newton partial sum at s with its tail certificate."""
    s = _parse_complex(s_text)
    N = config.ns[-1]
    value, tail = series.newton_eval(s, N, config.compute_digits)
    # keep the full-precision mantissa; mpc() would re-round at ambient dps
    re = value.real if isinstance(value, mpc) else value
    im = value.imag if isinstance(value, mpc) else mpf(0)
    lines = [
        f"s = {s_text.strip()}",
        f"N = {N}",
        f"value_re = {format_decimal(re, config.digits)}",
        f"value_im = {format_decimal(im, config.digits)}",
        f"tail_bound = {format_decimal(tail, 3)}",
    ]
    fields = {
        "s": s_text.strip(),
        "N": N,
        "value_re": format_decimal(re, config.digits),
        "value_im": format_decimal(im, config.digits),
        "tail_bound": format_decimal(tail, 3),
    }
    return lines, fields


def cmd_gf_check(config: RunConfig, order: int):
    """Compare both generating-function expansions against delta_n."""
    digits = config.compute_digits
    og = series.ogf_coeffs(order, digits)
    eg = series.egf_coeffs(order, digits)
    points = differences.sequence_many(
        "delta", list(range(2, order + 1)), target_digits=digits + 10
    )
    with workdps(digits + 20):
        worst_og = mpf(0)
        worst_eg = mpf(0)
        for p in points:
            worst_og = max(worst_og, abs(og.coeff(p.n) - p.value))
            worst_eg = max(worst_eg, abs(eg.coeff(p.n) * mpmath.factorial(p.n) - p.value))
        threshold = mpf(10) ** (-digits)
        ok = worst_og <= threshold and worst_eg <= threshold
    lines = [
        f"ogf max |coeff - delta| through order {order}: {format_decimal(worst_og, 3)}",
        f"egf max |n! coeff - delta| through order {order}: {format_decimal(worst_eg, 3)}",
        f"threshold 1e-{digits}: {'PASS' if ok else 'FAIL'}",
    ]
    fields = {
        "order": order,
        "ogf_worst": format_decimal(worst_og, 3),
        "egf_worst": format_decimal(worst_eg, 3),
        "digits": digits,
        "pass": ok,
    }
    return lines, fields, (0 if ok else 1)


# ---------------------------------------------------------------------------
# verification suites


def _rel_diff(x, y) -> mpf:
    return abs(x - y) / max(abs(y), mpf("1e-300"))


def _chk_delta_methods():
    ns = list(range(2, 41))
    pb = differences.sequence_many("delta", ns, 12, method="binomial")
    ps = differences.sequence_many("delta", ns, 12, method="series")
    with workdps(30):
        worst = max(_rel_diff(x.value, y.value) for x, y in zip(pb, ps))
    return worst <= mpf("1e-10"), f"worst rel diff {mpmath.nstr(worst, 3)} (n <= 40)"


def _chk_d_methods():
    ns = list(range(2, 41))
    pb = differences.sequence_many("d", ns, 12, method="binomial")
    pm = differences.sequence_many("d", ns, 12, method="moebius")
    with workdps(30):
        worst = max(_rel_diff(x.value, y.value) for x, y in zip(pb, pm))
    return worst <= mpf("1e-10"), f"worst rel diff {mpmath.nstr(worst, 3)} (n <= 40)"


def _chk_b_envelope():
    points = differences.sequence_many("b", list(range(2, 201)), 15)
    with workdps(40):
        worst = mpf(0)
        for p in points:
            ratio = abs(p.value) / asymptotics.envelope_bound(p.n, 40)
            worst = max(worst, ratio)
    return worst <= 1, f"max |b_n|/envelope = {mpmath.nstr(worst, 4)} (n <= 200)"


def _chk_b_main():
    worst = mpf(0)
    with workdps(40):
        for n in (100, 150, 200):
            exact = differences.b(n, 25).value
            main = asymptotics.b_asym(n, 30).main
            unit = mpmath.exp(-2 * mpmath.sqrt(mpmath.pi * n)) * mpf(n) ** mpf("-0.25")
            worst = max(worst, abs(exact - main) / unit)
    return worst <= 5, f"max scaled residual {mpmath.nstr(worst, 4)} at n in 100..200"


def _chk_gf():
    og = series.ogf_coeffs(12, 30)
    eg = series.egf_coeffs(12, 30)
    points = differences.sequence_many("delta", list(range(2, 13)), 40)
    with workdps(50):
        worst = mpf(0)
        for p in points:
            worst = max(worst, abs(og.coeff(p.n) - p.value))
            worst = max(worst, abs(eg.coeff(p.n) * mpmath.factorial(p.n) - p.value))
    return worst <= mpf("1e-30"), f"worst coefficient diff {mpmath.nstr(worst, 3)} through order 12"


def _chk_contour_right():
    worst = mpf(0)
    for n in (5, 10, 20, 50):
        res = contour.rice_integral("zeta-right", n, 12)
        exact = differences.delta(n, 16).value
        with workdps(30):
            worst = max(worst, _rel_diff(res.value, exact))
    return worst <= mpf("1e-10"), f"worst rel diff vs delta_n {mpmath.nstr(worst, 3)}"


def _chk_contour_left():
    worst = mpf(0)
    for n in (10, 20):
        res = contour.rice_integral("zeta-left", n, 10)
        exact = differences.b(n, 16).value
        with workdps(30):
            worst = max(worst, _rel_diff(res.value, exact))
    return worst <= mpf("1e-10"), f"worst rel diff vs b_n {mpmath.nstr(worst, 3)}"


def _chk_contour_inv():
    worst = mpf(0)
    for n in (5, 10):
        res = contour.rice_integral("inv-zeta", n, 12)
        exact = differences.d(n, 16).value
        with workdps(30):
            worst = max(worst, _rel_diff(res.value, exact))
    return worst <= mpf("1e-10"), f"worst rel diff vs d_n {mpmath.nstr(worst, 3)}"


def _chk_saddle():
    worst = mpf(0)
    for n in (10, 50):
        res = contour.saddle_contour_integral(n, 8)
        exact = differences.b(n, 16).value
        with workdps(30):
            worst = max(worst, _rel_diff(res.value, exact))
    return worst <= mpf("1e-8"), f"worst rel diff vs b_n {mpmath.nstr(worst, 3)}"


def _chk_newton():
    with workdps(40):
        v1, _ = series.newton_eval(-1, 500, 20)
        d1 = abs(v1 - mpf(5) / 12)
        v2, _ = series.newton_eval(mpf("0.5"), 500, 20)
        d2 = abs(v2 - (mpcore.zeta_cx(mpf("0.5"), 40).real + 2))
        v3, _ = series.newton_eval(3, 10, 20)
        d3 = abs(v3 - (mpcore.zeta_int(3, 40) - mpf("0.5")))
        worst = max(d1, d2, d3)
    return worst <= mpf("1e-20"), f"worst closed-form diff {mpmath.nstr(worst, 3)}"


_FAST_CHECKS = (
    ("delta-dual-method", _chk_delta_methods),
    ("d-dual-method", _chk_d_methods),
    ("b-envelope", _chk_b_envelope),
    ("b-main-residual", _chk_b_main),
    ("gf-order-12", _chk_gf),
)

_FULL_CHECKS = _FAST_CHECKS + (
    ("contour-right-delta", _chk_contour_right),
    ("contour-left-b", _chk_contour_left),
    ("contour-inv-d", _chk_contour_inv),
    ("contour-saddle-b", _chk_saddle),
    ("newton-closed-forms", _chk_newton),
)


def cmd_verify(suite: str):
    """Run a named invariant suite; one PASS/FAIL line per check."""
    checks = {"fast": _FAST_CHECKS, "full": _FULL_CHECKS}.get(suite)
    if checks is None:
        raise DomainError(f"verify suite must be fast or full, got {suite!r}")
    lines = []
    failed = 0
    for name, fn in checks:
        ok, detail = fn()
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return lines, (1 if failed else 0)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetadiff",
        description="Finite differences of zeta values: sequences, asymptotics, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, digits=15, n_default=None, n_required=False):
        if n_default is not None or n_required:
            sp.add_argument("--n", default=n_default, required=n_required,
                            help="index: int, comma list, or range A..B")
        sp.add_argument("--digits", type=int, default=digits, help="display digits")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="write output to this path")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; the output never depends on it")

    sp = sub.add_parser("seq", help="difference-sequence values")
    sp.add_argument("kind", choices=_SEQ_KINDS)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--method", default=None)
    common(sp, n_required=True)

    sp = sub.add_parser("asym", help="asymptotic main terms")
    sp.add_argument("kind", choices=("b", "a", "an12"))
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    common(sp, n_required=True)

    sp = sub.add_parser("signs", help="sign-change census and quadratic fit")
    common(sp, digits=12, n_default="200")

    sp = sub.add_parser("figure2", help="scaled exact vs asymptotic table")
    sp.add_argument("--range", dest="n_range", default="5..500", help="range A..B")
    common(sp)

    sp = sub.add_parser("identity", help="harmonic near-identity display")
    common(sp, digits=40, n_default="499")

    sp = sub.add_parser("zero-model", help="illustrative zero-oscillation model")
    common(sp, n_default="10,100,1000,10000")

    sp = sub.add_parser("contour", help="contour-integral oracles")
    sp.add_argument("kind", choices=("right", "left", "inv", "saddle"))
    sp.add_argument("--quad-T", dest="quad_T", type=float, default=None)
    sp.add_argument("--quad-panels", dest="quad_panels", type=int, default=None)
    common(sp, digits=10, n_required=True)

    sp = sub.add_parser("newton", help="Newton-series evaluation with certificate")
    sp.add_argument("--s", required=True, help="complex evaluation point")
    common(sp, digits=20, n_default="500")

    sp = sub.add_parser("gf-check", help="generating-function cross-check")
    sp.add_argument("--order", type=int, default=12)
    common(sp, digits=30, n_default="12")

    sp = sub.add_parser("verify", help="invariant suites")
    sp.add_argument("suite", choices=("fast", "full"))
    return parser


def _config_from(args) -> RunConfig:
    if getattr(args, "n_range", None) is not None:
        ns = _parse_ns(args.n_range)
    elif getattr(args, "n", None) is not None:
        ns = _parse_ns(args.n)
    else:
        ns = ()
    return RunConfig(
        command=args.command,
        ns=ns,
        m=getattr(args, "m", 1),
        k=getattr(args, "k", 1),
        digits=getattr(args, "digits", 15),
        method=getattr(args, "method", None),
        fmt=getattr(args, "fmt", "csv"),
        out=getattr(args, "out", None),
        threads=getattr(args, "threads", 1),
        quad_T=getattr(args, "quad_T", None),
        quad_panels=getattr(args, "quad_panels", None),
    )


def _dispatch(args) -> int:
    if args.command == "verify":
        lines, code = cmd_verify(args.suite)
        sys.stdout.write("\n".join(lines) + "\n")
        return code

    config = _config_from(args)
    if args.command == "seq":
        rows = cmd_sequence(config, args.kind)
        _emit(_render_table(rows, ("n", "value", "method", "digits"), config.fmt), config.out)
    elif args.command == "asym":
        rows = cmd_asym(config, args.kind)
        _emit(_render_table(rows, ("n", "value", "method", "digits"), config.fmt), config.out)
    elif args.command == "signs":
        lines, fields = cmd_signs(config)
        _emit(_render_report(lines, config.fmt, fields), config.out)
    elif args.command == "figure2":
        rows = cmd_figure2(config)
        _emit(_render_table(rows, ("n", "scaled_exact", "scaled_asym"), config.fmt), config.out)
    elif args.command == "identity":
        lines, fields = cmd_identity(config)
        _emit(_render_report(lines, config.fmt, fields), config.out)
    elif args.command == "zero-model":
        rows, comments = cmd_zero_model(config)
        _emit(
            _render_table(rows, ("n", "zero", "term", "envelope"), config.fmt, comments),
            config.out,
        )
    elif args.command == "contour":
        lines, fields = cmd_contour(config, args.kind)
        _emit(_render_report(lines, config.fmt, fields), config.out)
    elif args.command == "newton":
        lines, fields = cmd_newton(config, args.s)
        _emit(_render_report(lines, config.fmt, fields), config.out)
    elif args.command == "gf-check":
        lines, fields, code = cmd_gf_check(config, args.order)
        _emit(_render_report(lines, config.fmt, fields), config.out)
        return code
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown command {args.command!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TruncationBoundError, InsufficientPrecisionError, FitError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
