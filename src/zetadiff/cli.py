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
import functools
import json
import os
import sys

import mpmath
from mpmath import mpc, mpf, workdps

from . import asymptotics, contour, differences, mpcore, series
from .errors import (
    DomainError,
    FitError,
    InsufficientPrecisionError,
    TruncationBoundError,
)
from .precision import format_decimal

_CONTOUR_KINDS = {"right": "zeta-right", "left": "zeta-left", "inv": "inv-zeta"}
# display digits may go lower, computation never does
_COMPUTE_FLOOR = 10


def _compute_digits(args) -> int:
    return max(args.digits, _COMPUTE_FLOOR)


# (rho, coefficient magnitude) of the first two nontrivial zeros in the
# illustrative 1/zeta oscillation model
_MODEL_ZEROS = ((mpc("0.5", "14.13"), mpf("1e-9")), (mpc("0.5", "21.022"), mpf("1e-14")))


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
    """A finite real or complex number; 'i' and 'j' both mark the imaginary unit."""
    try:
        s = mpmath.mpmathify(text.strip().replace("i", "j"))
    except (TypeError, ValueError, AttributeError) as exc:  # mpmath's parse failures
        raise DomainError(f"cannot parse complex number {text!r}") from exc
    if not mpmath.isfinite(s):
        raise DomainError(f"evaluation point must be finite, got {text!r}")
    return s


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before anything is computed."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise DomainError(f"cannot write --out {path}: {problem}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(body, extra, columns, fmt: str) -> str:
    """A CSV table (rows under `columns`, `extra` its leading # comments) or,
    with columns None, a report (lines, `extra` its JSON fields); or JSON."""
    if columns is None:
        return json.dumps(extra, indent=2) + "\n" if fmt == "json" else "\n".join(body) + "\n"
    if fmt == "json":
        payload = {"comments": list(extra), "rows": body} if extra else body
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {c}" for c in extra]
    lines.append(",".join(columns))
    for row in body:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _seq_rows(args, points) -> list[dict]:
    """Emit-ready rows of (n, value, method) triples at the display digits."""
    return [
        {"n": n, "value": format_decimal(value, args.digits), "method": method,
         "digits": args.digits}
        for n, value, method in points
    ]


def cmd_sequence(args) -> list[dict]:
    """Sequence values over the requested indices as emit-ready rows."""
    points = differences.sequence_many(
        args.kind, list(args.ns), _compute_digits(args), (args.m, args.k), args.method
    )
    return _seq_rows(args, ((p.n, p.value, p.method) for p in points))


def cmd_asym(args) -> list[dict]:
    """Asymptotic main terms as emit-ready rows."""
    digits = _compute_digits(args)
    main, method = {
        "b": (lambda n: asymptotics.b_asym(n, digits).main, "main-term"),
        "a": (lambda n: asymptotics.a_asym(n, (args.m, args.k), digits).main,
              "main-term(derived)"),
        "an12": (lambda n: asymptotics.an12_main(n, digits), "A-main(1,2)"),
    }[args.kind]
    return _seq_rows(args, ((n, main(n), method) for n in args.ns))


def cmd_signs(args):
    """Sign-change census for b_n plus the quadratic fit of change ranks."""
    n_max = args.ns[-1]
    if n_max < 10:
        raise DomainError(f"signs needs n_max >= 10, got {n_max}")
    digits = max(12, _compute_digits(args))
    quarter_pi = mpmath.pi / 4
    try:
        fit = asymptotics.beta_fit(range(1, n_max + 1), target_digits=digits)
        indices = fit.sign_changes
    except FitError as exc:
        # short ranges have too few changes for the 3-parameter fit;
        # the census itself is still well defined
        fit, unavailable = None, f"quadratic fit: unavailable ({exc})"
        indices = asymptotics.sign_change_indices(n_max, target_digits=digits)
    changes = ",".join(str(i) for i in indices)
    lines = [f"sign changes (n <= {n_max}): {changes}", f"count: {len(indices)}"]
    fields = {"n_max": n_max, "sign_changes": list(indices), "alpha": None}
    if fit is None:
        return lines + [unavailable], fields
    lines += [
        f"quadratic coefficient alpha: {format_decimal(fit.alpha, 6)}",
        f"pi/4: {format_decimal(quarter_pi, 6)}",
        f"alpha / (pi/4): {format_decimal(fit.alpha_over_quarter_pi, 6)}",
    ]
    fields.update(
        alpha=format_decimal(fit.alpha, 12),
        quarter_pi=format_decimal(quarter_pi, 12),
        alpha_over_quarter_pi=format_decimal(fit.alpha_over_quarter_pi, 12),
    )
    return lines, fields


def cmd_figure2(args) -> list[dict]:
    """Exact and asymptotic b_n, both scaled by e^(2 sqrt(pi n)) n^(-1/4)."""
    points = differences.sequence_many("b", list(args.ns), target_digits=_compute_digits(args))
    rows = []
    with workdps(_compute_digits(args) + 10):
        for p in points:
            nn = mpf(p.n)
            root = 2 * mpmath.sqrt(mpmath.pi * nn)
            scale = mpmath.exp(root) * nn ** mpf("-0.25")
            exact = p.value * scale
            asym = (2 / mpmath.pi) ** mpf("0.25") * mpmath.cos(root - 5 * mpmath.pi / 8)
            rows.append(
                {
                    "n": p.n,
                    "scaled_exact": format_decimal(exact, args.digits),
                    "scaled_asym": format_decimal(asym, args.digits),
                }
            )
    return rows


def cmd_identity(args):
    """Display c_n - H_n + 1 against gamma with the exact 1/(2(n+1)) offset."""
    n = args.ns[-1]
    if n < 2:
        raise DomainError(f"identity needs n >= 2, got {n}")
    digits = args.digits
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


def cmd_zero_model(args):
    """Per-zero oscillation terms coeff * n^Re(rho) * cos(Im(rho) ln n).

    This is an illustrative model, not a computation of the grouped
    zero-sum expansion; it uses the coefficient magnitudes quoted for the
    first two zeros.
    """
    comments = [
        "illustrative model, not a computation of the grouped zero sum",
        "term(n) = coeff * n^Re(rho) * cos(Im(rho) * ln n)",
    ]
    with workdps(_compute_digits(args) + 10):
        for i, (rho, coeff) in enumerate(_MODEL_ZEROS, start=1):
            n_unit = (1 / coeff) ** (1 / rho.real)
            comments.append(
                f"zero {i}: rho = {mpmath.nstr(rho, 8)}, coeff = {mpmath.nstr(coeff, 3)}, "
                f"amplitude reaches 1 near n = {format_decimal(n_unit, 3)}"
            )
        rows = []
        for n in args.ns:
            if n < 2:
                raise DomainError(f"zero-model needs n >= 2, got {n}")
            nn = mpf(n)
            for i, (rho, coeff) in enumerate(_MODEL_ZEROS, start=1):
                envelope = coeff * nn ** rho.real
                term = envelope * mpmath.cos(rho.imag * mpmath.log(nn))
                rows.append(
                    {
                        "n": n,
                        "zero": i,
                        "term": format_decimal(term, args.digits),
                        "envelope": format_decimal(envelope, args.digits),
                    }
                )
    return rows, comments


def cmd_contour(args):
    """One contour-oracle evaluation as report lines."""
    token = args.kind
    if token == "saddle":
        oracle = contour.saddle_contour_integral
    else:
        oracle = functools.partial(contour.rice_integral, _CONTOUR_KINDS[token])
    results = [(n, oracle(n, _compute_digits(args), T=args.quad_T)) for n in args.ns]
    lines = []
    fields = []
    for n, res in results:
        lines.append(
            f"{token} n={n}: value = {format_decimal(res.value, args.digits)}  "
            f"error_estimate = {format_decimal(res.error_estimate, 3)}  "
            f"T = {mpmath.nstr(res.truncation_height, 6)}"
        )
        fields.append(
            {
                "kind": token,
                "n": n,
                "value": format_decimal(res.value, args.digits),
                "error_estimate": format_decimal(res.error_estimate, 3),
                "truncation_height": mpmath.nstr(res.truncation_height, 8),
                "truncation_bound": format_decimal(res.truncation_bound, 3),
                # saddle pieces are complex path integrals; nstr handles both
                "pieces": {p.name: mpmath.nstr(p.value, 12) for p in res.pieces},
            }
        )
    return lines, fields


def cmd_newton(args):
    """Evaluate the Newton partial sum at s with its tail certificate."""
    s = _parse_complex(args.s)
    N = args.ns[-1]
    value, tail = series.newton_eval(s, N, _compute_digits(args))
    # keep the full-precision mantissa; mpc() would re-round at ambient dps
    re = value.real if isinstance(value, mpc) else value
    im = value.imag if isinstance(value, mpc) else mpf(0)
    fields = {
        "s": args.s.strip(),
        "N": N,
        "value_re": format_decimal(re, args.digits),
        "value_im": format_decimal(im, args.digits),
        "tail_bound": format_decimal(tail, 3),
    }
    return [f"{key} = {text}" for key, text in fields.items()], fields


def _gf_worst(order: int, digits: int) -> tuple[mpf, mpf]:
    """Worst |ogf coeff - delta_n| and |n! egf coeff - delta_n| over n = 2..order."""
    og = series.ogf_coeffs(order, digits)
    eg = series.egf_coeffs(order, digits)
    points = differences.sequence_many(
        "delta", list(range(2, order + 1)), target_digits=digits + 10
    )
    with workdps(digits + 20):
        return (max(abs(og.coeff(p.n) - p.value) for p in points),
                max(abs(eg.coeff(p.n) * mpmath.factorial(p.n) - p.value) for p in points))


def cmd_gf_check(args):
    """Compare both generating-function expansions against delta_n."""
    order = args.order
    digits = _compute_digits(args)
    worst_og, worst_eg = _gf_worst(order, digits)
    with workdps(digits + 20):
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


def _dual_method(kind: str, other: str) -> mpf:
    """Worst relative difference of the binomial and `other` routes, n <= 40."""
    ns = list(range(2, 41))
    pb = differences.sequence_many(kind, ns, 12, method="binomial")
    po = differences.sequence_many(kind, ns, 12, method=other)
    with workdps(30):
        return max(_rel_diff(x.value, y.value) for x, y in zip(pb, po))


def _oracle_vs_exact(kind: str, digits: int, exact, ns) -> mpf:
    """Worst relative difference of a contour oracle from exact(n) at 16
    digits; `kind` is a Rice line kind, or "saddle" for the saddle contour."""
    worst = mpf(0)
    for n in ns:
        if kind == "saddle":
            res = contour.saddle_contour_integral(n, digits)
        else:
            res = contour.rice_integral(kind, n, digits)
        value = exact(n, 16).value
        with workdps(30):
            worst = max(worst, _rel_diff(res.value, value))
    return worst


def _b_envelope() -> mpf:
    points = differences.sequence_many("b", list(range(2, 201)), 15)
    with workdps(40):
        return max(abs(p.value) / asymptotics.envelope_bound(p.n, 40) for p in points)


def _b_main() -> mpf:
    worst = mpf(0)
    with workdps(40):
        for n in (100, 150, 200):
            exact = differences.b(n, 25).value
            main = asymptotics.b_asym(n, 30).main
            unit = mpmath.exp(-2 * mpmath.sqrt(mpmath.pi * n)) * mpf(n) ** mpf("-0.25")
            worst = max(worst, abs(exact - main) / unit)
    return worst


def _newton() -> mpf:
    with workdps(40):
        v1, _ = series.newton_eval(-1, 500, 20)
        d1 = abs(v1 - mpf(5) / 12)
        v2, _ = series.newton_eval(mpf("0.5"), 500, 20)
        d2 = abs(v2 - (mpcore.zeta_cx(mpf("0.5"), 40).real + 2))
        v3, _ = series.newton_eval(3, 10, 20)
        d3 = abs(v3 - (mpcore.zeta_int(3, 40) - mpf("0.5")))
        return max(d1, d2, d3)


# (name, in the fast suite, worst value, tolerance, detail, nstr digits of
# the worst value in the detail); a check passes when worst <= tolerance
_CHECKS = (
    ("delta-dual-method", True, lambda: _dual_method("delta", "series"), "1e-10",
     "worst rel diff {} (n <= 40)", 3),
    ("d-dual-method", True, lambda: _dual_method("d", "moebius"), "1e-10",
     "worst rel diff {} (n <= 40)", 3),
    ("b-envelope", True, _b_envelope, "1", "max |b_n|/envelope = {} (n <= 200)", 4),
    ("b-main-residual", True, _b_main, "5", "max scaled residual {} at n in 100..200", 4),
    ("gf-order-12", True, lambda: max(_gf_worst(12, 30)), "1e-30",
     "worst coefficient diff {} through order 12", 3),
    ("contour-right-delta", False,
     lambda: _oracle_vs_exact("zeta-right", 12, differences.delta, (5, 10, 20, 50)),
     "1e-10", "worst rel diff vs delta_n {}", 3),
    ("contour-left-b", False, lambda: _oracle_vs_exact("zeta-left", 10, differences.b, (10, 20)),
     "1e-10", "worst rel diff vs b_n {}", 3),
    ("contour-inv-d", False, lambda: _oracle_vs_exact("inv-zeta", 12, differences.d, (5, 10)),
     "1e-10", "worst rel diff vs d_n {}", 3),
    ("contour-saddle-b", False, lambda: _oracle_vs_exact("saddle", 8, differences.b, (10, 50)),
     "1e-8", "worst rel diff vs b_n {}", 3),
    ("newton-closed-forms", False, _newton, "1e-20", "worst closed-form diff {}", 3),
)


def cmd_verify(suite: str):
    """Run a named invariant suite; one PASS/FAIL line per check."""
    if suite not in ("fast", "full"):
        raise DomainError(f"verify suite must be fast or full, got {suite!r}")
    checks = [row for row in _CHECKS if row[1] or suite == "full"]
    lines = []
    failed = 0
    for name, _, worst_of, tol, detail, nd in checks:
        worst = worst_of()
        ok = worst <= mpf(tol)
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail.format(mpmath.nstr(worst, nd))}")
        failed += 0 if ok else 1
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return lines, None, (1 if failed else 0)


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
    sp.add_argument("kind", choices=tuple(differences.KINDS))
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
    common(sp, digits=10, n_required=True)

    sp = sub.add_parser("newton", help="Newton-series evaluation with certificate")
    sp.add_argument("--s", required=True, help="complex evaluation point")
    common(sp, digits=20, n_default="500")

    sp = sub.add_parser("gf-check", help="generating-function cross-check")
    sp.add_argument("--order", type=int, default=12)
    common(sp, digits=30)

    sp = sub.add_parser("verify", help="invariant suites")
    sp.add_argument("suite", choices=("fast", "full"))
    return parser


_SEQ_COLUMNS = ("n", "value", "method", "digits")

# command -> (handler, table columns, or None for a report); a handler maps
# the parsed arguments to (body, extra, exit status) for `_render`
_COMMANDS = {
    "seq": (lambda a: (cmd_sequence(a), (), 0), _SEQ_COLUMNS),
    "asym": (lambda a: (cmd_asym(a), (), 0), _SEQ_COLUMNS),
    "figure2": (lambda a: (cmd_figure2(a), (), 0), ("n", "scaled_exact", "scaled_asym")),
    "zero-model": (lambda a: (*cmd_zero_model(a), 0), ("n", "zero", "term", "envelope")),
    "signs": (lambda a: (*cmd_signs(a), 0), None),
    "identity": (lambda a: (*cmd_identity(a), 0), None),
    "contour": (lambda a: (*cmd_contour(a), 0), None),
    "newton": (lambda a: (*cmd_newton(a), 0), None),
    "gf-check": (cmd_gf_check, None),
    "verify": (lambda a: cmd_verify(a.suite), None),
}


def _dispatch(args) -> int:
    """Check the common options once, parse the indices into `args.ns`, and
    emit what the command's handler returns."""
    handler, columns = _COMMANDS[args.command]
    out = getattr(args, "out", None)
    if out:
        _check_out(out)
    if args.command != "verify":
        if args.threads < 1:
            raise DomainError(f"--threads must be >= 1, got {args.threads}")
        indices = getattr(args, "n_range", None) or getattr(args, "n", None)
        if indices is not None:
            args.ns = _parse_ns(indices)
        if args.digits < 1:
            raise DomainError(f"--digits must be >= 1, got {args.digits}")
    body, extra, code = handler(args)
    _emit(_render(body, extra, columns, getattr(args, "fmt", "csv")), out)
    return code


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
