"""Correctness checks for each operation's output, run after timing.

Every check compares the program's output with `reference`, which uses a
different formula from the program's default route, or with a proven
property of the sequence.  No check compares against a stored copy of an
earlier output.  `check(op, output)` returns (ok, detail).

Printed decimals are checked to half a unit in their last printed place:
the program works with guard digits, so its displayed digits are correctly
rounded, and a single wrong digit moves the value by at least one unit.
"""

from __future__ import annotations

import mpmath
import numpy
from mpmath import mpf, workdps

import reference

_CHECK_DPS = 60


def half_ulp(text: str) -> mpf:
    """Half a unit in the last place of a printed '±d.ddde±XX' decimal."""
    mant, _, expo = text.strip().lower().partition("e")
    digits = sum(ch.isdigit() for ch in mant)
    return mpf(5) * mpf(10) ** (int(expo or 0) - digits)


def printed_close(text: str, ref) -> bool:
    """True if the printed decimal is within half an ulp of `ref` (slack 1e-6 ulp)."""
    with workdps(_CHECK_DPS):
        return abs(mpf(text) - ref) <= half_ulp(text) * (1 + mpf("1e-6"))


def target_close(value, ref, digits: int) -> bool:
    """True if `value` matches `ref` to half a unit of its `digits`-th digit."""
    with workdps(_CHECK_DPS):
        if ref == 0:
            return value == 0
        ulp = mpf(10) ** (int(mpmath.floor(mpmath.log10(abs(ref)))) - digits + 1)
        return abs(value - ref) <= ulp / 2


def _rows(text: str) -> dict[int, str]:
    """n -> printed value from the CSV table of `zetadiff seq`."""
    rows = {}
    for line in text.splitlines()[1:]:
        n, value, *_ = line.split(",")
        rows[int(n)] = value
    return rows


def _fields(text: str) -> dict[str, str]:
    """Report lines 'key = value' or 'key: value' as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _option(argv, name, default=None):
    """Value of `name` in argv, written either as `name value` or `name=value`."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def check_seq(argv, text: str, sample) -> tuple[bool, str]:
    kind = argv[1]
    rows = _rows(text)
    lo, _, hi = _option(argv, "--n").partition("..")
    if sorted(rows) != list(range(int(lo), int(hi) + 1)):
        return False, "table rows do not cover the requested range"
    digits = int(_option(argv, "--digits", 15))
    if kind == "b":
        for n, value in rows.items():
            with workdps(_CHECK_DPS):
                if n >= 2 and abs(mpf(value)) > reference.envelope(n):
                    return False, f"|b_{n}| = {value} exceeds the envelope bound"
        ref = lambda n: reference.b(n, digits + 10)
    elif kind == "a":
        m, k = int(_option(argv, "--m")), int(_option(argv, "--k"))
        ref = lambda n: reference.a(n, m, k, digits + 10)
    elif kind == "d":
        ref = lambda n: reference.d(n, digits + 10)
    else:
        raise ValueError(f"no check for seq {kind}")
    for n in sample:
        if not printed_close(rows[n], ref(n)):
            return False, f"{kind}_{n} printed {rows[n]}, reference {mpmath.nstr(ref(n), digits + 3)}"
    return True, f"{len(sample)} sampled values match the independent route"


def match_main_zeros(changes, n_max: int, tol: float = 1.5) -> str | None:
    """Pair each sign change n_c with a main-term zero near n_c - 1/2.

    b changes sign between n_c - 1 and n_c, and the main-term zero sits
    within a fixed O(1) shift of the true one.  Returns a complaint or None.
    """
    zeros = [z for z in reference.main_term_zeros(n_max + 1) if z >= 2]
    if len(changes) not in (len(zeros), len(zeros) - 1):
        return f"{len(changes)} sign changes, main term has {len(zeros)} zeros in [2, {n_max + 1}]"
    for n_c, z in zip(changes, zeros):
        if abs(z - (n_c - 0.5)) > tol:
            return f"sign change at {n_c} is {z - (n_c - 0.5):+.2f} from main-term zero {z:.2f}"
    if len(changes) < len(zeros) and zeros[-1] < n_max - tol:
        return f"main-term zero {zeros[-1]:.2f} has no sign change"
    return None


def quadratic_alpha(changes) -> float:
    """Leading coefficient of the least-squares quadratic through (rank, n_c)."""
    ranks = numpy.arange(1, len(changes) + 1, dtype=float)
    return float(numpy.polyfit(ranks, numpy.asarray(changes, dtype=float), 2)[0])


def check_signs(argv, text: str, sample) -> tuple[bool, str]:
    fields = _fields(text)
    n_max = int(_option(argv, "--n"))
    changes = [int(x) for x in fields[f"sign changes (n <= {n_max})"].split(",")]
    if int(fields["count"]) != len(changes):
        return False, "count disagrees with the census"
    complaint = match_main_zeros(changes, n_max)
    if complaint:
        return False, complaint
    alpha = fields["quadratic coefficient alpha"]
    if not printed_close(alpha, mpf(quadratic_alpha(changes))):
        return False, f"alpha {alpha} differs from the least-squares fit {quadratic_alpha(changes)}"
    for rank in sample:
        n_c = changes[rank % len(changes)]
        before, after = reference.b(n_c - 1, 10), reference.b(n_c, 10)
        if before * after >= 0:
            return False, f"b does not change sign at census entry {n_c}"
    return True, f"{len(changes)} sign changes on main-term zeros; fit and sampled flips agree"


def newton_close(value, bound, s, slack=0) -> bool:
    """|value - Z(s)| <= bound + slack, with Z(s) = zeta(s) - 1/(s-1) at 60 digits."""
    with workdps(_CHECK_DPS):
        return abs(mpmath.mpmathify(value) - reference.newton_target(s, _CHECK_DPS)) <= bound + slack


def check_newton(argv, text: str) -> tuple[bool, str]:
    fields = _fields(text)
    s = mpmath.mpmathify(_option(argv, "--s").replace("i", "j"))
    with workdps(_CHECK_DPS):
        value = mpmath.mpc(mpf(fields["value_re"]), mpf(fields["value_im"]))
        # the bound is printed to 3 digits, the value to --digits: undo both roundings
        bound = mpf(fields["tail_bound"]) + half_ulp(fields["tail_bound"])
        slack = half_ulp(fields["value_re"]) + half_ulp(fields["value_im"])
        ok = newton_close(value, bound, s, slack)
        err = abs(value - reference.newton_target(s, _CHECK_DPS))
    return ok, f"|value - Z(s)| = {mpmath.nstr(err, 3)}, bound {fields['tail_bound']}"


_POINT_REFS = {
    "b": lambda n, extra, digits: reference.b(n, digits),
    "delta": lambda n, extra, digits: reference.delta(n, digits),
    "A": lambda n, extra, digits: reference.A(n, *extra, digits),
    "a": lambda n, extra, digits: reference.a(n, *extra, digits),
    "d": lambda n, extra, digits: reference.d(n, digits),
    "c": lambda n, extra, digits: reference.c(n, digits),
}


def check_point(args, point) -> tuple[bool, str]:
    name, n, extra, digits = args
    ref = _POINT_REFS[name](n, extra, digits + 10)
    ok = target_close(point.value, ref, digits)
    with workdps(_CHECK_DPS):
        rel = abs(point.value - ref) / abs(ref)
    return ok, f"relative error {mpmath.nstr(rel, 3)} at {digits} digits"


_ORACLE_REFS = {
    "zeta-right": reference.delta_direct,
    "zeta-left": reference.b_direct,
    "inv-zeta": reference.d_direct,
}


def oracle_close(result, ref) -> bool:
    with workdps(_CHECK_DPS):
        return abs(result.value - ref) <= result.error_estimate


def check_oracle(kind, args, result) -> tuple[bool, str]:
    if kind == "rice":
        line, n, _ = args
        ref = _ORACLE_REFS[line](n, 40)
    else:
        ref = reference.b_direct(args[0], 40)
    with workdps(_CHECK_DPS):
        err = abs(result.value - ref)
    return oracle_close(result, ref), (
        f"|value - binomial sum| = {mpmath.nstr(err, 3)}, "
        f"error_estimate {mpmath.nstr(result.error_estimate, 3)}"
    )


def check(op, output) -> tuple[bool, str]:
    if op.kind == "cli":
        code, text = output
        if code != 0:
            return False, f"exit code {code}"
        command = op.args[0]
        if command == "seq":
            return check_seq(op.args, text, op.sample)
        if command == "signs":
            return check_signs(op.args, text, op.sample)
        if command == "newton":
            return check_newton(op.args, text)
        raise ValueError(f"no check for CLI command {command!r}")
    if op.kind == "point":
        return check_point(op.args, output)
    return check_oracle(op.kind, op.args, output)
