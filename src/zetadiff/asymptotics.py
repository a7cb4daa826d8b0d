"""Saddle-point asymptotics for the difference sequences.

Main terms:

    b_n      ~  (2n/pi)^(1/4) e^(-2 sqrt(pi n)) cos(2 sqrt(pi n) - 5 pi/8)
    a_n(m,k) ~  (2n/(pi k))^(1/4) e^(-sqrt(4 pi n/k))
                  * cos(sqrt(4 pi n/k) - 5 pi/8 + pi (k+1-2m)/k)

The a_n phase offset pi*(k+1-2m)/k is the convention named 'derived' below;
it reduces to the b_n formula at (m,k) = (1,1) and is the one that matches
exact values.  Two alternative conventions circulate for the same formula
('mshift': amplitude carries an extra 1/k and the offset is -2 pi m/k;
'plain': extra 1/k and no offset); both are kept so the selector
`select_phase_convention` can demonstrate numerically which one is right.

Also here: the saddle data (location sigma = (1+i) sqrt(pi p n / k),
steepest-descent direction 5 pi/8, omega and its second derivative), the
generic one-saddle formula, an end-to-end pipeline reassembling the b_n main
term from those pieces, the explicit A_n(1,2) main term, and the fits to the
sign-change locations of b_n (quadratic-in-rank model and the cosine zero
model with vertical offset L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf, mpc, workdps

from . import mpcore
from .differences import sequence_many
from .errors import DomainError, FitError
from .mpcore import _coerce_shift
from .precision import digits

PHASE_CONVENTIONS = ("derived", "mshift", "plain")


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Main term split as amplitude * cos(phase), with error metadata."""

    n: int
    main: mpf
    amplitude: mpf
    phase: mpf
    error_order: str
    validity: str


@dataclass(frozen=True)
class SaddleData:
    sigma: mpc
    x0: mpc
    direction: mpf
    omega_at_sigma: mpc
    omega2_at_sigma: mpc


@dataclass(frozen=True)
class PhaseSelection:
    """Residual report of the convention oracle at one (n, shift)."""

    chosen: str
    n: int
    m: int
    k: int
    scaled_residuals: dict


@dataclass(frozen=True)
class BetaFitResult:
    """Fits to the sign-change locations of b_n."""

    sign_changes: tuple
    L: float
    predicted: tuple
    max_abs_dev: float
    alpha: float
    beta: float
    gamma0: float
    alpha_over_quarter_pi: float
    K_given: float | None
    K_fit: float | None


def _main_term(n, m: int, k: int, convention: str, working: int):
    """(main, amplitude, phase) at real n >= 1 (continuous n allowed)."""
    if convention not in PHASE_CONVENTIONS:
        raise DomainError(
            f"convention must be one of {PHASE_CONVENTIONS}, got {convention!r}"
        )
    with workdps(working):
        nn = mpf(n)
        root = mpmath.sqrt(4 * mpmath.pi * nn / k)
        amp = (2 * nn / (mpmath.pi * k)) ** mpf("0.25") * mpmath.exp(-root)
        if convention == "derived":
            offset = mpmath.pi * mpf(k + 1 - 2 * m) / k
        elif convention == "mshift":
            amp = amp / k
            offset = -2 * mpmath.pi * mpf(m) / k
        else:  # plain
            amp = amp / k
            offset = mpf(0)
        phase = root - 5 * mpmath.pi / 8 + offset
        return +(amp * mpmath.cos(phase)), +amp, +phase


def envelope_bound(n, prec=None) -> mpf:
    """Proven envelope of |b_n|: 2 (2n/pi)^(1/4) e^(-2 sqrt(pi n)), n >= 2.

    The factor 2 absorbs the lower-order corrections; at n = 1 the actual
    |b_1| = 0.0772 already exceeds this bound, so n >= 2 is required.
    """
    working = digits(prec)[1]
    if not mpf(n) >= 2:
        raise DomainError(f"envelope_bound needs n >= 2, got {n!r}")
    with workdps(working):
        nn = mpf(n)
        return +(2 * (2 * nn / mpmath.pi) ** mpf("0.25")
                 * mpmath.exp(-2 * mpmath.sqrt(mpmath.pi * nn)))


def b_asym(n, prec=30) -> AsymptoticEstimate:
    """Main asymptotic term of b_n; n may be a positive real."""
    working = digits(prec)[1]
    if not mpf(n) >= 1:
        raise DomainError(f"b_asym needs n >= 1, got {n!r}")
    main, amp, phase = _main_term(n, 1, 1, "derived", working)
    return AsymptoticEstimate(
        n=n, main=main, amplitude=amp, phase=phase,
        error_order="e^(-2*sqrt(pi*n)) * n^(-1/4)",
        validity="large-n main term; empirically within 5 envelope units for 50 <= n <= 1000",
    )


def a_asym(n, shift, prec=30, convention: str = "derived") -> AsymptoticEstimate:
    """Main asymptotic term of a_n(m,k) under the given phase convention."""
    working = digits(prec)[1]
    q = _coerce_shift(shift)
    if not mpf(n) >= 1:
        raise DomainError(f"a_asym needs n >= 1, got {n!r}")
    main, amp, phase = _main_term(n, q.m, q.k, convention, working)
    return AsymptoticEstimate(
        n=n, main=main, amplitude=amp, phase=phase,
        error_order=f"n^(-1/4) * e^(-2*sqrt(pi*n/{q.k}))",
        validity=f"large-n main term, convention '{convention}'",
    )


def select_phase_convention(shift, n: int = 200, target_digits: int = 10) -> PhaseSelection:
    """Pick the a_n phase convention matching the exact value at index n.

    Residuals are reported in envelope units n^(-1/4) e^(-2 sqrt(pi n/k)),
    so a correct convention scores O(1) and a wrong one scores ~5-20.
    """
    from .differences import a as _a_seq

    q = _coerce_shift(shift)
    exact = _a_seq(n, q, target_digits).value
    working = 30
    residuals = {}
    with workdps(working):
        unit = mpf(n) ** mpf("-0.25") * mpmath.exp(-2 * mpmath.sqrt(mpmath.pi * n / q.k))
        for conv in PHASE_CONVENTIONS:
            main, _, _ = _main_term(n, q.m, q.k, conv, working)
            residuals[conv] = +(abs(exact - main) / unit)
    chosen = min(residuals, key=lambda name: residuals[name])
    return PhaseSelection(chosen=chosen, n=n, m=q.m, k=q.k, scaled_residuals=residuals)


def an12_main(n: int, prec=30) -> mpf:
    """Explicit main term of A_n(1,2): (n/2) psi(n) + n (gamma - 1/2 + ln2/2).

    The identity A_n(1,2) - an12_main(n) = a_n(1,2) is exact, so the residual
    of this main term is exponentially small.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise DomainError(f"an12_main needs an int n >= 2, got {n!r}")
    working = digits(prec)[1]
    with workdps(working):
        gamma = mpcore.euler_gamma(working)
        psi_n = mpcore.harmonic_mpf(n - 1, working) - gamma
        return +(mpf(n) / 2 * psi_n + n * (gamma - mpf("0.5") + mpmath.ln(2) / 2))


def exact_omega(s, n: int, k: int = 1, p: int = 1) -> mpc:
    """Log of the smooth part of the difference integrand (model for saddles).

    omega(s) = -s ln(2 pi p / k) - i pi s / 2
               + ln Gamma(n+1) + ln Gamma(s) + ln Gamma(s-1) - ln Gamma(s+n)

    evaluated with principal-branch loggamma at the ambient precision.
    """
    s = mpc(s)
    return (
        -s * mpmath.ln(2 * mpmath.pi * p / k)
        - mpc(0, 1) * mpmath.pi * s / 2
        + mpmath.loggamma(n + 1)
        + mpmath.loggamma(s)
        + mpmath.loggamma(s - 1)
        - mpmath.loggamma(s + n)
    )


def saddle(n: int, k: int = 1, p: int = 1, prec=30) -> SaddleData:
    """Saddle data for the order-n difference at shift denominator k, mode p."""
    if n < 1 or k < 1 or p < 1:
        raise DomainError(f"saddle needs n, k, p >= 1, got n={n}, k={k}, p={p}")
    working = digits(prec)[1]
    with workdps(working):
        x0 = mpc(1, 1) * mpmath.sqrt(mpmath.pi * mpf(p) / k)
        sigma = x0 * mpmath.sqrt(mpf(n))
        omega_val = +exact_omega(sigma, n, k, p)
        omega2 = +(
            mpmath.psi(1, sigma) + mpmath.psi(1, sigma - 1) - mpmath.psi(1, sigma + n)
        )
        return SaddleData(
            sigma=+sigma,
            x0=+x0,
            direction=+(5 * mpmath.pi / 8),
            omega_at_sigma=omega_val,
            omega2_at_sigma=omega2,
        )


def saddle_formula(f_at_x0, f2_at_x0, N, prec=None) -> mpc:
    """Generic one-saddle estimate sqrt(2 pi / (N f''(x0))) e^(-N f(x0)).

    Principal square-root branch; the caller orients the traversal (a
    descent direction opposite the principal branch flips the sign).
    """
    working = digits(prec)[1]
    with workdps(working):
        f2 = mpc(f2_at_x0)
        if f2 == 0:
            raise DomainError("degenerate saddle: zero second derivative")
        return +(mpmath.sqrt(2 * mpmath.pi / (mpf(N) * f2)) * mpmath.exp(-mpf(N) * mpc(f_at_x0)))


def saddle_pipeline_main(n: int, prec=40) -> mpf:
    """Reassemble the b_n main term from saddle data and the saddle formula.

    The model integrand near the saddle is
    G(s) = (i/(4 pi)) e^(omega(s)) s(s-1)/(s+n)  (zeta factor ~ 1, and the
    sine factor reduced to its decaying exponential on the upper contour);
    the upper-contour integral is -saddle_formula(-ln G(sigma), -omega'',
    1) for the principal branch, and b_n = -(2/pi) Im of that integral.
    """
    working = digits(prec)[1]
    data = saddle(n, 1, 1, working)
    with workdps(working):
        sigma = data.sigma
        ln_g = (
            mpmath.ln(mpc(0, 1) / (4 * mpmath.pi))
            + data.omega_at_sigma
            + mpmath.ln(sigma * (sigma - 1) / (sigma + n))
        )
        w = saddle_formula(-ln_g, -data.omega2_at_sigma, 1, working)
        return +((2 / mpmath.pi) * w.imag)


def predicted_main_zeros(n_max: float, n_min: float = 2.0) -> list[float]:
    """Continuous-n zeros of the b_n main term: n_j = pi (j + 9/8)^2 / 4."""
    zeros = []
    j = 0
    while True:
        nj = math.pi * (j + 1.125) ** 2 / 4
        if nj > n_max:
            break
        if nj >= n_min:
            zeros.append(nj)
        j += 1
    return zeros


def sign_change_indices(n_max: int, target_digits: int = 12) -> list[int]:
    """Indices n with b_{n-1} b_n < 0, for 2 <= n <= n_max."""
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max}")
    pts = sequence_many("b", list(range(1, n_max + 1)), target_digits)
    changes = []
    for prev, cur in zip(pts, pts[1:]):
        if prev.value * cur.value < 0:
            changes.append(cur.n)
    return changes


def _lsq_quadratic(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares fit y = alpha x^2 + beta x + gamma0 (normal equations)."""
    s = [0.0] * 5
    t = [0.0] * 3
    for x, y in zip(xs, ys):
        for p in range(5):
            s[p] += x ** p
        for p in range(3):
            t[p] += y * x ** p
    # solve the 3x3 normal system by Gaussian elimination
    m = [
        [s[4], s[3], s[2], t[2]],
        [s[3], s[2], s[1], t[1]],
        [s[2], s[1], s[0], t[0]],
    ]
    for i in range(3):
        piv = max(range(i, 3), key=lambda r: abs(m[r][i]))
        m[i], m[piv] = m[piv], m[i]
        for r in range(i + 1, 3):
            f = m[r][i] / m[i][i]
            for col in range(i, 4):
                m[r][col] -= f * m[i][col]
    sol = [0.0] * 3
    for i in (2, 1, 0):
        sol[i] = (m[i][3] - sum(m[i][j] * sol[j] for j in range(i + 1, 3))) / m[i][i]
    return sol[0], sol[1], sol[2]


def beta_fit(n_range, K: float | None = None, target_digits: int = 12) -> BetaFitResult:
    """Fit the sign-change model cos(pi (2 sqrt(n/pi) + L)) e^(-K sqrt(n)).

    L comes from a circular mean of the fractional parts of 2 sqrt(n_c/pi)
    over the observed sign-change locations n_c (the cosine zeros sit at
    2 sqrt(n/pi) + L = j + 1/2).  The quadratic-in-rank fit n_j ~ alpha j^2
    + beta j + gamma0 exposes the leading pi/4 coefficient; a through-origin
    fit would absorb the linear term into alpha and bias it by ~20%.

    With K=None the decay constant is fitted by regressing
    -ln(|b_peak| (2n/pi)^(-1/4)) on sqrt(n) over envelope peaks.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns or ns[0] < 1:
        raise DomainError("beta_fit needs a nonempty range of indices >= 1")
    pts = sequence_many("b", ns, target_digits)
    changes = [cur.n for prev, cur in zip(pts, pts[1:]) if prev.value * cur.value < 0]
    if not changes:
        raise FitError(f"no sign changes of b_n in range {ns[0]}..{ns[-1]}")

    # circular mean of frac(2 sqrt(n_c/pi)), which estimates frac(1/2 - L)
    sin_sum = 0.0
    cos_sum = 0.0
    for n_c in changes:
        frac = math.fmod(2 * math.sqrt(n_c / math.pi), 1.0)
        sin_sum += math.sin(2 * math.pi * frac)
        cos_sum += math.cos(2 * math.pi * frac)
    mean_frac = math.atan2(sin_sum, cos_sum) / (2 * math.pi)
    L = 0.5 - mean_frac
    L -= round(L)  # represent L in (-1/2, 1/2]; zeros are 1-periodic in L
    if L <= 0:
        L += 1.0  # conventional branch: the observed offset is ~0.406

    predicted = []
    for n_c in changes:
        j = round(2 * math.sqrt(n_c / math.pi) - 0.5 + L)
        predicted.append(math.pi * (j + 0.5 - L) ** 2 / 4)
    max_dev = max(abs(p - c) for p, c in zip(predicted, changes))

    if len(changes) < 3:
        raise FitError(
            f"quadratic fit needs at least 3 sign changes, found {len(changes)}"
        )
    ranks = list(range(1, len(changes) + 1))
    alpha, beta, gamma0 = _lsq_quadratic([float(r) for r in ranks], [float(c) for c in changes])

    k_fit = None
    if K is None:
        # envelope peaks: local maxima of |b_n| between consecutive changes
        peaks = []
        vals = {p.n: abs(p.value) for p in pts}
        bounds = [ns[0]] + changes + [ns[-1]]
        for lo, hi in zip(bounds, bounds[1:]):
            seg = [n for n in ns if lo <= n < hi]
            if len(seg) >= 3:
                n_pk = max(seg, key=lambda n: vals[n])
                if n_pk not in (lo, hi):
                    peaks.append(n_pk)
        if len(peaks) >= 3:
            xs = [math.sqrt(n) for n in peaks]
            ys = [
                -(math.log(float(vals[n])) - 0.25 * math.log(2 * n / math.pi))
                for n in peaks
            ]
            xbar = sum(xs) / len(xs)
            ybar = sum(ys) / len(ys)
            k_fit = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
                (x - xbar) ** 2 for x in xs
            )
        else:
            raise FitError("too few envelope peaks to fit the decay constant")

    return BetaFitResult(
        sign_changes=tuple(changes),
        L=L,
        predicted=tuple(predicted),
        max_abs_dev=max_dev,
        alpha=alpha,
        beta=beta,
        gamma0=gamma0,
        alpha_over_quarter_pi=alpha / (math.pi / 4),
        K_given=None if K is None else float(K),
        K_fit=k_fit,
    )
