"""Power-series solution of the Fuchsian system at its analytic point and the
blowup-exponent fit at xi = 1.

The system theta'(xi) = A theta / xi - B theta / (xi - 1) has residues A, -B,
B - A at xi = 0, 1, infinity. Both variants are solved as one system in the
local variable x, x = xi (unbounded) or x = 1/xi (bounded): the substitution
x = 1/xi swaps 0 and infinity, so both read
theta'(x) = A0 theta / x - B theta / (x - 1) with A0 = A (unbounded) or
A0 = B - A (bounded). The analytic solution is a power series in x about
x = 0, normalized so the first component of c_0 equals 1. Approaching
xi = 1 along a geometric ladder, the angular mean of rho grows like
|1 - xi|^(-beta), which gives the third, spectrum-independent route to
beta(2). The series is summed only at x = 1/2, where it converges like
2^-k, to an order set by its tail; the system (no singular point lies in
between) carries theta from there to every ladder point. It is integrated
in the log-distance t = -log2|1 - xi|, where the ladder points are the
integers t = j and the distance 2^-t is never formed by cancellation, so
the ladder reaches the double-precision limit j_max = 52. There the system
reads theta' = (ln2 B + f(t) A) theta with one scalar f, and a
fourth-order Magnus step takes it at any stiffness with one matrix
exponential; above a size limit, on a system that is not stiff, one DOP853
solve carries the N-vector instead (see _integrate_log_distance).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DegeneracyError,
    DomainError,
    NumericalError,
    PrecisionError,
    ValidationError,
)
from .loewner_system import LoewnerMatrices, Variant, _check_dense

__all__ = [
    "FuchsianSystem",
    "ThetaSeries",
    "GeometricLadder",
    "BlowupFit",
    "analytic_null_vector",
    "series_solution",
    "evaluate_theta",
    "evaluate_theta_with_tail",
    "angular_mean_rho",
    "blowup_exponent",
]

_PIVOT_TINY = 1e-300
_TAIL_GATE = 1e-6

SERIES_TERM_LIMIT = 1 << 20
_J_MAX_LIMIT = 52
_INTEGRATION_RTOL = 1e-10
# _integrate_log_distance takes Magnus steps up to N = _MAGNUS_LIMIT, and
# above it while N^2 <= _STIFF_RATIO rho, rho = ln2 max_i sum_j |b_ij| the
# Gershgorin bound of ln2 B; _SUBSTEP_LIMIT caps the substeps per unit of t.
# 72 lies between N^2 / rho on the truncating Brownian families at N = 96
# (71.8-71.9) and at 97 (72.5-72.6), where the two integrators cost the
# same, so every truncating fit keeps the integrator its size gave it;
# stiff drivers read 1.5-30 above N = 96 (timings in _integrate_log_distance)
_MAGNUS_LIMIT = 96
_STIFF_RATIO = 72.0
_SUBSTEP_LIMIT = 1 << 10


@dataclass(frozen=True)
class FuchsianSystem:
    """The linear system theta' = A theta / xi - B theta / (xi - 1)."""

    matrices: LoewnerMatrices

    @property
    def n(self) -> int:
        return self.matrices.n

    @property
    def variant(self) -> Variant:
        return self.matrices.variant


@dataclass(frozen=True)
class ThetaSeries:
    """Truncated series about the analytic point.

    coefficients[k] is the N-vector multiplying x^k, where x = xi
    (unbounded) or x = 1/xi (bounded). Normalization: coefficients[0][0] == 1.
    """

    variant: Variant
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 2 or 0 in c.shape:
            raise ValidationError("coefficients must have shape (order+1, N)")
        if c[0, 0] != 1.0:
            raise ValidationError("series normalization requires c_0[0] = 1")
        object.__setattr__(self, "coefficients", c)

    @property
    def order(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coefficients.shape[1]


def _local_bands(m: LoewnerMatrices):
    """Bands of the system in x: ((diag, sub) of A0, (diag, super) of A0 - B).

    A0 = A (unbounded) or B - A (bounded) is lower bidiagonal, and A0 - B,
    which is A - B or -A, upper bidiagonal. A shares its off-diagonal with
    B, which stores it once, so in both variants A0's subdiagonal is B's,
    A0 - B's superdiagonal is minus B's, and the band that cancels is never
    formed.
    """
    if m.variant is Variant.UNBOUNDED:
        diag_a0, diag_a0_b = m.a_diag, m.a_diag - m.b_diag
    else:
        diag_a0, diag_a0_b = m.b_diag - m.a_diag, -m.a_diag
    return (diag_a0, m.b_sub), (diag_a0_b, -m.b_super)


def analytic_null_vector(m: LoewnerMatrices) -> np.ndarray:
    """Null vector of A0, the residue matrix at the analytic point x = 0,
    with v_0 = 1: forward substitution down A0's lower-bidiagonal bands
    (unbounded: v_i = ((eta_i - i - 2) / (eta_i + i)) v_{i-1})."""
    (diag, sub), _ = _local_bands(m)
    v = np.zeros(m.n)
    v[0] = 1.0
    for i in range(1, m.n):
        if abs(diag[i]) < _PIVOT_TINY:
            raise DegeneracyError(f"vanishing pivot at row {i} of the residue matrix")
        v[i] = -sub[i - 1] * v[i - 1] / diag[i]
    return v


def series_solution(sys: FuchsianSystem, k_terms: int) -> ThetaSeries:
    """Series coefficients c_0..c_{k_terms} of the analytic solution in x.

    c_{k+1} = (A0 - (k+1) I)^{-1} (A0 - B - k I) c_k. Each step is one
    forward substitution down the lower-bidiagonal A0 shifted by -(k+1),
    run on Python floats in one pass over the rows that also forms the
    right-hand side from the upper-bidiagonal A0 - B. Its pivots vanish only
    where a diagonal entry of A0 equals the step's index, which is checked
    once before the loop. For matrices from build_matrices those diagonals
    are <= 0.
    """
    if k_terms < 1:
        raise ValidationError(f"k_terms must be >= 1, got {k_terms}")
    if k_terms > SERIES_TERM_LIMIT:
        raise CapacityError(
            f"k_terms {k_terms} exceeds the series term limit {SERIES_TERM_LIMIT}"
        )
    m = sys.matrices
    rows = array("d", analytic_null_vector(m).tolist())
    _extend_rows(m, rows, k_terms)
    coefficients = np.frombuffer(rows).reshape(k_terms + 1, m.n)
    return ThetaSeries(variant=m.variant, coefficients=coefficients)


def _extend_rows(m: LoewnerMatrices, rows: array, k_terms: int) -> None:
    """Append c_{K+1}..c_{k_terms} to rows, which holds c_0..c_K flattened,
    by series_solution's recurrence; rows already computed are kept."""
    (diag, sub), (ab_diag, ab_super) = _local_bands(m)
    k_done = len(rows) // m.n - 1
    # step k's pivot vanishes only where diag = k: a double off an integer
    # k >= 1 misses it by far more than _PIVOT_TINY
    hits = diag[(diag > k_done) & (diag <= k_terms) & (diag == np.floor(diag))]
    if hits.size:
        raise DegeneracyError(f"singular solve at series index {int(hits.min())}")
    # The bands are padded at the first and last row so every row runs the
    # same expression: a 0.0 band entry times a -0.0 neighbour adds -0.0,
    # and the first row subtracts 0.0 * 0.0; both leave any value, -0.0
    # included, exactly as it was.
    c = rows[-m.n :].tolist()
    sub = [0.0] + sub.tolist()
    bands = list(zip(ab_diag.tolist(), ab_super.tolist() + [0.0], diag.tolist(), sub))
    for k in range(k_done, k_terms):
        shift = -(k + 1)
        x = 0.0
        new = []
        for (ab_d, ab_s, d, s), c_i, c_up in zip(bands, c, c[1:] + [-0.0]):
            x = ((ab_d - k) * c_i + ab_s * c_up - s * x) / (d + shift)
            new.append(x)
        rows.extend(new)
        c = new


def _local_argument(variant: Variant, xi: float) -> float:
    """x = xi (unbounded) or 1/xi (bounded), inside the series' domain."""
    if variant is Variant.UNBOUNDED:
        if not 0.0 <= xi < 1.0:
            raise DomainError(f"unbounded evaluation needs 0 <= xi < 1, got {xi}")
        return xi
    if xi == math.inf:
        return 0.0
    if not xi > 1.0:
        raise DomainError(f"bounded evaluation needs xi > 1, got {xi}")
    return 1.0 / xi


def evaluate_theta_with_tail(
    series: ThetaSeries, xi: float
) -> tuple[np.ndarray, float]:
    """theta(xi) plus a geometric truncation-tail estimate continued from the
    last retained term."""
    x = _local_argument(series.variant, xi)
    c = series.coefficients
    powers = x ** np.arange(series.order + 1)
    theta = c.T @ powers
    last = float(np.max(np.abs(c[-1]))) * powers[-1]
    tail = last * x / (1.0 - x) if x < 1.0 else math.inf
    return theta, tail


def evaluate_theta(series: ThetaSeries, xi: float) -> np.ndarray:
    return evaluate_theta_with_tail(series, xi)[0]


def angular_mean_rho(series: ThetaSeries, xi: float) -> float:
    """Zero Fourier mode of rho at radius-squared xi.

    (1 + x) theta_0 - 2 x theta_1 with x = xi or 1/xi, from averaging
    (1 - w)(1 - conj(w)) Theta (unbounded) or
    (1 - 1/w)(1 - 1/conj(w)) Theta (bounded) over the circle. For N = 1 the
    theta_1 term is absent.
    """
    x = _local_argument(series.variant, xi)
    return _angular_mean(evaluate_theta(series, xi), x)


def _angular_mean(theta: np.ndarray, x: float) -> float:
    mean = (1.0 + x) * theta[0]
    if len(theta) > 1:
        mean -= 2.0 * x * theta[1]
    return float(mean)


@dataclass(frozen=True)
class GeometricLadder:
    """Evaluation points xi_j = 1 -/+ 2^{-j}, j = j_min..j_max, approaching
    xi = 1 from inside the evaluation domain. j_max is at most 52, since
    1 + 2^{-53} already rounds to 1.0 in double precision. The default
    j = 6..22 gives 16 slopes; with the Magnus steps' error in them, bounded
    uniform rate 1, N = 3 reads 1.4e-13 at j_max 18 and 1.1e-15 at 22."""

    j_min: int = 6
    j_max: int = 22

    def __post_init__(self):
        if not (0 < self.j_min < self.j_max):
            raise ValidationError("need 0 < j_min < j_max")
        if self.j_max > _J_MAX_LIMIT:
            raise ValidationError(f"j_max must be <= {_J_MAX_LIMIT}, got {self.j_max}")

    def points(self, variant: Variant) -> list[float]:
        sign = -1.0 if variant is Variant.UNBOUNDED else 1.0
        return [1.0 + sign * 2.0 ** (-j) for j in range(self.j_min, self.j_max + 1)]


@dataclass(frozen=True)
class BlowupFit:
    """Fitted blowup exponent of the angular mean at xi = 1.

    beta_est is the fixed-weight Richardson value over the last three
    slopes, advanced by one Aitken step where those values contract
    geometrically along the ladder (see blowup_exponent). window is
    (xi_near, xi_far), the nearest and farthest ladder points. slopes
    carry the Magnus steps' error, a function of 2^-j that the fit removes
    (at j = 6: 5e-6 in the median over 155 random-driver systems, 4e-3 on
    bounded rate 98.5, N = 14). residual is the maximum deviation of the
    slopes from beta_est. Their 2^-j drift dominates it, so it is not an
    error estimate: at the default ladder it reads 0.011 on the N = 2,
    eta_1 = 1 system, whose beta_est is exactly 4.
    oscillation_detected marks a sign change of the mean along the ladder
    (complex dominant exponents), which makes beta_est unreliable.
    """

    beta_est: float
    window: tuple[float, float]
    residual: float
    oscillation_detected: bool
    slopes: tuple[float, ...]


def blowup_exponent(
    sys: FuchsianSystem, ladder: GeometricLadder | None = None
) -> BlowupFit:
    """Fit the growth exponent of |angular mean| along the ladder.

    theta is summed from the series at x = 1/2 (xi = 1/2 or 2), with 64
    terms doubled until the tail is below 2^-53 relative to theta, each
    pass extending the rows of the last; a tail above 1e-6 at
    SERIES_TERM_LIMIT terms raises PrecisionError. In the
    log-distance t = -log2|1 - xi| that point is t0 = 1 (unbounded) or 0
    (bounded) and every ladder point is an integer t = j, so the span
    (t0, j_max) falls into unit pieces (see _integrate_log_distance). No
    distance is formed by cancellation, so the ladder holds to the
    double-precision limit j_max = 52, and j_min costs no series terms. N
    above loewner_system.DENSE_LIMIT raises CapacityError before the series
    is summed, a capacity guard: only the Magnus range forms dense matrices.
    Above the Magnus size limit, on a system that is not stiff, DOP853
    needs the rate r ~ beta ln2 of theta's growth, which the series gives
    (|c_k| ~ k^(beta - 1)): over its nonzero rows c,
    r = ln2 + ln(max|c_K| / max|c_{K//2}|), K = len(c) - 1. The lower-order
    terms of |c_k| leave r an O(1/K) bias, documented and not mended:
    unbounded kappa = 0.01, N = 10 reads r / ln2 = 4.75 against
    beta = 4.990. r is an exact change of variables whatever its value, so
    the bias reaches beta_est only through DOP853's error.

    The local slope between consecutive points is
    s_j = log(g_{j+1}/g_j) / log(d_j/d_{j+1}) with d_j = |1 - xi_j| = 2^-j,
    oriented so a mean growing toward xi = 1 yields a positive exponent.
    Near xi = 1 the mean is d^(-beta) times a function analytic in d, so
    s_j = beta + c_1 2^-j + c_2 4^-j + modes of the spectral gap. Two
    corrections of known ratio are removed exactly, with fixed weights
    (Richardson's deferred approach to the limit):
    R_j = (8 s_j - 6 s_{j-1} + s_{j-2}) / 3 over each three consecutive
    slopes, or s_J on a ladder with fewer. What R_j keeps is mostly one
    geometric mode, which Aitken's delta-squared process removes (Aitken
    1926): where the last three differences of R contract at a consistent
    ratio (_extrapolate gives the guard), beta_est is
    R_J - (dR_J)^2 / (dR_J - dR_{J-1}); otherwise, and on a ladder with
    fewer than six slopes, it is R_J. On bounded uniform rate 1, N = 3
    the default ladder reads 1.1e-15 relative.
    """
    ladder = ladder or GeometricLadder()
    _check_dense(sys.n)
    xi0, t0 = (0.5, 1) if sys.variant is Variant.UNBOUNDED else (2.0, 0)
    rows = array("d", analytic_null_vector(sys.matrices).tolist())
    k_terms, tail, scale = 32, math.inf, 1.0  # the first pass takes 64 terms
    while tail > 2.0**-53 * scale and k_terms < SERIES_TERM_LIMIT:
        k_terms *= 2
        _extend_rows(sys.matrices, rows, k_terms)
        series = ThetaSeries(sys.variant, np.array(rows).reshape(k_terms + 1, sys.n))
        theta, tail = evaluate_theta_with_tail(series, xi0)
        scale = float(np.max(np.abs(theta)))
        if scale == 0.0 or not math.isfinite(scale):
            raise NumericalError(f"series evaluation degenerate at xi={xi0}")
    if tail / scale > _TAIL_GATE:
        raise PrecisionError(
            f"series tail {tail / scale:.2e} > {_TAIL_GATE:.0e} at {k_terms} terms"
        )
    c = np.abs(series.coefficients[series.coefficients.any(axis=1)]).max(axis=1)
    r = math.log(2.0) + math.log(c[-1]) - math.log(c[(len(c) - 1) // 2])
    # row i of the chain is theta at t = t0 + i
    chain = _integrate_log_distance(sys, t0, ladder.j_max, theta, r)
    if not np.all(np.isfinite(chain)):
        raise NumericalError("integration along the ladder left finite range")
    thetas = chain[ladder.j_min - t0 :]
    points = ladder.points(sys.variant)
    xs = [_local_argument(sys.variant, xi) for xi in points]
    g = np.array([_angular_mean(th, x) for th, x in zip(thetas, xs)])
    # signs, not products, which overflow once |g| passes 1e154
    oscillation = bool(np.any(np.signbit(g[:-1]) != np.signbit(g[1:])))
    if np.any(g == 0):
        raise NumericalError("angular mean vanishes on the ladder")
    s = np.log2(np.abs(g[1:] / g[:-1]))
    beta_est = _extrapolate(s)
    residual = float(np.max(np.abs(s - beta_est)))
    return BlowupFit(
        beta_est=beta_est,
        window=(points[-1], points[0]),
        residual=residual,
        oscillation_detected=oscillation,
        slopes=tuple(float(v) for v in s),
    )


def _extrapolate(s: np.ndarray) -> float:
    """beta from the ladder's slopes s: the fixed-weight values
    R_i = (8 s_{i+2} - 6 s_{i+1} + s_i) / 3, then one Aitken delta-squared
    step on their last three differences d', d0, d1 where they contract
    geometrically: rho = d1 / d0 and rho' = d0 / d' finite, |rho| < 1 and
    |rho - rho'| <= |rho'| / 2. Otherwise R_last, or s_last with fewer than
    three slopes."""
    if len(s) < 3:
        return float(s[-1])
    with np.errstate(all="ignore"):  # a zero divisor or overflow declines
        r = (8 * s[2:] - 6 * s[1:-1] + s[:-2]) / 3
        if len(r) >= 4:
            d_prev, d0, d1 = np.diff(r[-4:])
            rho, rho_prev = d1 / d0, d0 / d_prev
            est = r[-1] - d1 * d1 / (d1 - d0)
            if (
                np.isfinite([rho, rho_prev, est]).all()
                and abs(rho) < 1
                and abs(rho - rho_prev) <= abs(rho_prev) / 2
            ):
                return float(est)
    return float(r[-1])


def _integrate_log_distance(
    sys: FuchsianSystem, t0: int, t1: int, theta0: np.ndarray, r: float
) -> np.ndarray:
    """theta at the integers t = t0..t1, t0 < t1, of the log-distance
    t = -log2|1 - xi| on the variant's side of the singular point,
    xi = 1 - 2^-t (unbounded) or 1 + 2^-t (bounded); row i is
    theta(t0 + i), row 0 is theta0. With d = -/+ 2^-t on that side the
    system reads dtheta/dt = (ln2 B + f(t) A) theta, f = -ln2 d / (1 + d);
    d is exact in t, so theta is carried as close to xi = 1 as 2^-t
    resolves.

    Up to N = _MAGNUS_LIMIT each unit piece of the span takes q Magnus
    substeps (_magnus_chain). q is one number for the span, so each
    piece's error is a function of 2^-t that the fit's fixed weights
    remove; it starts at 2 and doubles, rerunning the span, while a substep
    leaves finite range, and above _SUBSTEP_LIMIT raises NumericalError.
    Above that size a system that is not stiff, N^2 > _STIFF_RATIO rho
    with rho = ln2 max_i sum_j |b_ij|, takes one DOP853 solve that carries
    the N-vector at O(N) per right-hand side, from the bands
    (_dop853_chain); rho costs O(N), and only past the size test. The
    O(N^3) exponential loses to it on the truncating Brownian families,
    whose N^2 / rho passes 72 between N = 96 and 97 and grows with N (741
    at N = 1024): at N = 200, 615-650 ms against 67-78 ms. It wins on stiff
    drivers, whose N^2 / rho stays near 1.5-30: kappa = 1 bounded N = 97
    66 against 4,326 ms, N = 200 1.3 against 14.7 s, kappa = 0.3 unbounded
    N = 128 180 against 1,515 ms, each at the same error against a 40-digit
    reference (single runs, one BLAS thread, Magnus against DOP853).
    """
    if sys.n > _MAGNUS_LIMIT:
        m = sys.matrices
        rows = np.abs(m.b_diag)  # the Gershgorin row sums of |B|, from the bands
        rows[1:] += np.abs(m.b_sub)
        rows[:-1] += np.abs(m.b_super)
        if sys.n**2 > _STIFF_RATIO * math.log(2.0) * float(rows.max()):
            return _dop853_chain(sys, t0, t1, theta0, r)
    q = 2
    while (chain := _magnus_chain(sys, t0, t1, theta0, q)) is None:
        q *= 2
        if q > _SUBSTEP_LIMIT:
            raise NumericalError(
                f"Magnus substeps left finite range at {_SUBSTEP_LIMIT} per unit of t"
            )
    return chain


def _magnus_chain(
    sys: FuchsianSystem, t0: int, t1: int, theta0: np.ndarray, q: int
) -> np.ndarray | None:
    """_integrate_log_distance's rows by q fourth-order Magnus substeps per
    unit of t (Iserles and Norsett 1999; Blanes, Casas, Oteo and Ros 2009),
    or None where a substep leaves finite range.

    A substep of length h takes f at its two Gauss points, f1 and f2:
    Omega = h (ln2 B + (f1 + f2) A / 2) + (sqrt3/12) h^2 (f1 - f2) ln2 [B, A],
    and theta <- expm(Omega) theta, which holds at any stiffness. theta is
    then divided by a power of two near max|theta| and the exponent
    carried, so its growth like 2^(beta t) costs no range and no rounding.
    """
    import scipy.linalg  # kept off the import path

    ln2 = math.log(2.0)
    b, a = ln2 * sys.matrices.b_dense(), sys.matrices.a_dense()
    h = 1.0 / q
    hb, hc = h * b, (math.sqrt(3.0) / 12.0 * h * h) * (b @ a - a @ b)
    sign = -1.0 if sys.variant is Variant.UNBOUNDED else 1.0
    nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
    d = sign * 2.0 ** -(t0 + (np.arange((t1 - t0) * q)[:, None] + nodes) * h)
    f = -ln2 * d / (1.0 + d)
    theta, exponent, rows, exponents = theta0, 0, [theta0], [0]
    for i, (f1, f2) in enumerate(f.tolist(), start=1):
        omega = hb + (0.5 * h * (f1 + f2)) * a + (f1 - f2) * hc
        with np.errstate(all="ignore"):  # an overflow is caught below
            theta = scipy.linalg.expm(omega) @ theta
        scale = float(np.max(np.abs(theta)))
        if not math.isfinite(scale):
            return None
        if scale:  # a zero theta stays zero
            e = math.frexp(scale)[1]
            theta, exponent = np.ldexp(theta, -e), exponent + e
        if i % q == 0:
            rows.append(theta)
            exponents.append(exponent)
    with np.errstate(over="ignore"):  # the caller tests the rows' range
        return np.ldexp(rows, np.array(exponents)[:, None])


def _dop853_chain(
    sys: FuchsianSystem, t0: int, t1: int, theta0: np.ndarray, r: float
) -> np.ndarray:
    """_integrate_log_distance's rows by one DOP853 solve over the span.
    Near xi = 1 theta grows or decays like 2^(beta t), so DOP853 integrates
    phi = e^(-r (t - t0)) theta, with r the caller's estimate of beta ln2,
    an exact change of variables for any r; row i is scaled back by
    e^(r i). atol is 1e-13 max|theta0| on every component: 1e-13 |theta0_i|
    would hold small components (bounded kappa = 0.3, N = 6: 1.7e-8 to
    1.1e-10) but doubles the right-hand sides (N = 128: 3,773 to 7,553) and
    divides by zero where a theta0_i underflows (N = 1000)."""
    from scipy import integrate, sparse  # off the import path; integrate loads sparse

    n, m, ln2 = sys.n, sys.matrices, math.log(2.0)
    sign = -1.0 if sys.variant is Variant.UNBOUNDED else 1.0
    # ln2 B - r I over ln2 A from the bands: O(N) per product
    b = sparse.diags([ln2 * m.b_sub, ln2 * m.b_diag - r, ln2 * m.b_super], (-1, 0, 1))
    a = sparse.diags([ln2 * m.a_diag, ln2 * m.a_off], (0, int(sign)))  # below or above
    h = sparse.vstack([b, a], format="csr")

    def rhs(t, y):
        hy = h @ y
        d = sign * 2.0**-t
        return hy[:n] - d / (1.0 + d) * hy[n:]

    sol = integrate.solve_ivp(
        rhs,
        (t0, t1),
        theta0,
        method="DOP853",
        t_eval=np.arange(t0 + 1, t1 + 1),  # the piece ends, not every step
        rtol=_INTEGRATION_RTOL,
        atol=1e-13 * (float(np.max(np.abs(theta0))) or 1.0),
    )
    if not sol.success:
        raise NumericalError(f"integration failed: {sol.message}")
    phi = np.vstack([theta0, sol.y.T])
    return phi * np.exp(r * np.arange(t1 - t0 + 1))[:, None]
