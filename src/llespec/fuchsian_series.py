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
the ladder reaches the double-precision limit j_max = 52, in one adaptive
solve (see _integrate_log_distance for its two shapes). There theta grows
like 2^(beta t); the integrator carries an integrating factor e^(-r t)
that takes most of that growth out.
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
# when the ladder's propagators are batched: see _batching_pays
_BATCH_STATE_LIMIT = 4096  # k N^2 floats
_BATCH_ANY_N = 6
_STIFF_WIDTH_PER_ROW = 3.0


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
    c = analytic_null_vector(m)
    (diag, sub), (ab_diag, ab_super) = _local_bands(m)
    # step k's pivot vanishes only where diag = k: a double off an integer
    # k >= 1 misses it by far more than _PIVOT_TINY
    hits = diag[(diag >= 1) & (diag <= k_terms) & (diag == np.floor(diag))]
    if hits.size:
        raise DegeneracyError(f"singular solve at series index {int(hits.min())}")
    # The bands are padded at the first and last row so every row runs the
    # same expression: a 0.0 band entry times a -0.0 neighbour adds -0.0,
    # and the first row subtracts 0.0 * 0.0; both leave any value, -0.0
    # included, exactly as it was.
    c = c.tolist()
    out = array("d", c)
    sub = [0.0] + sub.tolist()
    rows = list(zip(ab_diag.tolist(), ab_super.tolist() + [0.0], diag.tolist(), sub))
    for k in range(k_terms):
        shift = -(k + 1)
        x = 0.0
        new = []
        for (ab_d, ab_s, d, s), c_i, c_up in zip(rows, c, c[1:] + [-0.0]):
            x = ((ab_d - k) * c_i + ab_s * c_up - s * x) / (d + shift)
            new.append(x)
        out.extend(new)
        c = new
    coefficients = np.frombuffer(out).reshape(k_terms + 1, m.n)
    return ThetaSeries(variant=m.variant, coefficients=coefficients)


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
    1 + 2^{-53} already rounds to 1.0 in double precision."""

    j_min: int = 6
    j_max: int = 14

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

    window is (xi_near, xi_far), the nearest and farthest ladder points.
    residual is the maximum deviation of the local slopes from beta_est;
    slow slope drift (rather than noise) signals logarithmic corrections from
    degenerate or resonant exponents. oscillation_detected marks a sign
    change of the mean along the ladder (complex dominant exponents), which
    makes beta_est unreliable.
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
    terms doubled until the tail is below 2^-53 relative to theta; a tail
    above 1e-6 at SERIES_TERM_LIMIT terms raises PrecisionError. In the
    log-distance t = -log2|1 - xi| that point is t0 = 1 (unbounded) or 0
    (bounded) and every ladder point is an integer t = j, so the span
    (t0, j_max) falls into unit pieces, whose ends one DOP853 solve
    reaches (see _integrate_log_distance). No distance is formed by
    cancellation, so the ladder holds to the double-precision limit
    j_max = 52, and j_min costs no series terms. The integration uses the
    dense residue matrices, so N above loewner_system.DENSE_LIMIT raises
    CapacityError before the series is summed.

    The local slope between consecutive points is
    log(g_{j+1}/g_j) / log(d_j/d_{j+1}) with d_j = |1 - xi_j|, oriented so a
    mean growing toward xi = 1 yields a positive exponent; beta_est is the
    Aitken limit of the last three slopes.
    """
    ladder = ladder or GeometricLadder()
    _check_dense(sys.n)
    xi0, t0 = (0.5, 1) if sys.variant is Variant.UNBOUNDED else (2.0, 0)
    k_terms, tail, scale = 32, math.inf, 1.0  # the first pass takes 64 terms
    while tail > 2.0**-53 * scale and k_terms < SERIES_TERM_LIMIT:
        k_terms *= 2
        series = series_solution(sys, k_terms)
        theta, tail = evaluate_theta_with_tail(series, xi0)
        scale = float(np.max(np.abs(theta)))
        if scale == 0.0 or not math.isfinite(scale):
            raise NumericalError(f"series evaluation degenerate at xi={xi0}")
    if tail / scale > _TAIL_GATE:
        raise PrecisionError(
            f"series tail {tail / scale:.2e} > {_TAIL_GATE:.0e} at {k_terms} terms"
        )
    # c_k ~ k^(beta - 1) v, with v theta's direction at xi = 1, so the last
    # nonzero c_k gives the integrating factor a rate near beta ln2; the rate
    # at theta(1/2) is too far off and costs a deep ladder digits
    c = series.coefficients[series.coefficients.any(axis=1)]
    # row i of the chain is theta at t = t0 + i
    chain = _integrate_log_distance(sys, t0, ladder.j_max, theta, c[-1])
    thetas = chain[ladder.j_min - t0 :]
    points = ladder.points(sys.variant)
    xs = [_local_argument(sys.variant, xi) for xi in points]
    g = np.array([_angular_mean(th, x) for th, x in zip(thetas, xs)])
    oscillation = bool(np.any(g[:-1] * g[1:] < 0))
    if np.any(g == 0):
        raise NumericalError("angular mean vanishes on the ladder")
    s = np.log2(np.abs(g[1:] / g[:-1]))
    if len(s) >= 3:
        d1 = s[-1] - s[-2]
        d2 = s[-2] - s[-3]
        if d1 != d2 and math.isfinite(d1) and math.isfinite(d2):
            beta_est = float(s[-1] - d1 * d1 / (d1 - d2))
        else:
            beta_est = float(s[-1])
    else:
        beta_est = float(s[-1])
    residual = float(np.max(np.abs(s - beta_est)))
    return BlowupFit(
        beta_est=beta_est,
        window=(points[-1], points[0]),
        residual=residual,
        oscillation_detected=oscillation,
        slopes=tuple(float(v) for v in s),
    )


def _integrate_log_distance(
    sys: FuchsianSystem,
    t0: int,
    t1: int,
    theta0: np.ndarray,
    direction: np.ndarray,
) -> np.ndarray:
    """theta at the integers t = t0..t1, t0 < t1, of the log-distance
    t = -log2|1 - xi| on the variant's side of the singular point,
    xi = 1 - 2^-t (unbounded) or 1 + 2^-t (bounded); row i is
    theta(t0 + i), row 0 is theta0. The span falls into k = t1 - t0 unit
    pieces.

    With d = -/+ 2^-t on that side the system reads
    dtheta/dt = ln2 [B theta - d / (1 + d) A theta]; d is exact in t, so
    theta is carried as close to xi = 1 as 2^-t resolves.

    As d -> 0 the operator tends to ln2 B, so theta grows or decays like
    2^(beta t). DOP853 integrates phi = e^(-r (t - t0)) theta instead, with
    r = u' (ln2 B) u / u' u (0 for a zero u), the Rayleigh quotient of
    ln2 B at u = direction; the change of variables is exact, and row i is
    scaled back by e^(r i).

    One DOP853 solve integrates p runs of q consecutive pieces each, all
    in one local time tau in [0, 1], and keeps each run's state at the
    ends of its pieces, tau = j / q. The state is p N x c matrices, which
    each right-hand side multiplies by ln2 B and ln2 A in two batched
    products, and phi is chained through the runs' outputs. The solve's
    shape is the only choice:

    - batched, where _batching_pays: p = k runs of one piece, each the
      N x N propagator of its piece from the identity, through which k
      matrix-vector products chain phi. The steps follow the hardest
      single piece rather than the whole span, and the integration error
      does not build up along the span.
    - vector, otherwise: p = 1 run of k pieces, which carries the N-vector
      phi itself from theta0, at O(N^2) per right-hand side.

    atol is 1e-13 relative to the largest entry of the start state.
    """
    import scipy.integrate  # only user in the package; kept off the import path

    n = sys.n
    k = t1 - t0
    if _batching_pays(sys.matrices, k):
        p, q, y0, start = k, 1, np.broadcast_to(np.eye(n), (k, n, n)), theta0
    else:
        p, q, y0, start = 1, k, theta0.reshape(1, n, 1), np.ones(1)
    sign = -1.0 if sys.variant is Variant.UNBOUNDED else 1.0
    h_b = math.log(2.0) * sys.matrices.b_dense()
    # the quotient is taken on u / max|u|, so its sums cannot overflow
    u = direction / (float(np.max(np.abs(direction))) or 1.0)
    norm2 = float(u @ u)
    r = float(u @ h_b @ u) / norm2 if norm2 else 0.0
    # scaled in place to q (ln2 B - r I) and q ln2 A, the operators in tau
    # over a run's q units of t, so no more than two N x N matrices are
    # held at once
    h_b.flat[:: n + 1] -= r
    h_b *= q
    h_a = sys.matrices.a_dense()
    h_a *= q * math.log(2.0)
    d_starts = sign * 2.0 ** -(t0 + q * np.arange(p))  # d at each run's start

    # h_a and h_b multiply Y separately: their difference would be an
    # N x N matrix formed on every right-hand side of the vector shape
    def rhs(tau, y):
        y = y.reshape(p, n, -1)
        d = d_starts * 2.0 ** (-q * tau)
        return (h_b @ y - (d / (1.0 + d))[:, None, None] * (h_a @ y)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, 1.0),
        y0.ravel(),
        method="DOP853",
        t_eval=np.arange(1, q + 1) / q,  # the piece ends, not every step
        rtol=_INTEGRATION_RTOL,
        atol=1e-13 * (float(np.max(np.abs(y0))) or 1.0),
    )
    if not sol.success:
        raise NumericalError(f"integration failed: {sol.message}")
    phi = [theta0]
    for run in np.moveaxis(sol.y.reshape(p, n, -1, q), -1, 1):
        out = run @ start  # phi at the ends of the run's pieces
        phi.extend(out)
        start = out[-1]
    return np.array(phi) * np.exp(r * np.arange(k + 1))[:, None]


def _batching_pays(m: LoewnerMatrices, k: int) -> bool:
    """Whether _integrate_log_distance's batched shape, k propagators, costs
    less than its vector shape, one N-vector over the span.

    A batched step costs O(k N^3) against O(N^2), and the propagators, which
    start at the identity, resolve all N modes, so they need more steps per
    piece as N grows, where the vector solve may take a few per unit of t.
    The vector solve is stability-bound once the spectrum of ln2 B spreads
    far below its top, and then takes about as many steps per unit of t as
    the batched solve per piece: batching saves up to a factor k. The
    spread is bounded by the Gershgorin width of ln2 B, read off its bands.
    One piece (k = 1) gains nothing, and the state limit keeps the k N^2
    floats of each DOP853 stage small.

    The thresholds come from timing both solves in blowup_exponent on 330
    systems (Brownian drivers, among them the truncating ones, stiff and
    random drivers; N = 2..24, ladders to j = 14, 30 and 52): with them the
    batched solve is chosen only where it was faster, and the fit takes
    0.44 of the vector solve's time in the geometric mean.
    """
    n = m.n
    if k < 2 or k * n * n > _BATCH_STATE_LIMIT:
        return False
    if n <= _BATCH_ANY_N:
        return True
    radius = np.zeros(n)
    radius[1:] += np.abs(m.b_sub)
    radius[:-1] += np.abs(m.b_super)
    width = float(np.max(m.b_diag + radius) - np.min(m.b_diag - radius))
    return math.log(2.0) * width >= _STIFF_WIDTH_PER_ROW * n
