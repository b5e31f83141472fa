"""Eigenvalue spectra of the B matrices, their classification, and the
maximal real eigenvalue beta(2) by two of the three routes (eigensolver and
certified top root of the characteristic polynomial).

Route 2 (`max_real_root_detailed`): Newton's method on P_N from above the
Gershgorin bound of the balanced B's symmetric part, which by Bendixson's
theorem lies above the real part of every root, then a certificate that
the root is the top one (no sign change among the Taylor coefficients of
P_N just above it, scaled by |P_N|^(1/N), each beyond its rounding bound,
and a sign change of P_N just below it). Only when the certificate is
inconclusive does the eigensolver take part, and the result then says so
(used_fallback=True).

Solver choice (`_eigenvalues`, the package's only whole-spectrum solver):
when every off-diagonal product a_n is positive, B is diagonally similar to
the symmetric tridiagonal matrix with off-diagonals sqrt(a_n) and an
implicit-shift symmetric solver applies (real output guaranteed). Otherwise
B, already Hessenberg, goes through a real double-shift QR reduction of the
dense matrix, for N up to loewner_system.DENSE_LIMIT, flipped about its
anti-diagonal: graded downward, it solves in about half the time, with
beta(2) to ~1e-15 where B as it stands loses up to 1e-11 (N = 200-1000).

The other eigensolver is `_shifted_top`, one eigenvalue by Rayleigh
quotient iteration on the tridiagonal LU. Only sequence mode calls it, above
M = 128 on blocks of either path, between the full solves that check it
(`_max_real_sequence`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SizeError, ValidationError
from .levy_driver import EtaSequence
from .loewner_system import (
    CharPolyRecurrence,
    LoewnerMatrices,
    Variant,
    _BOUND_U,
    _charpoly_taylor,
    _dense,
    build_matrices,
    charpoly_eval,
    truncation_order,
)

__all__ = [
    "SpectrumResult",
    "Beta2Report",
    "eigen_spectrum",
    "max_real_root_detailed",
    "MaxRealRoot",
    "descartes_positive_count",
    "beta2",
]

CLUSTER_TOL = 1e-7

# route 2: Newton's step budget, the certificate's relative half-width
# delta, and the agreement an uncertified root needs with the eigenvalue
_NEWTON_MAX_STEPS = 1000
_CERT_REL = 1e-9
_AGREE_REL = 1e-8

# route 1's sequence mode: full solves up to M = _SHIFT_FROM, shifted
# Rayleigh quotient iteration above it, settled within _RQI_STEPS steps at a
# step of 8u on the quotient's scale, and checked on the grid to _CHECK_REL
_SHIFT_FROM = 128
_RQI_STEPS = 8
_CHECK_REL = 1e-11


@dataclass(frozen=True)
class SpectrumResult:
    """Classified eigenvalue set of one B matrix.

    eigenvalues are sorted by (real part descending, imaginary part
    ascending). clusters groups eigenvalues by single linkage: two belong to
    one cluster when a chain of eigenvalues joins them with every step at
    most 2*CLUSTER_TOL, so a cluster may span more than 2*CLUSTER_TOL.
    Each is reported as (mean, multiplicity), the clusters sorted as the
    eigenvalues are by their means, and each mean sums its members in the
    order of eigenvalues. multiplicities[i] is that of eigenvalues[i]'s
    cluster, which is labelled by its first member there (`_cluster`).
    resonant means two cluster centers, real or complex, differ by a nonzero
    integer within tolerance (log terms at xi=1).
    """

    eigenvalues: tuple[complex, ...]
    max_real: float
    n_nonneg_real: int
    clusters: tuple[tuple[complex, int], ...]
    multiplicities: tuple[int, ...]
    resonant: bool
    all_real: bool


def _near_pairs(keys: np.ndarray, w: float):
    """Index arrays (i, j), one per shift of the sorted keys, over every pair
    with keys[i] <= keys[j] <= keys[i] + w."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    for s in range(1, keys.size):
        with np.errstate(over="ignore"):  # an overflowing gap is not near
            near = np.flatnonzero(keys[s:] - keys[:-s] <= w)
        if near.size == 0:
            return
        yield order[near], order[near + s]


def _cluster(eigs, tol: float) -> tuple[list, list[int]]:
    """(mean, multiplicity) per cluster, sorted as eigen_spectrum sorts the
    eigenvalues, and each eigenvalue's multiplicity. Single linkage over the
    pairs within 2*tol (np.hypot, bitwise a Python complex's abs), found
    among those within 2*tol in real part: a chain of such steps merges
    without a bound on the span. Each eigenvalue is labelled by its
    cluster's first index, so a joining pair relabels the later cluster (at
    most N - 1 times). A mean sums its members in index order and divides
    the real and imaginary sums separately; an imaginary part within tol
    reads 0."""
    z = np.asarray(eigs, dtype=complex)
    label = np.arange(z.size)
    for i, j in _near_pairs(z.real, 2 * tol):
        d = z[i] - z[j]
        join = (np.hypot(d.real, d.imag) <= 2 * tol) & (label[i] != label[j])
        for p, q in zip(i[join].tolist(), j[join].tolist()):
            lo, hi = sorted((label[p], label[q]))
            if lo != hi:
                label[label == hi] = lo
    # clusters numbered in first-member order: a first member is its own label
    group = (label == np.arange(z.size)).cumsum()[label] - 1
    size = np.bincount(group)
    mean = np.empty(size.size, dtype=complex)
    mean.real = np.bincount(group, z.real) / size
    mean.imag = np.bincount(group, z.imag) / size
    mean.imag[np.abs(mean.imag) <= tol] = 0.0
    order = np.lexsort((mean.imag, -mean.real))
    return list(zip(mean[order].tolist(), size[order].tolist())), size[group].tolist()


def _resonant(centers: np.ndarray, tol: float) -> bool:
    """True when two centers' difference d has |Im d| <= tol and Re d within
    tol of a nonzero integer. Such a pair has fractional real parts within w
    mod 1 (tol, plus a margin for the rounding of d and of the fractional
    parts), so only pairs that close are tested, those near 0 also past 1.
    A center beyond double range (a cluster whose members sum past it)
    raises NumericalError."""
    if not np.isfinite(centers).all():
        raise NumericalError("a cluster mean of the spectrum leaves double range")
    w = tol + 2.0**-49 * (1.0 + np.abs(centers.real).max())
    frac = np.mod(centers.real, 1.0)
    wrap = np.flatnonzero(frac <= w)
    index = np.concatenate([np.arange(centers.size), wrap])
    for i, j in _near_pairs(np.concatenate([frac, frac[wrap] + 1.0]), w):
        # an overflowing d, and the nan of inf - rint(inf), compare false
        with np.errstate(over="ignore", invalid="ignore"):
            d = centers[index[j]] - centers[index[i]]
            k = np.rint(d.real)
            near = (np.abs(d.imag) <= tol) & (k != 0) & (np.abs(d.real - k) < tol)
        if np.any(near):
            return True
    return False


def _eigenvalues(diag, sub, sup) -> np.ndarray:
    """Unsorted complex eigenvalues of the tridiagonal matrix with these
    bands (sub below the diagonal, sup above).

    The dense path solves T flipped about its anti-diagonal (P T^t P, P
    the index reversal: each band reversed, on its own side), which has
    T's spectrum. B's entries grow with the index, so the flip is graded
    downward, where shifted QR, deflating at the bottom-right, takes fewer
    sweeps and resolves the eigenvalues small next to ||B||, beta(2) among
    them. The plain reversal P T P, which also swaps the off-diagonals, is
    as fast but loses digits on the rest of an ill-conditioned spectrum.

    Only the signs of the products sub*sup choose the path, so a product
    that overflows does so silently; a band of the chosen path that is not
    finite raises NumericalError.
    """
    n = len(diag)
    with np.errstate(over="ignore"):
        prod = sub * sup
    symmetric = np.all(prod > 0)
    bands = (diag, np.sqrt(prod)) if symmetric else (diag[::-1], sub[::-1], sup[::-1])
    if not all(np.isfinite(band).all() for band in bands):
        raise NumericalError(f"N={n}: a band of the eigenproblem is not finite")
    if symmetric:
        import scipy.linalg  # kept off the import path

        return scipy.linalg.eigvalsh_tridiagonal(*bands).astype(complex)
    try:
        return np.linalg.eigvals(_dense(*bands))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver did not converge for N={n}; diag={diag.tolist()} "
            f"sub={sub.tolist()} super={sup.tolist()}"
        ) from exc


def _max_real(eigs: np.ndarray) -> float:
    """Largest real part among the eigenvalues within CLUSTER_TOL of the real
    axis."""
    real = eigs.real[np.abs(eigs.imag) <= CLUSTER_TOL]
    if real.size == 0:
        raise NumericalError("spectrum contains no eigenvalue on the real axis")
    return float(real.max())


def _top_eigenvalue(m: LoewnerMatrices, n: int) -> float:
    """Maximal real eigenvalue of the leading n x n block of B."""
    return _max_real(_eigenvalues(m.b_diag[:n], m.b_sub[: n - 1], m.b_super[: n - 1]))


def _shifted_top(
    m: LoewnerMatrices, n: int, shift: float, x: np.ndarray | None, y: np.ndarray | None
) -> tuple[float | None, np.ndarray | None, np.ndarray | None]:
    """(lambda, x, y): the eigenvalue of the leading n x n block of B nearest
    shift, with unit right and left eigenvectors, by two-sided Rayleigh
    quotient iteration (Ipsen, SIAM Review 1997).

    x and y are block n-1's vectors, padded here with a 0, or None to start
    from ones. Each step factors B - lambda once with LAPACK's tridiagonal
    LU, solves with it on both sides, and moves lambda to y'Bx / y'x. The
    iteration has settled when lambda moves by at most 8u |y|'|B||x| / |y'x|,
    the scale on which the quotient rounds; that is 8u |lambda| where its
    sum does not cancel. B need not be symmetrizable.

    All three are None when n < 3 (scipy's dgttrf wrapper refuses a 2 x 2
    band; sequence mode shifts only above M = 128), when dgttrf reports a
    zero pivot, when lambda does not settle within _RQI_STEPS steps, or when
    the quotient or its scale is not finite: the one test for leaving double
    range, since a zero or non-finite solve, a y'x of 0, an overflowing
    |B||x| and an overflowing diag - lambda each make one of them so.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs  # kept off the import path

    if n < 3:
        return None, None, None
    sub, diag, sup = m.b_sub[: n - 1], m.b_diag[:n], m.b_super[: n - 1]
    x = np.ones(n) if x is None else np.append(x, 0.0)
    y = np.ones(n) if y is None else np.append(y, 0.0)
    lam = shift
    with np.errstate(all="ignore"):
        for _ in range(_RQI_STEPS):
            *lu, info = dgttrf(sub, diag - lam, sup)
            if info != 0:
                break
            x, y = dgttrs(*lu, x)[0], dgttrs(*lu, y, trans="T")[0]
            x, y = x / math.sqrt(float(x @ x)), y / math.sqrt(float(y @ y))
            # a y'x of 0 divides to inf or nan in numpy, which the test below
            # catches (a Python float would raise ZeroDivisionError)
            yx = y @ x
            # the terms of Bx, row by row: diagonal, sub- and superdiagonal
            terms = np.zeros((3, n))
            terms[0] = diag * x
            terms[1, 1:] = sub * x[:-1]
            terms[2, :-1] = sup * x[1:]
            new = float(y @ terms.sum(axis=0) / yx)
            # y'Bx rounds on the scale of |y|'|B||x|, which bounds |new y'x|
            scale = float(np.abs(y) @ np.abs(terms).sum(axis=0) / abs(yx))
            if not (math.isfinite(new) and math.isfinite(scale)):
                break
            if abs(new - lam) <= _BOUND_U * scale:
                return new, x, y
            lam = new
    return None, None, None


def _max_real_sequence(
    eta: EtaSequence, variant: Variant, m_max: int
) -> list[tuple[int, float]]:
    """(M, maximal real eigenvalue of B) for M = 2..m_max.

    Each band entry depends only on its own index, so the leading blocks of
    the m_max system are the M-dimensional systems bitwise. M = m_max is
    solved first: a size beyond the dense limit fails before any other solve.

    The value at M is eigen_spectrum's max_real for that system, bitwise, at
    every M <= _SHIFT_FROM, at the powers of two above _SHIFT_FROM and at
    m_max. Each other M above _SHIFT_FROM gets `_shifted_top` from the
    value at M-1 and M-1's eigenvectors, whichever path `_eigenvalues`
    would take for its block, or a full solve if that does not settle. On
    the grid of powers of two and m_max both are solved, and when they
    differ by more than _CHECK_REL every M gets a full solve. Between grid
    points a value is the eigenvalue nearest the shift, which is not proven
    to be the top one.
    """
    m = build_matrices(eta, m_max, variant)
    last = _top_eigenvalue(m, m_max)

    def full(k: int) -> float:
        return last if k == m_max else _top_eigenvalue(m, k)

    seq: list[tuple[int, float]] = []
    x = y = None
    for k in range(2, m_max + 1):
        top = None
        if k > _SHIFT_FROM:
            top, x, y = _shifted_top(m, k, seq[-1][1], x, y)
        if top is None or k == m_max or k & (k - 1) == 0:
            value = full(k)
            if top is not None and abs(top - value) > _CHECK_REL * max(1.0, abs(value)):
                return [(j, full(j)) for j in range(2, m_max + 1)]
            top = value
        seq.append((k, top))
    return seq


def eigen_spectrum(m: LoewnerMatrices) -> SpectrumResult:
    """All eigenvalues of B with deterministic ordering and classification."""
    if m.n < 1:
        raise SizeError("eigen_spectrum needs dimension >= 1")
    eigs = _eigenvalues(m.b_diag, m.b_sub, m.b_super)
    max_real = _max_real(eigs)
    eigs = eigs[np.lexsort((eigs.imag, -eigs.real))].astype(complex)
    clusters, mults = _cluster(eigs, CLUSTER_TOL)
    on_axis = np.abs(eigs.imag) <= CLUSTER_TOL
    return SpectrumResult(
        eigenvalues=tuple(eigs.tolist()),
        max_real=max_real,
        n_nonneg_real=int(np.count_nonzero(on_axis & (eigs.real >= -CLUSTER_TOL))),
        clusters=tuple(clusters),
        multiplicities=tuple(mults),
        resonant=_resonant(np.array([c for c, _ in clusters]), CLUSTER_TOL),
        all_real=bool(on_axis.all()),
    )


@dataclass(frozen=True)
class MaxRealRoot:
    value: float
    used_fallback: bool


def _gershgorin_upper(rec: CharPolyRecurrence) -> float:
    """Upper bound on the real part of every root of P_N and of every
    trailing determinant: the Gershgorin bound of H, the symmetric part of
    the balanced matrix with charpoly P_N (off-diagonals sign(a_n) sqrt|a_n|
    below, sqrt|a_n| above). H's off-diagonals are s_n = sqrt(max(a_n, 0)),
    so row k's radius is s_k + s_(k+1), with s_0 = s_N = 0. By Bendixson's
    theorem no eigenvalue of a real matrix has real part above the top
    eigenvalue of its symmetric part. A trailing block's symmetric part is
    H's trailing block, whose top eigenvalue is at most H's by Cauchy
    interlacing. Where most a_n < 0 the bound lies next to the top root.
    """
    s = np.sqrt(np.maximum(np.array([0.0, *rec.a, 0.0]), 0.0))
    return float(np.max(np.array(rec.b) + (s[:-1] + s[1:])))


def _eig_fallback(rec: CharPolyRecurrence) -> float:
    # balanced bands sub = sign(a_n) sqrt|a_n|, super = sqrt|a_n| share the
    # charpoly (same products); with sub = a_n and super = 1 the matrix is
    # so badly scaled that eigvals loses the spectrum once |a_n| ~ 1e3.
    # The dense path flips these bands as it does B's (`_eigenvalues`)
    a = np.array(rec.a)
    root = np.sqrt(np.abs(a))
    return _max_real(_eigenvalues(np.array(rec.b), np.sign(a) * root, root))


def _newton_from_above(rec: CharPolyRecurrence, hi: float) -> float:
    """Newton's method on P_N from just above hi, an upper bound on the real
    parts of its roots (`_gershgorin_upper`), until |step| stops shrinking
    or falls to a few ulps. Each step is one charpoly_eval pass, which gives
    P_N and P_N' together. The closer hi lies to the top root, the fewer the
    steps: 7-10 on the Brownian families at N = 128-400.

    Steps are doubled until P_N turns negative or the step stops shrinking:
    when every root is real, a double step from above the top root never
    passes the top root of P_N', so it can overshoot only the top root of
    P_N, and single steps then return to it (Stoer and Bulirsch, sec. 5.5).
    """
    x = hi + _CERT_REL * max(1.0, abs(hi))
    factor = 2.0
    last = math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp, _ = charpoly_eval(rec, x)
        if dp == 0.0:
            break
        if factor == 2.0 and (p < 0.0 or not abs(2.0 * p / dp) < last):
            factor, last = 1.0, math.inf
        step = factor * p / dp
        if not abs(step) < last:
            break
        x -= step
        last = abs(step)
        if last <= 4.0 * math.ulp(x):
            break
    return x


def _certified_top_root(rec: CharPolyRecurrence, x: float) -> bool:
    """True when the top real root of P_N lies within 2 delta of x,
    delta = 1e-9 max(1, |x|); False means only that the check is
    inconclusive.

    Every Taylor coefficient of P_N at c = x + delta must be positive by more
    than its rounding bound: then Descartes' rule on P_N(c + t) finds no sign
    change, so no real root lies above c (Budan-Fourier). Complex roots with
    real part below c only add positive coefficients, so the check serves
    both regimes of the a_n. P_N(c - 2 delta), summed from the same
    coefficients with the same bounds, must be negative: a root lies in
    between. The rounding bound is first order and never infinite
    (`_charpoly_taylor`): where a trailing determinant of the recurrence has
    a negative Taylor coefficient at c, it runs on the absolute values of
    the recurrence's coefficients, and is looser. A scale near
    |P_N(c)|^(1/N) puts the monic t_N level with t_0 = P_N(c).
    """
    if not math.isfinite(x):
        return False
    h = 2.0 * _CERT_REL * max(1.0, abs(x))
    c = x + 0.5 * h
    p, _, e = charpoly_eval(rec, c)
    if not 0.0 < p < math.inf:  # t_0 = P_N(c) must be positive and finite
        return False
    scale = math.ldexp(1.0, round((math.log2(p) + e) / rec.n))
    t, err, _ = _charpoly_taylor(rec, c, scale)
    if not np.all(t > err):
        return False
    # P_N(c - h) from the same coefficients; the factor 2 covers the
    # rounding of the powers
    powers = (-h / scale) ** np.arange(rec.n + 1)
    below = float(t @ powers)
    slack = float(err @ np.abs(powers))
    slack += (rec.n + 1) * 2.0**-53 * float(np.abs(t) @ np.abs(powers))
    return below < -2.0 * slack


def max_real_root_detailed(rec: CharPolyRecurrence) -> MaxRealRoot:
    """Maximal real root of P_N, certified, with a flag for the eigenvalue
    fallback.

    Newton's method on P_N, with P_N' from the same recurrence pass, starts
    just above the Gershgorin upper bound, and the root it finds is then
    certified as the top one (`_certified_top_root`). used_fallback=False
    means the value is certified. used_fallback=True means the certificate
    was inconclusive (an even-multiplicity top root, for one) and the value
    was checked against the eigenvalue route: Newton's root when the two
    agree to 1e-8 and P_N is finite there, the eigenvalue otherwise (Newton
    never leaves a start where P_N overflows).
    """
    if rec.n == 0:
        raise SizeError("P_0 = 1 has no roots")
    x = _newton_from_above(rec, _gershgorin_upper(rec))
    if _certified_top_root(rec, x):
        return MaxRealRoot(value=x, used_fallback=False)
    eig = _eig_fallback(rec)
    agree = abs(x - eig) <= _AGREE_REL * max(1.0, abs(eig))
    agree = agree and math.isfinite(charpoly_eval(rec, x)[0])
    return MaxRealRoot(value=x if agree else eig, used_fallback=True)


def descartes_positive_count(coeffs) -> int:
    """Sign changes in the coefficient sequence, zeros skipped.

    Expects a monic polynomial given in ascending order (leading coefficient,
    the last nonzero entry, equal to 1).
    """
    nz = [c for c in coeffs if c != 0]
    if not nz or nz[-1] != 1:
        raise ValidationError("descartes_positive_count expects a monic polynomial")
    return sum((prev > 0) != (cur > 0) for prev, cur in zip(nz, nz[1:]))


@dataclass(frozen=True)
class Beta2Report:
    """beta(2) for one eta sequence.

    mode 'truncated' uses the exact N-dimensional system at the truncation
    order; mode 'sequence' reports the maximal real eigenvalue beta_max(M)
    for M = 2..m_max and its successive gaps. There beta2 is the full solve
    at m_max, and convergence_gap can read its rounding (about 2e-14).
    """

    variant: Variant
    mode: str
    n: int | None
    sequence: tuple[tuple[int, float], ...] | None
    beta2: float
    converged: bool
    convergence_gap: float


def _beta2_mode(eta: EtaSequence, variant: Variant, m_max: int) -> tuple[str, int]:
    """("truncated", N) when the system closes at an order N <= m_max, else
    ("sequence", m_max); beta(2) is the top eigenvalue of B at that N."""
    if m_max < 2:
        raise SizeError(f"m_max must be >= 2, got {m_max}")
    n_tr = truncation_order(eta, variant)
    if n_tr is not None and n_tr <= m_max:
        # exact mode needs eta only up to the truncation order, so a short
        # formal sequence that closes is accepted regardless of m_max
        return "truncated", n_tr
    if eta.n_max < m_max:
        raise SizeError(f"eta covers n_max={eta.n_max}, need m_max={m_max}")
    return "sequence", m_max


def beta2(eta: EtaSequence, variant: Variant, m_max: int) -> Beta2Report:
    """beta(2) via truncation when available, else the convergence sequence."""
    mode, n = _beta2_mode(eta, variant, m_max)
    if mode == "truncated":
        seq, top, gap = None, _top_eigenvalue(build_matrices(eta, n, variant), n), 0.0
    else:
        seq = tuple(_max_real_sequence(eta, variant, m_max))
        n, top = None, seq[-1][1]
        gap = abs(top - seq[-2][1]) if len(seq) > 1 else math.inf
    return Beta2Report(
        variant=variant,
        mode=mode,
        n=n,
        sequence=seq,
        beta2=top,
        converged=gap < 1e-9,
        convergence_gap=gap,
    )
