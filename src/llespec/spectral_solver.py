"""Eigenvalue spectra of the B matrices, their classification, and the
maximal real eigenvalue beta(2) by two of the three routes (eigensolver and
characteristic-polynomial root scan).

Solver choice (`_eigenvalues`, the package's only eigensolver call): when
every off-diagonal product a_n is positive, B is diagonally similar to the
symmetric tridiagonal matrix with off-diagonals sqrt(a_n) and an
implicit-shift symmetric solver applies (real output guaranteed). Otherwise
B, already Hessenberg, goes through a real double-shift QR reduction of the
dense matrix, for N up to DENSE_EIGEN_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, NumericalError, SizeError, ValidationError
from .levy_driver import EtaSequence
from .loewner_system import (
    CharPolyRecurrence,
    LoewnerMatrices,
    Variant,
    build_matrices,
    charpoly_eval,
    truncation_order,
)

__all__ = [
    "SpectrumResult",
    "Beta2Report",
    "CLUSTER_TOL",
    "eigen_spectrum",
    "max_real_root",
    "max_real_root_detailed",
    "MaxRealRoot",
    "descartes_positive_count",
    "classify_regime",
    "beta2",
]

CLUSTER_TOL = 1e-7

DENSE_EIGEN_LIMIT = 1 << 12

_SCAN_POINTS = 2048
_BISECT_REL = 1e-12


@dataclass(frozen=True)
class SpectrumResult:
    """Classified eigenvalue set of one B matrix.

    eigenvalues are sorted by (real part descending, imaginary part
    ascending). clusters groups eigenvalues by single linkage: two belong to
    one cluster when a chain of eigenvalues joins them with every step at
    most 2*cluster_tol, so a cluster may span more than 2*cluster_tol.
    Each is reported as (mean, multiplicity). resonant means two cluster
    centers on the real axis differ by a nonzero integer within tolerance.
    """

    eigenvalues: tuple[complex, ...]
    max_real: float
    n_nonneg_real: int
    clusters: tuple[tuple[complex, int], ...]
    resonant: bool
    all_real: bool


def _cluster(eigs: list[complex], tol: float) -> list[tuple[complex, int]]:
    # single-linkage union-find: join every pair within 2*tol; a chain of
    # such steps merges without a bound on the cluster's span
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= 2 * tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(eigs[i])
    out = []
    for members in groups.values():
        mean = sum(members) / len(members)
        if abs(mean.imag) <= tol:
            mean = complex(mean.real, 0.0)
        out.append((mean, len(members)))
    out.sort(key=lambda c: (-c[0].real, c[0].imag))
    return out


def _eigenvalues(diag, sub, sup) -> np.ndarray:
    """Unsorted complex eigenvalues of the tridiagonal matrix with these
    bands (sub below the diagonal, sup above)."""
    n = len(diag)
    if n == 1:
        return np.array([diag[0] + 0.0j])
    prod = sub * sup
    if np.all(prod > 0):
        return scipy.linalg.eigvalsh_tridiagonal(diag, np.sqrt(prod)).astype(complex)
    if n > DENSE_EIGEN_LIMIT:
        raise CapacityError(
            f"dense eigensolver limited to N <= {DENSE_EIGEN_LIMIT}, got N={n}"
        )
    m = np.diag(diag)
    m += np.diag(sup, 1) + np.diag(sub, -1)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver did not converge for N={n}; diag={diag.tolist()} "
            f"sub={sub.tolist()} super={sup.tolist()}"
        ) from exc


def _max_real(eigs: np.ndarray, tol: float = CLUSTER_TOL) -> float:
    """Largest real part among the eigenvalues within tol of the real axis."""
    real = eigs.real[np.abs(eigs.imag) <= tol]
    if real.size == 0:
        raise NumericalError("spectrum contains no eigenvalue on the real axis")
    return float(real.max())


def _top_eigenvalue(m: LoewnerMatrices, n: int) -> float:
    """Maximal real eigenvalue of the leading n x n block of B."""
    return _max_real(_eigenvalues(m.b_diag[:n], m.b_sub[: n - 1], m.b_super[: n - 1]))


def _max_real_sequence(
    eta: EtaSequence, variant: Variant, m_max: int
) -> list[tuple[int, float]]:
    """(M, maximal real eigenvalue of B) for M = 2..m_max.

    Each band entry depends only on its own index, so the leading blocks of
    the m_max system are the M-dimensional systems bitwise. M = m_max is
    solved first: a size beyond the dense limit fails before any other solve.
    """
    m = build_matrices(eta, m_max, variant)
    last = _top_eigenvalue(m, m_max)
    return [(k, _top_eigenvalue(m, k)) for k in range(2, m_max)] + [(m_max, last)]


def eigen_spectrum(
    m: LoewnerMatrices, cluster_tol: float = CLUSTER_TOL
) -> SpectrumResult:
    """All eigenvalues of B with deterministic ordering and classification."""
    if m.n < 1:
        raise SizeError("eigen_spectrum needs dimension >= 1")
    eigs = _eigenvalues(m.b_diag, m.b_sub, m.b_super)
    max_real = _max_real(eigs, cluster_tol)
    order = sorted(range(len(eigs)), key=lambda i: (-eigs[i].real, eigs[i].imag))
    eigs = [complex(eigs[i]) for i in order]
    clusters = _cluster(eigs, cluster_tol)
    centers = [c for c, _ in clusters]
    resonant = False
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d = centers[i] - centers[j]
            k = round(d.real)
            if abs(d.imag) <= cluster_tol and k != 0 and abs(d.real - k) < cluster_tol:
                resonant = True
    return SpectrumResult(
        eigenvalues=tuple(eigs),
        max_real=max_real,
        n_nonneg_real=sum(
            1
            for z in eigs
            if abs(z.imag) <= cluster_tol and z.real >= -cluster_tol
        ),
        clusters=tuple(clusters),
        resonant=resonant,
        all_real=all(abs(z.imag) <= cluster_tol for z in eigs),
    )


@dataclass(frozen=True)
class MaxRealRoot:
    value: float
    used_fallback: bool


def _gershgorin_bounds(rec: CharPolyRecurrence) -> tuple[float, float]:
    # bounds via the modulus-symmetrized tridiagonal matrix with the same
    # characteristic polynomial (off-diagonals sqrt|a_n|)
    n = rec.n
    r = [0.0] * n
    for k, a_k in enumerate(rec.a, start=1):
        s = math.sqrt(abs(a_k))
        r[k - 1] += s
        r[k] += s
    hi = max(b + rr for b, rr in zip(rec.b, r))
    lo = min(b - rr for b, rr in zip(rec.b, r))
    return lo, hi


def _eig_fallback(rec: CharPolyRecurrence) -> float:
    # synthesized tridiagonal with sub = a_n, super = 1 shares the charpoly
    return _max_real(
        _eigenvalues(np.array(rec.b), np.array(rec.a), np.ones(rec.n - 1))
    )


def max_real_root_detailed(rec: CharPolyRecurrence) -> MaxRealRoot:
    """Maximal real root of P_N with a flag for the eigenvalue fallback.

    Descending scan from the Gershgorin upper bound with sign-change
    bracketing, then bisection to 1e-12 relative. A polynomial that never
    changes sign on the scan (even-multiplicity top root) falls back to the
    eigenvalue route.
    """
    if rec.n == 0:
        raise SizeError("P_0 = 1 has no roots")
    if rec.n == 1:
        return MaxRealRoot(value=rec.b[0], used_fallback=False)
    lo, hi = _gershgorin_bounds(rec)
    pad = 1e-6 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad
    xs = np.linspace(hi, lo, _SCAN_POINTS)
    s_prev = charpoly_eval(rec, float(xs[0])).sign
    if s_prev == 0:
        return MaxRealRoot(value=float(xs[0]), used_fallback=False)
    x_prev = float(xs[0])
    bracket = None
    for x in xs[1:]:
        x = float(x)
        s = charpoly_eval(rec, x).sign
        if s == 0:
            return MaxRealRoot(value=x, used_fallback=False)
        if s != s_prev:
            bracket = (x, x_prev, s)
            break
        x_prev = x
    if bracket is None:
        return MaxRealRoot(value=_eig_fallback(rec), used_fallback=True)
    lo_b, hi_b, s_lo = bracket
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if hi_b - lo_b <= _BISECT_REL * max(1.0, abs(mid)):
            break
        s_mid = charpoly_eval(rec, mid).sign
        if s_mid == 0:
            return MaxRealRoot(value=mid, used_fallback=False)
        if s_mid == s_lo:
            lo_b = mid
        else:
            hi_b = mid
    return MaxRealRoot(value=0.5 * (lo_b + hi_b), used_fallback=False)


def max_real_root(rec: CharPolyRecurrence) -> float:
    return max_real_root_detailed(rec).value


def descartes_positive_count(coeffs) -> int:
    """Sign changes in the coefficient sequence, zeros skipped.

    Expects a monic polynomial given in ascending order (leading coefficient,
    the last nonzero entry, equal to 1).
    """
    nz = [c for c in coeffs if c != 0]
    if not nz or nz[-1] != 1:
        raise ValidationError("descartes_positive_count expects a monic polynomial")
    changes = 0
    for prev, cur in zip(nz, nz[1:]):
        if (prev > 0) != (cur > 0):
            changes += 1
    return changes


def classify_regime(rec: CharPolyRecurrence) -> bool:
    """True iff every a_n is positive (orthogonal regime: the recurrence has
    a nonnegative orthogonality measure and the spectrum is real)."""
    return all(a > 0 for a in rec.a)


@dataclass(frozen=True)
class Beta2Report:
    """beta(2) for one eta sequence.

    mode 'truncated' uses the exact N-dimensional system at the truncation
    order; mode 'sequence' reports the maximal real eigenvalue beta_max(M)
    for M = 2..m_max and its successive gaps.
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
