"""Eigenvalue spectra of the B matrices, their classification, and the
maximal real eigenvalue beta(2) by two of the three routes (eigensolver and
certified top root of the characteristic polynomial).

Route 2 (`max_real_root_detailed`): Newton's method on P_N from above the
Gershgorin bound, then a certificate that the root is the top one (no sign
change among the Taylor coefficients of P_N just above it, scaled by
|P_N|^(1/N), each beyond its rounding bound, and a sign change of P_N just
below it). Only when the certificate is inconclusive does the eigensolver
take part, and the result then says so (used_fallback=True).

Solver choice (`_eigenvalues`, the package's only eigensolver call): when
every off-diagonal product a_n is positive, B is diagonally similar to the
symmetric tridiagonal matrix with off-diagonals sqrt(a_n) and an
implicit-shift symmetric solver applies (real output guaranteed). Otherwise
B, already Hessenberg, goes through a real double-shift QR reduction of the
dense matrix, for N up to loewner_system.DENSE_LIMIT.
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


@dataclass(frozen=True)
class SpectrumResult:
    """Classified eigenvalue set of one B matrix.

    eigenvalues are sorted by (real part descending, imaginary part
    ascending). clusters groups eigenvalues by single linkage: two belong to
    one cluster when a chain of eigenvalues joins them with every step at
    most 2*CLUSTER_TOL, so a cluster may span more than 2*CLUSTER_TOL.
    Each is reported as (mean, multiplicity); multiplicities[i] is that of
    eigenvalues[i]'s cluster. resonant means two cluster centers, real or
    complex, differ by a nonzero integer within tolerance (log terms at xi=1).
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
        near = np.flatnonzero(keys[s:] - keys[:-s] <= w)
        if near.size == 0:
            return
        yield order[near], order[near + s]


def _cluster(eigs: list[complex], tol: float) -> tuple[list, list[int]]:
    # (mean, multiplicity) per cluster and each eigenvalue's multiplicity by
    # single-linkage union-find over the pairs within 2*tol, so a chain of
    # such steps merges without a bound on the cluster's span. Those pairs
    # are within 2*tol in real part, where _near_pairs looks.
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for near_i, near_j in _near_pairs(np.asarray(eigs, dtype=complex).real, 2 * tol):
        for i, j in zip(near_i.tolist(), near_j.tolist()):
            if abs(eigs[i] - eigs[j]) <= 2 * tol:
                parent[find(j)] = find(i)
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
    return out, [len(groups[find(i)]) for i in range(n)]


def _resonant(centers: np.ndarray, tol: float) -> bool:
    """True when two centers' difference d has |Im d| <= tol and Re d within
    tol of a nonzero integer. Such a pair has fractional real parts within w
    mod 1 (tol, plus a margin for the rounding of d and of the fractional
    parts), so only pairs that close are tested, those near 0 also past 1."""
    w = tol + 2.0**-49 * (1.0 + np.abs(centers.real).max())
    frac = np.mod(centers.real, 1.0)
    wrap = np.flatnonzero(frac <= w)
    index = np.concatenate([np.arange(centers.size), wrap])
    for i, j in _near_pairs(np.concatenate([frac, frac[wrap] + 1.0]), w):
        d = centers[index[j]] - centers[index[i]]
        k = np.rint(d.real)
        if np.any((np.abs(d.imag) <= tol) & (k != 0) & (np.abs(d.real - k) < tol)):
            return True
    return False


def _eigenvalues(diag, sub, sup) -> np.ndarray:
    """Unsorted complex eigenvalues of the tridiagonal matrix with these
    bands (sub below the diagonal, sup above)."""
    n = len(diag)
    if n == 1:
        return np.array([diag[0] + 0.0j])
    prod = sub * sup
    if np.all(prod > 0):
        import scipy.linalg  # the one user in the package; kept off the import path

        return scipy.linalg.eigvalsh_tridiagonal(diag, np.sqrt(prod)).astype(complex)
    try:
        return np.linalg.eigvals(_dense(diag, sub, sup))
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


def eigen_spectrum(m: LoewnerMatrices) -> SpectrumResult:
    """All eigenvalues of B with deterministic ordering and classification."""
    if m.n < 1:
        raise SizeError("eigen_spectrum needs dimension >= 1")
    eigs = _eigenvalues(m.b_diag, m.b_sub, m.b_super)
    max_real = _max_real(eigs)
    eigs = eigs[np.lexsort((eigs.imag, -eigs.real))].astype(complex)
    clusters, mults = _cluster(eigs.tolist(), CLUSTER_TOL)
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
    # upper bound via the modulus-symmetrized tridiagonal matrix with the
    # same characteristic polynomial (off-diagonals sqrt|a_n|)
    r = [0.0] * rec.n
    for k, a_k in enumerate(rec.a, start=1):
        s = math.sqrt(abs(a_k))
        r[k - 1] += s
        r[k] += s
    return max(b + rr for b, rr in zip(rec.b, r))


def _eig_fallback(rec: CharPolyRecurrence) -> float:
    # balanced bands sub = sign(a_n) sqrt|a_n|, super = sqrt|a_n| share the
    # charpoly (same products); with sub = a_n and super = 1 the matrix is
    # so badly scaled that eigvals loses the spectrum once |a_n| ~ 1e3
    a = np.array(rec.a)
    root = np.sqrt(np.abs(a))
    return _max_real(_eigenvalues(np.array(rec.b), np.sign(a) * root, root))


def _newton_from_above(rec: CharPolyRecurrence, hi: float) -> float:
    """Newton's method on P_N from just above hi, an upper bound on its real
    roots, until |step| stops shrinking or falls to a few ulps. Each step is
    one charpoly_eval pass, which gives P_N and P_N' together.

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
    between. The rounding bound is first order and holds where the trailing
    determinants of the recurrence have no negative Taylor coefficient at c
    (`_charpoly_taylor`); elsewhere it is infinite and the check fails. A
    scale near |P_N(c)|^(1/N) puts the monic t_N level with t_0 = P_N(c).
    """
    if not math.isfinite(x):
        return False
    h = 2.0 * _CERT_REL * max(1.0, abs(x))
    c = x + 0.5 * h
    p, _, log_scale = charpoly_eval(rec, c)
    if not p > 0.0:  # t_0 = P_N(c) must be positive
        return False
    scale = math.ldexp(1.0, round((math.log(p) + log_scale) / (rec.n * math.log(2.0))))
    t, err = _charpoly_taylor(rec, c, scale)
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
    agree to 1e-8, the eigenvalue otherwise.
    """
    if rec.n == 0:
        raise SizeError("P_0 = 1 has no roots")
    if rec.n == 1:
        return MaxRealRoot(value=rec.b[0], used_fallback=False)
    x = _newton_from_above(rec, _gershgorin_upper(rec))
    if _certified_top_root(rec, x):
        return MaxRealRoot(value=x, used_fallback=False)
    eig = _eig_fallback(rec)
    agree = abs(x - eig) <= _AGREE_REL * max(1.0, abs(eig))
    return MaxRealRoot(value=x if agree else eig, used_fallback=True)


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
