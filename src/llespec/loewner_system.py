"""Residue matrices of the Fuchsian system and the characteristic-polynomial
recurrence, for both variants of the evolution.

Matrices are stored as bands; `_dense` writes them into one dense matrix
(N <= DENSE_LIMIT) for the non-symmetric eigensolver path, route 3's
Magnus steps and tests. The first row of each matrix follows the displayed
form verbatim: its off-diagonal entry differs from the generic band formula
by a factor of 2, absorbed by folding the negative mode
(theta_{-1} = xi^{+/-1} theta_1).

The recurrence runs at a point in `charpoly_eval` and on coefficient vectors
only in `_charpoly_taylor`, which `charpoly_coefficients` takes at 0. Both
rescale by one rule, `_rescale_exponent`, by exact powers of two 2^-e, and
return the int sum of the e: P_N = p 2^e.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    NumericalError,
    SizeError,
    TruncationNearMissWarning,
    ValidationError,
)
from .levy_driver import EtaSequence, _as_tuple, _number

__all__ = [
    "Variant",
    "LoewnerMatrices",
    "CharPolyRecurrence",
    "build_matrices",
    "recurrence_coefficients",
    "charpoly_eval",
    "charpoly_coefficients",
    "truncation_order",
]

# lazy rescaling thresholds for the charpoly recurrence pair
_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150
# the first-order rounding bound of a three-term sum per unit of its terms'
# magnitudes, 8u: the Taylor pass's bound, and route 1's settling step
_BOUND_U = 8 * 2.0**-53

COEFFICIENT_LIMIT = 512

DENSE_LIMIT = 1 << 12


class Variant(enum.Enum):
    """Growth convention: from the origin outward or from infinity inward."""

    UNBOUNDED = "unbounded"
    BOUNDED = "bounded"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValidationError(
                f"variant must be 'unbounded' or 'bounded', got {name!r}"
            ) from None


@dataclass(frozen=True)
class LoewnerMatrices:
    """Bands of the residue matrices A (bidiagonal) and B (tridiagonal).

    A is lower bidiagonal for UNBOUNDED and upper bidiagonal for BOUNDED, and
    its off-diagonal is B's band on the same side (the same expression of
    eta), so it is stored once, in B: a_off reads b_sub (UNBOUNDED) or
    b_super (BOUNDED). Band lengths: diagonals N, off-diagonals N-1; N is
    read off B's diagonal.
    """

    variant: Variant
    a_diag: np.ndarray
    b_sub: np.ndarray
    b_diag: np.ndarray
    b_super: np.ndarray

    @property
    def n(self) -> int:
        return len(self.b_diag)

    @property
    def a_off(self) -> np.ndarray:
        return self.b_super if self.variant is Variant.BOUNDED else self.b_sub

    def b_dense(self) -> np.ndarray:
        return _dense(self.b_diag, self.b_sub, self.b_super)

    def a_dense(self) -> np.ndarray:
        if self.variant is Variant.BOUNDED:
            return _dense(self.a_diag, sup=self.a_off)
        return _dense(self.a_diag, sub=self.a_off)


def _check_dense(n: int) -> None:
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense matrices limited to N <= {DENSE_LIMIT}, got N={n}")


def _dense(diag, sub=(), sup=()) -> np.ndarray:
    """The N x N matrix with these bands, in one allocation: each band is
    written through a strided view of the flat matrix. Adding 0.0 turns a
    band's -0.0 into +0.0, so every entry is bitwise what a sum of np.diag
    matrices gives. N above DENSE_LIMIT raises CapacityError before any
    allocation."""
    n = len(diag)
    _check_dense(n)
    m = np.zeros((n, n))
    flat = m.reshape(-1)
    np.add(diag, 0.0, out=flat[:: n + 1])
    if len(sub):
        np.add(sub, 0.0, out=flat[n :: n + 1])
    if len(sup):
        np.add(sup, 0.0, out=flat[1 :: n + 1])
    return m


def build_matrices(eta: EtaSequence, n: int, variant: Variant) -> LoewnerMatrices:
    """Assemble the A and B bands of the N-dimensional system.

    eta must cover indices 1..n-1; index n itself is not needed.
    """
    if n < 1:
        raise SizeError(f"matrix dimension must be >= 1, got {n}")
    if eta.n_max < n - 1:
        raise SizeError(f"eta covers n_max={eta.n_max}, need {n - 1} for dimension {n}")
    e = np.zeros(n)  # eta_0 = 0
    e[1:] = eta.values[: n - 1]
    i = np.arange(n, dtype=float)
    if variant is Variant.UNBOUNDED:
        b_diag = 3.0 - e
        # first-row entry -2 verbatim; generic (e+i-2)/2 from i >= 1
        b_super = (e[:-1] + i[:-1] - 2) / 2
        b_super[:1] = -2.0
        b_sub = (e[1:] - i[1:] - 2) / 2
        a_diag = -(e + i) / 2
    else:
        b_diag = -e - 1.0
        # first-row entry 2 verbatim; generic (e+i+2)/2 from i >= 1
        b_super = (e[:-1] + i[:-1] + 2) / 2
        b_super[:1] = 2.0
        b_sub = (e[1:] + 2 - i[1:]) / 2
        a_diag = -(e + 2 - i) / 2
    return LoewnerMatrices(
        variant=variant,
        a_diag=a_diag,
        b_sub=b_sub,
        b_diag=b_diag,
        b_super=b_super,
    )


@dataclass(frozen=True)
class CharPolyRecurrence:
    """Coefficients of P_{n+1} = (beta - b_n) P_n - a_n P_{n-1}.

    a covers a_1..a_{N-1}, b covers b_0..b_{N-1}; N = len(b). N = 0 (both
    empty) is allowed and makes P_N identically 1. Entries are finite
    numbers, not bools, stored as tuples of floats.
    """

    variant: Variant
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        a = tuple([_number(v, "a_n") for v in _as_tuple(self.a, "a")])
        b = tuple([_number(v, "b_n") for v in _as_tuple(self.b, "b")])
        if not all(map(math.isfinite, a + b)):
            raise ValidationError("every a_n and b_n of a recurrence must be finite")
        if b and len(a) != len(b) - 1:
            raise SizeError(f"need len(a) = len(b) - 1, got {len(a)} and {len(b)}")
        if not b and a:
            raise SizeError("a must be empty when b is empty")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.b)


def recurrence_coefficients(
    eta: EtaSequence, n: int, variant: Variant
) -> CharPolyRecurrence:
    """Recurrence coefficients for the degree-n characteristic polynomial.

    a_k is the product of B's sub and super entries across the k-th
    off-diagonal position, evaluated on the same expressions as
    build_matrices so the identity holds bitwise. A product that leaves
    double range raises NumericalError.
    """
    if n < 0:
        raise SizeError(f"degree must be >= 0, got {n}")
    if n == 0:
        return CharPolyRecurrence(variant=variant, a=(), b=())
    m = build_matrices(eta, n, variant)
    with np.errstate(over="ignore"):
        a = (m.b_sub * m.b_super).tolist()
    if not all(map(math.isfinite, a)):
        raise NumericalError(f"degree {n}: a product a_k leaves double range")
    return CharPolyRecurrence(variant=variant, a=tuple(a), b=tuple(m.b_diag.tolist()))


def _rescale_exponent(m: float) -> int:
    """frexp's exponent e of m, the largest magnitude of a recurrence's
    running values, once m has left [1e-150, 1e150], else 0 (an exact zero
    too); e >= -1023 keeps 2^-e a double. Multiplying by 2^-e is exact."""
    if m > _RESCALE_HI or 0.0 < m < _RESCALE_LO:
        return max(math.frexp(m)[1], -1023)
    return 0


def charpoly_eval(rec: CharPolyRecurrence, x) -> tuple:
    """(p, dp, e) from one forward pass at x (real or complex), with
    P_N(x) = p 2^e and P_N'(x) = dp 2^e for an int e; p / dp is the Newton
    step. The rescalings are exact (`_rescale_exponent`), so ldexp(p, e) is
    bitwise the unscaled pass wherever that pass stays in range.

    P_{k+1}' = (x - b_k) P_k' + P_k - a_k P_{k-1}', differentiated from the
    recurrence itself.
    """
    p_prev, p_cur, d_prev, d_cur = 0.0, 1.0, 0.0, 0.0
    exponent = 0
    for a_k, b_k in zip((0.0,) + rec.a, rec.b):
        t = x - b_k
        p_prev, p_cur, d_prev, d_cur = (
            p_cur,
            t * p_cur - a_k * p_prev,
            d_cur,
            t * d_cur + p_cur - a_k * d_prev,
        )
        # cheap test on the new pair first; the older pair decides the scale
        if not _RESCALE_LO <= abs(p_cur) + abs(d_cur) <= _RESCALE_HI:
            e = _rescale_exponent(max(abs(p_prev), abs(p_cur), abs(d_prev), abs(d_cur)))
            s = math.ldexp(1.0, -e)
            p_prev, p_cur, d_prev, d_cur = p_prev * s, p_cur * s, d_prev * s, d_cur * s
            exponent += e
    return p_cur, d_cur, exponent


def _rescale_pair(prev: np.ndarray, cur: np.ndarray) -> int:
    """Lazy rescaling of a vector recurrence pair, in place, by the power of
    two 2^-e of `_rescale_exponent`; returns e. As in charpoly_eval, the
    newer vector is tested first and the pair decides the scale."""
    m = float(np.abs(cur).max())
    if not _RESCALE_LO <= m <= _RESCALE_HI:
        e = _rescale_exponent(max(m, float(np.abs(prev).max())))
        prev *= math.ldexp(1.0, -e)
        cur *= math.ldexp(1.0, -e)
        return e
    return 0


def _charpoly_taylor(
    rec: CharPolyRecurrence, c: float, scale: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Taylor coefficients of P_N at c in the variable t = (beta - c) / scale,
    ascending, and a bound on their rounding errors, both times 2^-e for the
    returned e, the sum of `_rescale_pair`'s exponents. Those rescalings are
    exact down to 2^-1022 of the running scale, the pass's resolution. scale,
    a power of two near |P_N(c)|^(1/N), keeps the coefficients within range
    of each other.

    The recurrence runs on coefficient vectors: P_{k+1}(c + scale t) is
    (c - b_k + scale t) P_k(c + scale t) - a_k P_{k-1}(c + scale t).

    The bound is a first-order running error bound, never infinite.
    Computing P_j rounds it by at most 3u times lambda_j, the sum of the
    magnitudes of its terms (u = 2^-53), and an error e in P_j reaches P_N
    as e Q_j, where Q_j is the determinant of rows j..N-1 in the same
    variable. When no Q_j has a negative Taylor coefficient at c,
    sum_j lambda_j Q_j bounds the error coefficientwise, and that sum is the
    recurrence itself run with lambda_{k+1} added at step k. Otherwise the
    bound runs the error recurrence on absolute values,
    S_{k+1} = (|d_k| + scale t) S_k + |a_k| S_{k-1} + lambda_{k+1}, which
    bounds the error coefficientwise for any signs by induction, but grows
    far looser with N. The bound takes 8u for 3u, to cover the second-order
    terms and its own rounding.

    One loop of N steps advances four rows, each with its own coefficient
    column: P_k, the bound, |P_k| (which the step turns into lambda_{k+1}),
    and Q_{N-k} backward, which rescales on its own since only its signs are
    read. The bound starts as the sum of lambda_j Q_j, and once a Q_j turns
    negative the pass reruns without Q, with the absolute error recurrence.
    """
    n = rec.n
    d = c - np.asarray(rec.b, dtype=float)
    a = np.asarray((0.0,) + rec.a + (0.0,), dtype=float)  # a_0 = a_N = 0
    # step k takes each row to (d + scale t) row - a older_row with the row's
    # own d and a: d_k and a_k for P_k and the bound, |d_k| and -|a_k| for
    # |P_k| (and the absolute bound), and for Q_j, j = N-1-k,
    # Q_j = (d_j + scale t) Q_{j+1} - a_{j+1} Q_{j+2}
    d_col = np.stack([d, d, np.abs(d), d[::-1]], axis=1)[:, :, None]
    a_col = np.stack([a[:n], a[:n], -np.abs(a[:n]), a[n:0:-1]], axis=1)[:, :, None]
    for absolute in (False, True):
        if absolute:  # the rerun drops Q
            d_col, a_col = d_col[:, :3], a_col[:, :3]
            d_col[:, 1], a_col[:, 1] = d_col[:, 2], a_col[:, 2]
        rows = np.zeros((4, d_col.shape[1], n + 1))
        prev, cur, nxt, term = rows
        flat_prev, flat_cur, flat_nxt, flat_term = rows.reshape(4, -1)
        cur[:, 0] = 1.0
        cur[1, 0] = 0.0
        exponent = 0
        for k in range(n):
            if k == n - 1:
                cur[3:] = prev[3:] = 0.0  # Q_0 is not needed
            np.multiply(d_col[k], cur, out=nxt)
            nxt -= np.multiply(a_col[k], prev, out=term)
            # scale t times the rows as one vector: cur's t^N entries, zeros
            # below degree N, cross into the next row's t^0, where a zero
            # added can only turn -0 into +0 (the bound's t^0 then gains
            # lambda >= +0, and Q's is read for its sign)
            flat_nxt[1:] += np.multiply(scale, flat_cur[:-1], out=flat_term[1:])
            nxt[1] += nxt[2]
            np.abs(nxt[0], out=nxt[2])
            if not absolute and nxt[3].min() < 0.0:
                break
            prev, cur, nxt = cur, nxt, prev
            flat_prev, flat_cur, flat_nxt = flat_cur, flat_nxt, flat_prev
            exponent += _rescale_pair(prev[:3], cur[:3])
            if not absolute:
                _rescale_pair(prev[3], cur[3])
        else:
            return cur[0], cur[1] * _BOUND_U, exponent


def charpoly_coefficients(rec: CharPolyRecurrence) -> list[float]:
    """Monomial coefficients of P_N, ascending (beta^0 .. beta^N), as floats:
    the Taylor pass at 0 times its power of two, each within the pass's
    bound of the exact expansion. NumericalError when a coefficient leaves
    double range, or when the pass rescaled and the terms of a coefficient
    (their magnitudes, the bound / 8u) sum below 2^-1022 of the running
    scale: that coefficient may have been flushed to zero.
    """
    if rec.n > COEFFICIENT_LIMIT:
        raise CapacityError(
            f"degree {rec.n} exceeds the coefficient limit {COEFFICIENT_LIMIT}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        t, err, exponent = _charpoly_taylor(rec, 0.0, 1.0)
        coeffs = np.ldexp(t, exponent)
    bad = int(np.count_nonzero(~np.isfinite(coeffs)))
    if bad:
        raise NumericalError(
            f"degree {rec.n}: {bad} of {rec.n + 1} coefficients leave double range"
        )
    if exponent and not np.all(err >= _BOUND_U * 2.0**-1022):
        raise NumericalError(
            f"degree {rec.n}: a coefficient falls below the resolution of the "
            "rescaled expansion"
        )
    return coeffs.tolist()


def truncation_order(eta: EtaSequence, variant: Variant) -> int | None:
    """Smallest N with eta_N = N+2 (unbounded) or eta_N = N-2 (bounded), at
    1e-12 absolute; None when no index in range matches.

    A miss within 1e-6 emits a diagnostic: the closure identities are exact,
    so an almost-hit usually means the input should be exact.
    """
    shift = 2 if variant is Variant.UNBOUNDED else -2
    gap = np.abs(np.array(eta.values) - (np.arange(1, eta.n_max + 1) + shift))
    hit = np.flatnonzero(gap < 1e-12)
    if hit.size:
        return int(hit[0]) + 1
    near = np.flatnonzero(gap < 1e-6)
    if near.size:
        warnings.warn(
            f"eta_{near[0] + 1} misses the truncation identity by {gap[near[0]]:.3e}; "
            "supply the exact value if truncation is intended",
            TruncationNearMissWarning,
            stacklevel=2,
        )
    return None
