"""Residue matrices of the Fuchsian system and the characteristic-polynomial
recurrence, for both variants of the evolution.

Matrices are stored as bands; `_dense` writes them into one dense matrix
(N <= DENSE_LIMIT) for the non-symmetric eigensolver path, the ODE
integration and tests. The first row of each matrix follows the displayed
form verbatim: its off-diagonal entry differs from the generic band formula
by a factor of 2, absorbed by folding the negative mode
(theta_{-1} = xi^{+/-1} theta_1).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapacityError,
    NumericalError,
    SizeError,
    TruncationNearMissWarning,
    ValidationError,
)
from .levy_driver import EtaSequence

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
    b_super (BOUNDED). Band lengths: diagonals N, off-diagonals N-1.
    """

    variant: Variant
    n: int
    a_diag: np.ndarray
    b_sub: np.ndarray
    b_diag: np.ndarray
    b_super: np.ndarray

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
    e = [0.0, *eta.values[: n - 1]]  # eta_0 = 0
    if variant is Variant.UNBOUNDED:
        b_diag = np.array([3.0 - e[i] for i in range(n)])
        # first-row entry -2 verbatim; generic (e+i-2)/2 from i >= 1
        b_super = np.array(
            [-2.0 if i == 0 else (e[i] + i - 2) / 2 for i in range(n - 1)]
        )
        b_sub = np.array([(e[i] - i - 2) / 2 for i in range(1, n)])
        a_diag = np.array([-(e[i] + i) / 2 for i in range(n)])
    else:
        b_diag = np.array([-e[i] - 1.0 for i in range(n)])
        # first-row entry 2 verbatim; generic (e+i+2)/2 from i >= 1
        b_super = np.array(
            [2.0 if i == 0 else (e[i] + i + 2) / 2 for i in range(n - 1)]
        )
        b_sub = np.array([(e[i] + 2 - i) / 2 for i in range(1, n)])
        a_diag = np.array([-(e[i] + 2 - i) / 2 for i in range(n)])
    return LoewnerMatrices(
        variant=variant,
        n=n,
        a_diag=a_diag,
        b_sub=b_sub,
        b_diag=b_diag,
        b_super=b_super,
    )


@dataclass(frozen=True)
class CharPolyRecurrence:
    """Coefficients of P_{n+1} = (beta - b_n) P_n - a_n P_{n-1}.

    a covers a_1..a_{N-1}, b covers b_0..b_{N-1}; N = len(b). N = 0 (both
    empty) is allowed and makes P_N identically 1.
    """

    variant: Variant
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        if self.b and len(self.a) != len(self.b) - 1:
            raise SizeError(
                f"need len(a) = len(b) - 1, got {len(self.a)} and {len(self.b)}"
            )
        if not self.b and self.a:
            raise SizeError("a must be empty when b is empty")

    @property
    def n(self) -> int:
        return len(self.b)


def recurrence_coefficients(
    eta: EtaSequence, n: int, variant: Variant
) -> CharPolyRecurrence:
    """Recurrence coefficients for the degree-n characteristic polynomial.

    a_k is the product of B's sub and super entries across the k-th
    off-diagonal position, evaluated on the same expressions as
    build_matrices so the identity holds bitwise.
    """
    if n < 0:
        raise SizeError(f"degree must be >= 0, got {n}")
    if n == 0:
        return CharPolyRecurrence(variant=variant, a=(), b=())
    m = build_matrices(eta, n, variant)
    a = tuple(float(s * t) for s, t in zip(m.b_sub, m.b_super))
    b = tuple(float(v) for v in m.b_diag)
    return CharPolyRecurrence(variant=variant, a=a, b=b)


def _needs_rescale(m: float) -> bool:
    """True when the largest magnitude m of a recurrence's running values has
    left [1e-150, 1e150] (an exact zero never needs it)."""
    return m > _RESCALE_HI or 0.0 < m < _RESCALE_LO


def charpoly_eval(rec: CharPolyRecurrence, x) -> tuple:
    """(p, dp, log_scale) from one forward pass at x (real or complex), with
    P_N(x) = p e^log_scale and P_N'(x) = dp e^log_scale; p / dp is the Newton
    step. log_scale stays 0.0 until the recurrence pair leaves
    [1e-150, 1e150], so small-N values are exact.

    P_{k+1}' = (x - b_k) P_k' + P_k - a_k P_{k-1}', differentiated from the
    recurrence itself.
    """
    p_prev, p_cur, d_prev, d_cur = 0.0, 1.0, 0.0, 0.0
    log_scale = 0.0
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
            m = max(abs(p_prev), abs(p_cur), abs(d_prev), abs(d_cur))
            if _needs_rescale(m):
                p_prev /= m
                p_cur /= m
                d_prev /= m
                d_cur /= m
                log_scale += math.log(m)
    return p_cur, d_cur, log_scale


def _rescale_pair(prev: np.ndarray, cur: np.ndarray) -> None:
    """Lazy rescaling of a vector recurrence pair, in place, by a power of
    two, so that it rounds nothing. As in charpoly_eval, the newer
    vector is tested first and the pair decides the scale."""
    m = float(np.abs(cur).max())
    if not _RESCALE_LO <= m <= _RESCALE_HI:
        m = max(m, float(np.abs(prev).max()))
        if _needs_rescale(m):
            s = math.ldexp(1.0, -math.frexp(m)[1])
            prev *= s
            cur *= s


def _charpoly_taylor(
    rec: CharPolyRecurrence, c: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of P_N at c in the variable t = (beta - c) / scale,
    ascending, and a bound on their rounding errors, both times the same
    positive factor. scale, a power of two near |P_N(c)|^(1/N), keeps the
    coefficients within range of each other.

    The recurrence runs on coefficient vectors: P_{k+1}(c + scale t) is
    (c - b_k + scale t) P_k(c + scale t) - a_k P_{k-1}(c + scale t).

    The bound is a first-order running error bound. Computing P_j rounds it
    by at most 3u times lambda_j, the sum of the magnitudes of its terms
    (u = 2^-53), and an error e in P_j reaches P_N as e Q_j, where Q_j is
    the determinant of rows j..N-1 in the same variable. When no Q_j has a
    negative Taylor coefficient at c, sum_j lambda_j Q_j bounds the error
    coefficientwise, and that sum is the recurrence itself run with
    lambda_{k+1} added at step k. The bound takes 8u for 3u, to cover the
    second-order terms and its own rounding. It is inf when some Q_j has a
    negative coefficient: the bound would not hold.
    """
    n = rec.n
    d = c - np.asarray(rec.b, dtype=float)
    a = np.asarray((0.0,) + rec.a + (0.0,), dtype=float)  # a_0 = a_N = 0
    # Q_{N+1} = 0, Q_N = 1, Q_j = (d_j + scale t) Q_{j+1} - a_{j+1} Q_{j+2}
    q_prev, q = np.zeros(n + 1), np.zeros(n + 1)
    q[0] = 1.0
    for j in range(n - 1, 0, -1):
        q_next = d[j] * q - a[j + 1] * q_prev
        q_next[1:] += scale * q[:-1]
        if q_next.min() < 0.0:
            return np.zeros(n + 1), np.full(n + 1, math.inf)
        q_prev, q = q, q_next
        _rescale_pair(q_prev, q)
    # row 0 holds P_k, row 1 the running sum of lambda_j Q_j
    prev, cur = np.zeros((2, n + 1)), np.zeros((2, n + 1))
    cur[0, 0] = 1.0
    for k in range(n):
        lam = abs(d[k]) * np.abs(cur[0]) + abs(a[k]) * np.abs(prev[0])
        lam[1:] += scale * np.abs(cur[0, :-1])
        nxt = d[k] * cur - a[k] * prev
        nxt[:, 1:] += scale * cur[:, :-1]
        nxt[1] += lam
        prev, cur = cur, nxt
        _rescale_pair(prev, cur)
    return cur[0], cur[1] * (8 * 2.0**-53)


def _as_fraction(x: float) -> Fraction | None:
    """Exact small-denominator rational behind x, or None.

    The denominator cap keeps the detector honest: with a bound this size a
    continued-fraction convergent of a generic float misses it by ~1e-12,
    far more than a half ulp, so only genuine small rationals round-trip.
    """
    f = Fraction(x).limit_denominator(10**6)
    return f if float(f) == x else None


def charpoly_coefficients(rec: CharPolyRecurrence):
    """Monomial coefficients of P_N, ascending (beta^0 .. beta^N).

    Exact Fractions when every a_n, b_n hides a small-denominator rational,
    floats otherwise; floats that leave double range raise NumericalError.
    """
    if rec.n > COEFFICIENT_LIMIT:
        raise CapacityError(
            f"degree {rec.n} exceeds the coefficient limit {COEFFICIENT_LIMIT}"
        )
    a_fr = [_as_fraction(x) for x in rec.a]
    b_fr = [_as_fraction(x) for x in rec.b]
    exact = all(f is not None for f in a_fr) and all(f is not None for f in b_fr)
    if exact:
        a_list, b_list = a_fr, b_fr
        zero, one = Fraction(0), Fraction(1)
    else:
        a_list, b_list = list(rec.a), list(rec.b)
        zero, one = 0.0, 1.0
    p_prev = [zero]  # P_{-1} = 0
    p_cur = [one]  # P_0 = 1
    for k in range(rec.n):
        a_k = a_list[k - 1] if k >= 1 else zero
        b_k = b_list[k]
        nxt = [zero] * (k + 2)
        for j, c in enumerate(p_cur):  # beta * P_k
            nxt[j + 1] += c
        for j, c in enumerate(p_cur):
            nxt[j] -= b_k * c
        for j, c in enumerate(p_prev):
            nxt[j] -= a_k * c
        p_prev, p_cur = p_cur, nxt
    bad = 0 if exact else sum(not math.isfinite(c) for c in p_cur)
    if bad:
        raise NumericalError(
            f"degree {rec.n}: {bad} of {rec.n + 1} coefficients leave double range"
        )
    return p_cur


def truncation_order(eta: EtaSequence, variant: Variant) -> int | None:
    """Smallest N with eta_N = N+2 (unbounded) or eta_N = N-2 (bounded), at
    1e-12 absolute; None when no index in range matches.

    A miss within 1e-6 emits a diagnostic: the closure identities are exact,
    so an almost-hit usually means the input should be exact.
    """
    shift = 2 if variant is Variant.UNBOUNDED else -2
    near = None
    for n in range(1, eta.n_max + 1):
        gap = abs(eta.values[n - 1] - (n + shift))
        if gap < 1e-12:
            return n
        if gap < 1e-6 and near is None:
            near = (n, gap)
    if near is not None:
        warnings.warn(
            f"eta_{near[0]} misses the truncation identity by {near[1]:.3e}; "
            "supply the exact value if truncation is intended",
            TruncationNearMissWarning,
            stacklevel=2,
        )
    return None
