"""Closed-form reference values: the hypergeometric solution of the N=2
unbounded system and its beta(2) formula, the exact spectra of both
truncating Brownian families, and the perturbed-N=6 complex-pair
asymptotics.

Everything here is an oracle for the matrix/series machinery, so nothing
here calls an eigensolver or a root finder. Gauss 2F1 and its value at
xi = 1 (a ratio of Gamma functions, formed in log-Gamma) come from
`scipy.special`; a raw partial sum of the 2F1 series stays as an
independent reference for them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    DomainError,
    PoleError,
    PrecisionError,
    RealizabilityWarning,
    SizeError,
)
from .levy_driver import LevyDriver
from .loewner_system import Variant

__all__ = [
    "HypergeometricParams",
    "Theorem1Values",
    "BETA_SUP",
    "beta2_unbounded_n2",
    "gauss_2f1",
    "gauss_at_one",
    "theorem1_solution",
    "truncated_sle_spectrum",
    "perturbed_n6_pairs",
    "perturbed_n6_driver",
]

BETA_SUP = 3.0 + math.sqrt(3.0)

_SERIES_TOL = 1e-14


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == round(x)


def beta2_unbounded_n2(eta1: float) -> float:
    """beta(2) of the unbounded N=2 system, (6 - eta_1 + sqrt(eta_1^2 -
    4 eta_1 + 12)) / 2; the caller guarantees eta_2 = 4.

    Evaluated as 2 + 4 / (hypot(eta_1 - 2, sqrt(8)) + eta_1 - 2), equal in
    exact arithmetic, whose denominator is >= 1.46 for eta_1 >= 0: nothing
    cancels where the form above does (it reads 2.0 at eta_1 = 1e12).

    Output lies in (2, 3 + sqrt(3)] for eta_1 >= 0. eta_1 = 0 is a formal
    endpoint: no driver realizes it (eta_2 = 4 > 4 eta_1).
    """
    if not math.isfinite(eta1) or eta1 < 0:
        raise DomainError(f"eta_1 must be finite and >= 0, got {eta1}")
    if eta1 == 0:
        warnings.warn(
            "eta_1 = 0 with eta_2 = 4 violates eta_2 <= 4 eta_1; formal only",
            RealizabilityWarning,
            stacklevel=2,
        )
    return 2.0 + 4.0 / (math.hypot(eta1 - 2.0, math.sqrt(8.0)) + eta1 - 2.0)


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters of the second-order reduction of the N=2 unbounded system:
    a = (beta^2 - 5 beta + 8) / (2 (2 - beta)), b = 3 - beta,
    c = (beta^2 - 7 beta + 8) / (2 (2 - beta))."""

    a: float
    b: float
    c: float
    beta: float

    @classmethod
    def from_beta(cls, beta: float) -> "HypergeometricParams":
        if not 2.0 < beta <= BETA_SUP:
            raise DomainError(f"beta must lie in (2, 3+sqrt(3)], got {beta}")
        den = 2.0 * (2.0 - beta)
        return cls(
            a=(beta * beta - 5.0 * beta + 8.0) / den,
            b=3.0 - beta,
            c=(beta * beta - 7.0 * beta + 8.0) / den,
            beta=beta,
        )

    @classmethod
    def from_eta1(cls, eta1: float) -> "HypergeometricParams":
        beta = beta2_unbounded_n2(eta1)
        if beta == 2.0:  # beta(2) = 2 + 2/eta_1 + O(eta_1^-2)
            raise DomainError(
                f"eta_1 must be below about 9e15, where beta(2) rounds to 2, got {eta1}"
            )
        return cls.from_beta(beta)


def _gauss_series(a: float, b: float, c: float, x: float, max_terms: int) -> float:
    """Raw power-series summation with term recurrence; stops when the
    geometric tail bound drops below 1e-14 of the partial sum. Terminates
    exactly when a or b is a nonpositive integer."""
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
        if term == 0.0:
            return total
        ratio = abs((a + k + 1) * (b + k + 1) / ((c + k + 1) * (k + 2)) * x)
        if ratio < 1.0:
            tail = abs(term) * ratio / (1.0 - ratio)
            if tail < _SERIES_TOL * max(abs(total), 1e-300):
                return total
    raise PrecisionError(
        f"2F1 series did not converge within {max_terms} terms at x={x}"
    )


def gauss_2f1(a: float, b: float, c: float, xi: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; xi) on 0 <= xi < 1, by
    scipy.special.hyp2f1."""
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 undefined at nonpositive integer c={c}")
    if not 0.0 <= xi < 1.0:
        raise DomainError(f"2F1 evaluation needs 0 <= xi < 1, got {xi}")
    import scipy.special  # kept off the package import path

    value = float(scipy.special.hyp2f1(a, b, c, xi))
    if not math.isfinite(value):
        raise PrecisionError(f"2F1({a}, {b}; {c}; {xi}) is not finite: {value}")
    return value


def gauss_at_one(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
    valid for c - a - b > 0.

    The ratio is formed in log-Gamma with the signs carried apart, so it
    stays finite where the Gamma factors themselves overflow (c > 171).
    """
    s = c - a - b
    if s <= 0:
        raise DomainError(f"gauss_at_one needs c - a - b > 0, got {s}")
    for name, val in (("c", c), ("c-a-b", s), ("c-a", c - a), ("c-b", c - b)):
        if _is_nonpositive_integer(val):
            raise PoleError(f"gamma pole in gauss_at_one: {name} = {val}")
    from scipy.special import gammaln, gammasgn  # kept off the import path

    log_ratio = gammaln(c) + gammaln(s) - gammaln(c - a) - gammaln(c - b)
    sign = gammasgn(c) * gammasgn(s) * gammasgn(c - a) * gammasgn(c - b)
    return float(sign * math.exp(log_ratio))


@dataclass(frozen=True)
class Theorem1Values:
    f0: float
    f1: float
    theta0: float
    theta1: float


def theorem1_solution(eta1: float, xi: float) -> Theorem1Values:
    """Closed-form solution of the unbounded N=2 system:
    f_0 = 2F1(a, b; c; xi), f_1 = ((xi - 1)/2) f_0' + ((3 - beta)/2) f_0 with
    f_0' = (a b / c) 2F1(a+1, b+1; c+1; xi), and theta_i = (1 - xi)^{-beta}
    f_i. The normalization matches the series solution (theta_0(0) = 1)."""
    if not 0.0 <= xi < 1.0:
        raise DomainError(f"theorem1_solution needs 0 <= xi < 1, got {xi}")
    p = HypergeometricParams.from_eta1(eta1)
    f0 = gauss_2f1(p.a, p.b, p.c, xi)
    f0p = p.a * p.b / p.c * gauss_2f1(p.a + 1.0, p.b + 1.0, p.c + 1.0, xi)
    f1 = (xi - 1.0) / 2.0 * f0p + (3.0 - p.beta) / 2.0 * f0
    blow = (1.0 - xi) ** (-p.beta)
    return Theorem1Values(f0=f0, f1=f1, theta0=blow * f0, theta1=blow * f1)


def truncated_sle_spectrum(n: int, variant: Variant) -> list[float]:
    """Spectrum of the truncating Brownian driver kappa = 2(N+2s)/N^2 at
    truncation order N, s = +1 (unbounded) or s = -1 (bounded), in closed
    form:

        lambda_l = (N + 2s - (2N^2 - 3N - 6s) l + 2(N + 2s) l^2) / N^2,

    for l = 0..N-1. Each numerator is an exact integer divided once, so every
    value is correctly rounded. Unbounded values come in l order, bounded
    ones in descending order, led by lambda_0 = kappa/2. Two members repeat
    eigenvalues: unbounded N = 6 (lambda_l = lambda_{3-l}) and bounded
    N = 10 (lambda_l = lambda_{11-l}).
    """
    s = 1 if variant is Variant.UNBOUNDED else -1
    if n < 2 - s:  # N >= 1, and the bounded kappa > 0 needs N >= 3
        raise SizeError(
            f"{variant.value} truncation order must be >= {2 - s}, got {n}"
        )
    vals = [
        (n + 2 * s - (2 * n * n - 3 * n - 6 * s) * l + 2 * (n + 2 * s) * l * l)
        / (n * n)
        for l in range(n)
    ]
    return vals if s == 1 else sorted(vals, reverse=True)


def perturbed_n6_driver(delta_kappa: float) -> LevyDriver:
    """Driver kappa = 4/9 - dk with uniform rate 18 dk: eta_6 = 8 stays exact,
    so truncation at N = 6 survives the perturbation."""
    if not 0.0 < delta_kappa <= 1e-3:
        raise DomainError(f"delta_kappa must lie in (0, 1e-3], got {delta_kappa}")
    return LevyDriver(kappa=4.0 / 9.0 - delta_kappa, uniform_rate=18.0 * delta_kappa)


def perturbed_n6_pairs(delta_kappa: float) -> list[complex]:
    """Leading-order complex eigenvalue pairs of the perturbed N=6 unbounded
    system: 2/9 +/- i (21/128) sqrt(30 dk) and -2/3 +/- i (5/128)
    sqrt(70 dk); real parts are unshifted at this order."""
    if not 0.0 < delta_kappa <= 1e-3:
        raise DomainError(f"delta_kappa must lie in (0, 1e-3], got {delta_kappa}")
    im1 = 21.0 / 128.0 * math.sqrt(30.0 * delta_kappa)
    im2 = 5.0 / 128.0 * math.sqrt(70.0 * delta_kappa)
    return [
        complex(2.0 / 9.0, im1),
        complex(2.0 / 9.0, -im1),
        complex(-2.0 / 3.0, im2),
        complex(-2.0 / 3.0, -im2),
    ]
