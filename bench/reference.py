"""Reference values for the benchmark, computed without importing llespec.

Two kinds of reference:

* closed forms from the literature and from the paper's truncating
  families (whole-plane SLE beta(2) for both variants, the truncated-SLE
  spectrum, the N = 2 formula);
* the maximal real eigenvalue of the tridiagonal matrix B, assembled here
  from eta_1..eta_{N-1} with the paper's band formulas. LAPACK (numpy)
  locates the eigenvalue; Newton's method on the characteristic polynomial,
  run in mpmath at 40 digits, then fixes its digits, so a reference never
  inherits the rounding of a double-precision eigensolver.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import mpmath
import numpy as np

_DPS = 40


# ------------------------------------------------------------ closed forms


def sle_unbounded_beta2(kappa: float) -> float:
    """beta(2) of unbounded whole-plane SLE_kappa, (11 - sqrt(1 + 4 kappa))/2:
    the t = 2 value of the linear branch in Duplantier, Nguyen, Nguyen and
    Zinsmeister (arXiv:1211.2451)."""
    return (11.0 - math.sqrt(1.0 + 4.0 * kappa)) / 2.0


def sle_bounded_beta2(kappa: float) -> float:
    """beta(2) of bounded whole-plane SLE_kappa at small kappa, kappa/2: the
    bulk spectrum of Beliaev and Smirnov."""
    return kappa / 2.0


def truncating_kappa(n: int, variant: str) -> float:
    """Brownian kappa whose exponents close the system at size n:
    eta_n = n + 2 (unbounded) or eta_n = n - 2 (bounded)."""
    shift = 2 if variant == "unbounded" else -2
    return 2.0 * (n + shift) / (n * n)


def truncated_sle_spectrum(n: int) -> list[float]:
    """Spectrum of the unbounded system truncating at n,
    (n+2 - (2n^2 - 3n - 6) l + 2(n+2) l^2) / n^2 for l = 0..n-1."""
    return [
        (n + 2 - (2 * n * n - 3 * n - 6) * l + 2 * (n + 2) * l * l) / (n * n)
        for l in range(n)
    ]


def truncated_bounded_beta2(n: int) -> float:
    """Top eigenvalue of the bounded system truncating at n: kappa_n / 2."""
    return truncating_kappa(n, "bounded") / 2.0


def n2_beta2(eta1: float) -> float:
    """beta(2) of the unbounded N = 2 system (eta_2 = 4):
    (6 - eta_1 + sqrt(eta_1^2 - 4 eta_1 + 12)) / 2."""
    return (6.0 - eta1 + math.sqrt(eta1 * eta1 - 4.0 * eta1 + 12.0)) / 2.0


# ------------------------------------------------------------ matrices


def brownian_eta(kappa: float, uniform_rate: float, n_max: int) -> list[float]:
    """eta_1..eta_{n_max} = kappa n^2 / 2 + uniform_rate."""
    return [kappa * k * k / 2.0 + uniform_rate for k in range(1, n_max + 1)]


def b_bands(eta, n: int, variant: str):
    """(sub, diag, sup) of the n x n matrix B, as mpmath numbers.

    eta[k-1] is eta_k; eta_0 = 0. sub[i] is entry (i+1, i) and sup[i] entry
    (i, i+1). The first row keeps the paper's verbatim entry (-2 unbounded,
    2 bounded) in place of the generic band formula.
    """
    with mpmath.workdps(_DPS):
        e = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in eta[: n - 1]]
        if variant == "unbounded":
            diag = [3 - e[i] for i in range(n)]
            sup = [mpmath.mpf(-2) if i == 0 else (e[i] + i - 2) / 2 for i in range(n - 1)]
            sub = [(e[i] - i - 2) / 2 for i in range(1, n)]
        elif variant == "bounded":
            diag = [-e[i] - 1 for i in range(n)]
            sup = [mpmath.mpf(2) if i == 0 else (e[i] + i + 2) / 2 for i in range(n - 1)]
            sub = [(e[i] + 2 - i) / 2 for i in range(1, n)]
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return sub, diag, sup


def _charpoly_and_derivative(a, b, x):
    # P_{k+1} = (x - b_k) P_k - a_k P_{k-1}, differentiated alongside
    p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
    d_prev, d = mpmath.mpf(0), mpmath.mpf(0)
    for k in range(len(b)):
        a_k = a[k - 1] if k else 0
        p_next = (x - b[k]) * p - a_k * p_prev
        d_next = p + (x - b[k]) * d - a_k * d_prev
        p_prev, p, d_prev, d = p, p_next, d, d_next
    return p, d


def top_real_root(a, b) -> float:
    """Largest real root of the monic polynomial with recurrence
    P_{k+1} = (x - b_k) P_k - a_k P_{k-1}, P_0 = 1: equivalently the
    maximal real eigenvalue of any tridiagonal matrix with diagonal b and
    off-diagonal products a.
    """
    n = len(b)
    if n == 1:
        return float(b[0])
    bf = np.array([float(v) for v in b])
    af = np.array([float(v) for v in a])
    # similar matrix with off-diagonals sign(a) sqrt|a| below, sqrt|a| above
    root = np.sqrt(np.abs(af))
    m = np.diag(bf) + np.diag(root, 1) + np.diag(np.sign(af) * root, -1)
    eigs = np.linalg.eigvals(m)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    real = [z.real for z in eigs if abs(z.imag) <= 1e-6 * scale]
    if not real:
        raise ArithmeticError("no real eigenvalue")
    x0 = max(real)
    with mpmath.workdps(_DPS):
        x = mpmath.mpf(x0)
        for _ in range(100):
            p, d = _charpoly_and_derivative(a, b, x)
            if p == 0:
                break
            if d == 0:
                raise ArithmeticError(f"vanishing derivative near {x0}")
            step = p / d
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (8 - _DPS) * max(1, abs(x)):
                break
        else:
            raise ArithmeticError(f"Newton did not converge near {x0}")
        if abs(x - x0) > 1e-6 * max(1.0, abs(x0)):
            raise ArithmeticError(f"Newton left the root near {x0} for {x}")
        return float(x)


def top_eigenvalue(eta, n: int, variant: str) -> float:
    """Maximal real eigenvalue of the n x n matrix B built from eta."""
    sub, diag, sup = b_bands(eta, n, variant)
    with mpmath.workdps(_DPS):
        a = [s * t for s, t in zip(sub, sup)]
    return top_real_root(a, diag)


# ------------------------------------------------------------ self-check


def frozen_uniform_rate_curve(test_file: Path) -> dict[float, float]:
    """UNIFORM_RATE_CURVE as frozen in the acceptance tests, read from the
    source without importing the test module."""
    tree = ast.parse(test_file.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "UNIFORM_RATE_CURVE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"UNIFORM_RATE_CURVE not found in {test_file}")


def uniform_rate_beta2(lam: float, n: int) -> float:
    """Top eigenvalue of the bounded system of size n for the pure uniform
    jump driver of rate lam (eta_k = lam for every k)."""
    return top_eigenvalue([lam] * (n - 1), n, "bounded")


def self_check(test_file: Path) -> list[str]:
    """Cross-checks of the references; returns a list of problems."""
    problems = []

    def expect(label, got, want, rel):
        err = abs(got - want) / max(abs(want), 1e-300)
        if not err <= rel:
            problems.append(f"{label}: {got!r} vs {want!r} (rel {err:.2e} > {rel:g})")

    # integer rates truncate the bounded system at N = lambda + 2
    for lam, frozen in sorted(frozen_uniform_rate_curve(test_file).items()):
        expect(f"uniform rate {lam:g}", uniform_rate_beta2(lam, int(lam) + 2), frozen, 1e-12)
    for n in (2, 3, 6, 12):
        kappa = truncating_kappa(n, "unbounded")
        top = top_eigenvalue(brownian_eta(kappa, 0.0, n), n, "unbounded")
        expect(f"unbounded truncated N={n}", top, max(truncated_sle_spectrum(n)), 1e-12)
        expect(f"SLE unbounded N={n}", top, sle_unbounded_beta2(kappa), 1e-12)
    for n in (3, 5, 12):
        kappa = truncating_kappa(n, "bounded")
        top = top_eigenvalue(brownian_eta(kappa, 0.0, n), n, "bounded")
        expect(f"bounded truncated N={n}", top, truncated_bounded_beta2(n), 1e-12)
    for eta1 in (0.5, 1.0, 2.5):
        expect(f"N=2 eta_1={eta1}", top_eigenvalue([eta1], 2, "unbounded"), n2_beta2(eta1), 1e-12)
    return problems
