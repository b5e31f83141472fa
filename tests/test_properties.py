"""Randomized structural properties of the spectra and the angular means.

The six run_* suites here back the randomized-property acceptance gate,
which runs them (tests/test_acceptance.py, criterion 09) over freshly drawn
admissible drivers with fixed seeds. The tests in this file cover the
realness of perturbed truncation families.
"""

import numpy as np
import pytest

from llespec import (
    FuchsianSystem,
    GeometricLadder,
    Variant,
    angular_mean_rho,
    beta2,
    blowup_exponent,
    build_matrices,
    eigen_spectrum,
    eta_sequence,
    recurrence_coefficients,
    series_solution,
    validate_eta,
)
from tests.conftest import charpoly_log_abs, random_driver

N_DRIVERS = 200


def run_conjugate_symmetry(n_drivers: int = N_DRIVERS) -> int:
    rng = np.random.default_rng(101)
    checked = 0
    for variant in Variant:
        for _ in range(n_drivers):
            eta = eta_sequence(random_driver(rng), 8)
            s = eigen_spectrum(build_matrices(eta, 8, variant))
            eigs = list(s.eigenvalues)
            for z in eigs:
                if z.imag != 0.0:
                    assert any(
                        abs(w - z.conjugate()) <= 1e-9 * max(1.0, abs(z))
                        for w in eigs
                    )
            checked += 1
    return checked


def run_orthogonal_regime_realness(n_drivers: int = N_DRIVERS) -> int:
    # all a_n > 0 puts the matrix in the symmetrizable regime: real spectrum
    rng = np.random.default_rng(102)
    checked = 0
    for variant in Variant:
        found = 0
        while found < n_drivers:
            eta = eta_sequence(random_driver(rng), 8)
            rec = recurrence_coefficients(eta, 8, variant)
            if not all(a > 0 for a in rec.a):
                checked += 1
                continue
            s = eigen_spectrum(build_matrices(eta, 8, variant))
            assert s.all_real
            assert all(z.imag == 0.0 for z in s.eigenvalues)
            found += 1
            checked += 1
    return checked


def run_nonnegative_eigenvalue_exists(n_drivers: int = N_DRIVERS) -> int:
    rng = np.random.default_rng(103)
    checked = 0
    for variant in Variant:
        for _ in range(n_drivers):
            eta = eta_sequence(random_driver(rng), 8)
            n = int(rng.integers(2, 9))
            s = eigen_spectrum(build_matrices(eta, n, variant))
            assert s.n_nonneg_real >= 1
            assert s.max_real >= -1e-7
            checked += 1
    return checked


def run_recurrence_residual(n_drivers: int = N_DRIVERS) -> int:
    # every eigenvalue is a root of the recurrence polynomial: |P| collapses
    # at the eigenvalue relative to its size a short step away
    rng = np.random.default_rng(104)
    checked = 0
    for variant in Variant:
        for _ in range(n_drivers):
            eta = eta_sequence(random_driver(rng), 7)
            m = build_matrices(eta, 7, variant)
            rec = recurrence_coefficients(eta, 7, variant)
            scale = 1.0 + float(np.max(np.abs(m.b_dense())))
            h = 1e-5 * scale
            for z in eigen_spectrum(m).eigenvalues:
                at = charpoly_log_abs(rec, z)
                near = max(charpoly_log_abs(rec, z + h), charpoly_log_abs(rec, z - h))
                assert at <= near + np.log(1e-3)
            checked += 1
    return checked


def run_angular_mean_positivity(
    n_unbounded: int = N_DRIVERS, n_bounded: int = 100
) -> int:
    rng = np.random.default_rng(105)
    checked = 0
    for _ in range(n_unbounded):
        eta = eta_sequence(random_driver(rng), 14)
        series = series_solution(
            FuchsianSystem(build_matrices(eta, 14, Variant.UNBOUNDED)), 3500
        )
        for xi in np.linspace(0.0, 0.99, 23):
            assert angular_mean_rho(series, float(xi)) >= 0.0
        checked += 1
    for _ in range(n_bounded):
        eta = eta_sequence(random_driver(rng), 14)
        series = series_solution(
            FuchsianSystem(build_matrices(eta, 14, Variant.BOUNDED)), 3500
        )
        for xi in (1.01, 1.05, 1.2, 1.5, 2.0, 5.0, 100.0):
            assert angular_mean_rho(series, xi) >= 0.0
        checked += 1
    return checked


def run_determinism(n_drivers: int = 50) -> int:
    rng = np.random.default_rng(106)
    checked = 0
    for variant in Variant:
        for _ in range(n_drivers):
            d = random_driver(rng)
            eta1 = eta_sequence(d, 10)
            eta2 = eta_sequence(d, 10)
            assert eta1.values == eta2.values
            m1 = build_matrices(eta1, 9, variant)
            m2 = build_matrices(eta2, 9, variant)
            assert eigen_spectrum(m1) == eigen_spectrum(m2)
            checked += 1
    for variant in Variant:
        d = random_driver(rng)
        eta = eta_sequence(d, 12)
        assert beta2(eta, variant, 12) == beta2(eta, variant, 12)
        sys_ = FuchsianSystem(build_matrices(eta, 4, variant))
        lad = GeometricLadder(j_min=4, j_max=9)
        assert blowup_exponent(sys_, ladder=lad) == blowup_exponent(
            sys_, ladder=lad
        )
        checked += 1
    return checked


# ---- realness of slightly perturbed truncation families ----

# all-real onset scales measured at 1000 draws per N; tests run at ~half
PERTURBATION_SCALES = {
    3: 1e-3,
    4: 1e-3,
    5: 3e-5,
    6: 2e-5,
    7: 2e-6,
    8: 5e-8,
}


def _perturbed_bounded_eta(n: int, scale: float, rng) -> tuple[float, ...]:
    kappa = 2.0 * (n - 2) / n**2
    vals = []
    for k in range(1, n):
        v = kappa * k * k / 2.0 + float(rng.uniform(-scale, scale))
        vals.append(max(v, 0.0))
    return tuple(vals)


@pytest.mark.parametrize("n", sorted(PERTURBATION_SCALES))
def test_perturbed_truncation_stays_real(n):
    scale = PERTURBATION_SCALES[n]
    rng = np.random.default_rng(2000 + n)
    for _ in range(50):
        eta = validate_eta(_perturbed_bounded_eta(n, scale, rng))
        s = eigen_spectrum(build_matrices(eta, n, Variant.BOUNDED))
        assert s.all_real
        assert s.n_nonneg_real == 1
        gaps = [
            abs(a - b)
            for i, a in enumerate(s.eigenvalues)
            for b in s.eigenvalues[i + 1 :]
        ]
        assert min(gaps) > 2e-7  # non-degenerate


def test_perturbed_n5_large_scale_goes_complex():
    # at scale 1e-3 the N=5 family genuinely leaves the real axis
    # (confirmed at 50-digit precision, not solver noise), while 3e-5 keeps
    # all 200 seeded draws real
    complex_hits = 0
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        eta = validate_eta(_perturbed_bounded_eta(5, 1e-3, rng))
        s = eigen_spectrum(build_matrices(eta, 5, Variant.BOUNDED))
        if not s.all_real:
            complex_hits += 1
    assert complex_hits >= 1

    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        eta = validate_eta(_perturbed_bounded_eta(5, 3e-5, rng))
        s = eigen_spectrum(build_matrices(eta, 5, Variant.BOUNDED))
        assert s.all_real
