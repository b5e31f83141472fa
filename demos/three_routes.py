#!/usr/bin/env python3
"""Computes beta(2) by three independent routes and compares them.

Route 1: maximal real eigenvalue of the truncated evolution matrix.
Route 2: largest real root of the characteristic polynomial, evaluated
         through its three-term recurrence (no matrix involved).
Route 3: direct fit of the blowup exponent of the angular second moment
         on a geometric ladder approaching the unit circle.

The routes share no numerics beyond the exponent sequence eta_n, so
agreement is a strong end-to-end check.
"""

import time

from llespec import (
    FuchsianSystem,
    LevyDriver,
    Variant,
    blowup_exponent,
    build_matrices,
    eigen_spectrum,
    eta_sequence,
    max_real_root_detailed,
    recurrence_coefficients,
)

CASES = [
    ("unbounded, eta_1 = 1 (closes at N=2)", LevyDriver(kappa=2.0), 2, Variant.UNBOUNDED),
    ("unbounded SLE, kappa = 4/9 (closes at N=6)", LevyDriver(kappa=4.0 / 9.0), 6, Variant.UNBOUNDED),
    ("bounded, uniform jump rate 1 (closes at N=3)", LevyDriver(uniform_rate=1.0), 3, Variant.BOUNDED),
]


def main():
    for label, driver, n, variant in CASES:
        eta = eta_sequence(driver, n)
        m = build_matrices(eta, n, variant)

        by_eigen = eigen_spectrum(m).max_real
        by_root = max_real_root_detailed(
            recurrence_coefficients(eta, n, variant)
        ).value

        t0 = time.perf_counter()
        fit = blowup_exponent(FuchsianSystem(m))
        dt = time.perf_counter() - t0

        print(f"\n{label}")
        print(f"  eigenvalue route : {by_eigen:.15g}")
        print(f"  char-poly route  : {by_root:.15g}")
        print(f"  blowup fit       : {fit.beta_est:.15g}  ({dt:.3f} s)")
        lo, hi = sorted(fit.window)
        print(f"    fit window xi in [{lo:.8g}, {hi:.8g}]")
        print(f"    slope residual {fit.residual:.2e}, "
              f"oscillation: {fit.oscillation_detected}")
        spread = max(by_eigen, by_root, fit.beta_est) - min(by_eigen, by_root, fit.beta_est)
        print(f"  spread of the three routes: {spread:.2e}")


if __name__ == "__main__":
    main()
