#!/usr/bin/env python3
"""Computes beta(2) by three independent routes and compares them.

Route 1: maximal real eigenvalue of the truncated evolution matrix.
Route 2: largest real root of the characteristic polynomial, evaluated
         through its three-term recurrence (no matrix involved).
Route 3: direct fit of the blowup exponent of the angular second moment
         on a geometric ladder approaching the unit circle.

The routes share no numerics beyond the exponent sequence eta_n, so
agreement is a strong end-to-end check: the demo exits with status 1 when
route 2's root is not certified (it fell back to the eigenvalue route) or
when the three values spread by more than SPREAD_REL of their size.
"""

import sys
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

# the three cases spread by 2e-16 to 2e-15 relative
SPREAD_REL = 1e-5


def main() -> int:
    failures = []
    for label, driver, n, variant in CASES:
        eta = eta_sequence(driver, n)
        m = build_matrices(eta, n, variant)

        by_eigen = eigen_spectrum(m).max_real
        root = max_real_root_detailed(recurrence_coefficients(eta, n, variant))
        by_root = root.value

        t0 = time.perf_counter()
        fit = blowup_exponent(FuchsianSystem(m))
        dt = time.perf_counter() - t0

        print(f"\n{label}")
        print(f"  eigenvalue route : {by_eigen:.15g}")
        print(f"  char-poly route  : {by_root:.15g}  (used_fallback={root.used_fallback})")
        print(f"  blowup fit       : {fit.beta_est:.15g}  ({dt:.3f} s)")
        lo, hi = sorted(fit.window)
        print(f"    fit window xi in [{lo:.8g}, {hi:.8g}]")
        print(f"    slope residual {fit.residual:.2e}, "
              f"oscillation: {fit.oscillation_detected}")
        values = (by_eigen, by_root, fit.beta_est)
        spread = max(values) - min(values)
        rel = spread / max(map(abs, values))
        print(f"  spread of the three routes: {spread:.2e} ({rel:.1e} relative)")
        if root.used_fallback:
            failures.append(f"{label}: the char-poly root is not certified")
        if not rel <= SPREAD_REL:
            failures.append(f"{label}: relative spread {rel:.1e} exceeds {SPREAD_REL:.0e}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
