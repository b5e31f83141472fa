#!/usr/bin/env python3
"""Spectra of truncated SLE systems against their closed forms.

For kappa = 2(N+2)/N^2 the unbounded evolution matrix closes at size N and
its eigenvalues are known exactly: the closed form and the computed spectrum
are printed side by side, including the double eigenvalues that appear at
N = 6. The bounded variant closes at kappa_N = 2(N-2)/N^2, but only its top
eigenvalue kappa_N/2 has a closed form, so its computed spectrum is printed
with that one check.
"""

from llespec import (
    LevyDriver,
    Variant,
    build_matrices,
    eigen_spectrum,
    eta_sequence,
    truncated_sle_spectrum,
)


def show(variant, n, kappa):
    eta = eta_sequence(LevyDriver(kappa=kappa), n)
    spec = eigen_spectrum(build_matrices(eta, n, variant))
    print(f"\n{variant.value} N={n}  kappa={kappa:.6g}")
    eig = sorted((e.real for e in spec.eigenvalues), reverse=True)
    if variant is Variant.UNBOUNDED:
        closed = sorted(truncated_sle_spectrum(n, variant), reverse=True)
        print(f"  closed form : {[round(v, 12) for v in closed]}")
    print(f"  computed    : {[round(v, 12) for v in eig]}")
    if variant is Variant.BOUNDED:
        gap = abs(spec.max_real - kappa / 2.0)
        print(f"  kappa_N/2 = {kappa / 2.0:.12g}, |max - kappa_N/2| = {gap:.1e}")
    print(f"  beta(2) = max = {spec.max_real:.12g}")
    degenerate = [(m, round(c.real, 9)) for c, m in spec.clusters if m > 1]
    if degenerate:
        print(f"  repeated eigenvalues (multiplicity, value): {degenerate}")


def main():
    print("unbounded closed form: beta_l = (N+2 - (2N^2-3N-6)l + 2(N+2)l^2)/N^2")
    for n in (2, 4, 6, 8):
        show(Variant.UNBOUNDED, n, 2.0 * (n + 2) / n**2)

    print("\nbounded variant: single nonnegative eigenvalue kappa_N/2 = (N-2)/N^2")
    for n in (3, 5, 8):
        show(Variant.BOUNDED, n, 2.0 * (n - 2) / n**2)


if __name__ == "__main__":
    main()
