#!/usr/bin/env python3
"""Spectra of truncated SLE systems against their closed forms.

For kappa = 2(N+2s)/N^2, s = +1 (unbounded) or s = -1 (bounded), the
evolution matrix closes at size N and its eigenvalues are known exactly:

    beta_l = (N+2s - (2N^2-3N-6s) l + 2(N+2s) l^2) / N^2,  l = 0..N-1.

The closed form and the computed spectrum are printed side by side, with
the largest difference between them. Two members repeat eigenvalues:
unbounded N = 6 and bounded N = 10. A real double eigenvalue can come out
of the eigensolver as a complex pair, as bounded N = 10's do (|Im| ~1e-6).
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
    closed = sorted(truncated_sle_spectrum(n, variant), reverse=True)
    print(f"  closed form : {[round(v, 12) for v in closed]}")
    print(f"  computed    : {[round(v, 12) for v in eig]}")
    gap = max(abs(a - b) for a, b in zip(closed, eig))
    im = max(abs(e.imag) for e in spec.eigenvalues)
    print(f"  beta(2) = max = {spec.max_real:.12g}")
    print(f"  largest |difference| = {gap:.1e}, largest |Im| = {im:.1e}")
    degenerate = [(m, round(c.real, 9)) for c, m in spec.clusters if m > 1]
    if degenerate:
        print(f"  repeated eigenvalues (multiplicity, value): {degenerate}")


def main():
    print("unbounded closed form: beta_l = (N+2 - (2N^2-3N-6)l + 2(N+2)l^2)/N^2")
    for n in (2, 4, 6, 8):
        show(Variant.UNBOUNDED, n, 2.0 * (n + 2) / n**2)

    print("\nbounded closed form: beta_l = (N-2 - (2N^2-3N+6)l + 2(N-2)l^2)/N^2")
    print("(top value beta_0 = kappa_N/2 = (N-2)/N^2, the one nonnegative eigenvalue)")
    for n in (3, 5, 8, 10):
        show(Variant.BOUNDED, n, 2.0 * (n - 2) / n**2)


if __name__ == "__main__":
    main()
