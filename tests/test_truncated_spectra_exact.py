"""The closed-form spectra of the truncating Brownian families, proved
without llespec's solvers.

kappa = 2(N + 2s)/N^2 closes the system at size N, s = +1 (unbounded) or
s = -1 (bounded); eta_i = kappa i^2 / 2. B's bands are written here in exact
rationals straight from the displayed form, with eta_0 = 0:

    unbounded: diagonal 3 - eta_i, superdiagonal -2 in the first row and
               (eta_i + i - 2) / 2 below it, subdiagonal (eta_i - i - 2) / 2
    bounded:   diagonal -eta_i - 1, superdiagonal 2 in the first row and
               (eta_i + i + 2) / 2 below it, subdiagonal (eta_i + 2 - i) / 2

P_N, the characteristic polynomial from the three-term recurrence, and
prod_l (x - lambda_l) with

    lambda_l = (N + 2s - (2N^2 - 3N - 6s) l + 2(N + 2s) l^2) / N^2

are both monic of degree N, so agreement at N + 1 points proves them equal.
"""

from fractions import Fraction

import pytest

from llespec import Variant, truncated_sle_spectrum

SIZES = range(3, 41)


def _recurrence(n: int, s: int) -> tuple[list[Fraction], list[Fraction]]:
    """(a_1..a_{N-1}, b_0..b_{N-1}) of P_{k+1} = (x - b_k) P_k - a_k P_{k-1}."""
    kappa = Fraction(2 * (n + 2 * s), n * n)
    eta = [kappa * i * i / 2 for i in range(n)]
    if s == 1:
        b = [3 - eta[i] for i in range(n)]
        sup = [-2] + [(eta[i] + i - 2) / 2 for i in range(1, n - 1)]
        sub = [(eta[i] - i - 2) / 2 for i in range(1, n)]
    else:
        b = [-eta[i] - 1 for i in range(n)]
        sup = [2] + [(eta[i] + i + 2) / 2 for i in range(1, n - 1)]
        sub = [(eta[i] + 2 - i) / 2 for i in range(1, n)]
    return [p * q for p, q in zip(sub, sup)], b


def _closed_form(n: int, s: int) -> list[Fraction]:
    return [
        Fraction(
            n + 2 * s - (2 * n * n - 3 * n - 6 * s) * l + 2 * (n + 2 * s) * l * l,
            n * n,
        )
        for l in range(n)
    ]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_closed_form_is_the_characteristic_polynomial(variant):
    s = 1 if variant is Variant.UNBOUNDED else -1
    for n in SIZES:
        a, b = _recurrence(n, s)
        lam = _closed_form(n, s)
        for x in range(n + 1):
            p_prev, p_cur = Fraction(0), Fraction(1)
            for a_k, b_k in zip([Fraction(0)] + a, b):
                p_prev, p_cur = p_cur, (x - b_k) * p_cur - a_k * p_prev
            product = Fraction(1)
            for value in lam:
                product *= x - value
            assert p_cur == product, (n, x)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_returned_values_are_the_rounded_closed_form(variant):
    # float() of a Fraction rounds correctly; unbounded values come in l
    # order, bounded ones descending
    s = 1 if variant is Variant.UNBOUNDED else -1
    for n in SIZES:
        want = [float(v) for v in _closed_form(n, s)]
        if s == -1:
            want.sort(reverse=True)
        assert truncated_sle_spectrum(n, variant) == want
