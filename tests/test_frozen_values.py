"""The frozen uniform-rate curve of the acceptance suite, rebuilt without
llespec.

For the bounded variant with eta_n = lam, the system closes at N = lam + 2
(eta_N = N - 2), so beta(2) is the top root of the characteristic polynomial
of the N x N matrix B. Its bands are written here in exact rationals
straight from the displayed form: diagonal -eta_i - 1, superdiagonal 2 in
the first row and (eta_i + i + 2) / 2 below it, subdiagonal
(eta_i + 2 - i) / 2, with eta_0 = 0. mpmath finds the root at 60 digits,
and exact Sturm counts prove that it is the top one and that the frozen
double is its correctly rounded value.
"""

from fractions import Fraction

import mpmath
import pytest

from tests.test_acceptance import UNIFORM_RATE_CURVE

# the root is trusted to this distance; 60-digit arithmetic gives far more
_BRACKET = Fraction(1, 10**50)


def _recurrence(lam: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """(a_1..a_{N-1}, b_0..b_{N-1}) of P_{k+1} = (x - b_k) P_k - a_k P_{k-1}
    for the closing bounded system with eta_n = lam."""
    n = int(lam) + 2
    eta = [Fraction(0)] + [lam] * (n - 1)
    b = [-eta[i] - 1 for i in range(n)]
    sup = [Fraction(2) if i == 0 else (eta[i] + i + 2) / 2 for i in range(n - 1)]
    sub = [(eta[i] + 2 - i) / 2 for i in range(1, n)]
    return [s * t for s, t in zip(sub, sup)], b


def _roots_above(a, b, x: Fraction) -> int:
    """Roots of P_N above x: the sign changes of P_0(x), ..., P_N(x), a
    Sturm sequence because every a_k is positive. Exact arithmetic."""
    p_prev, p_cur, changes = Fraction(0), Fraction(1), 0
    for a_k, b_k in zip([Fraction(0)] + a, b):
        p_prev, p_cur = p_cur, (x - b_k) * p_cur - a_k * p_prev
        assert p_cur != 0, "x is a root of a leading minor; move the bracket"
        changes += (p_cur < 0) != (p_prev < 0)
    return changes


@pytest.mark.parametrize("lam", sorted(UNIFORM_RATE_CURVE))
def test_frozen_value_is_the_rounded_top_root(lam):
    assert lam == int(lam)
    a, b = _recurrence(Fraction(lam))
    assert all(a_k > 0 for a_k in a)
    with mpmath.workdps(60):
        a_mp = [mpmath.mpf(x.numerator) / x.denominator for x in a]
        b_mp = [mpmath.mpf(x.numerator) / x.denominator for x in b]

        def p_n(x):
            p_prev, p_cur = mpmath.mpf(0), mpmath.mpf(1)
            for a_k, b_k in zip([0] + a_mp, b_mp):
                p_prev, p_cur = p_cur, (x - b_k) * p_cur - a_k * p_prev
            return p_cur

        # at N = 100, P_N is ~1e169 at the frozen double, far above
        # findroot's residual tolerance; the Sturm counts below check instead
        root = mpmath.findroot(
            p_n, mpmath.mpf(UNIFORM_RATE_CURVE[lam]), verify=False
        )
        man, exp = root.man_exp
    root = Fraction(man) * Fraction(2) ** exp
    lo, hi = root - _BRACKET, root + _BRACKET
    assert _roots_above(a, b, hi) == 0
    assert _roots_above(a, b, lo) == 1
    # float() of a Fraction rounds correctly, and rounding is monotone
    assert float(lo) == float(hi) == UNIFORM_RATE_CURVE[lam]
