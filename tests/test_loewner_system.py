import dataclasses
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from llespec import (
    CapacityError,
    LevyDriver,
    LoewnerMatrices,
    NumericalError,
    SizeError,
    TruncationNearMissWarning,
    Variant,
    build_matrices,
    charpoly_coefficients,
    charpoly_eval,
    eta_sequence,
    recurrence_coefficients,
    truncation_order,
    validate_eta,
)
from llespec.fuchsian_series import _local_bands
from llespec.loewner_system import (
    CharPolyRecurrence,
    _charpoly_taylor,
    _dense,
)
from llespec.spectral_solver import _gershgorin_upper
from tests.conftest import charpoly_log_abs, random_driver

ETA_SLE2 = eta_sequence(LevyDriver(kappa=2.0), 8)  # eta_n = n^2
ETA_PLE1 = eta_sequence(LevyDriver(uniform_rate=1.0), 8)  # eta_n = 1


class TestMatrixExamples:
    def test_unbounded_n2(self):
        m = build_matrices(ETA_SLE2, 2, Variant.UNBOUNDED)
        np.testing.assert_array_equal(m.b_dense(), [[3.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(m.a_dense(), [[0.0, 0.0], [-1.0, -1.0]])

    def test_unbounded_n1(self):
        m = build_matrices(ETA_SLE2, 1, Variant.UNBOUNDED)
        np.testing.assert_array_equal(m.b_dense(), [[3.0]])

    def test_bounded_n3(self):
        m = build_matrices(ETA_PLE1, 3, Variant.BOUNDED)
        np.testing.assert_array_equal(
            m.b_dense(), [[-1.0, 2.0, 0.0], [1.0, -2.0, 2.0], [0.0, 0.5, -2.0]]
        )
        np.testing.assert_array_equal(
            m.a_dense(), [[-1.0, 2.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, -0.5]]
        )

    def test_first_rows_pinned(self, rng):
        for _ in range(20):
            eta = eta_sequence(random_driver(rng), 6)
            unb = build_matrices(eta, 5, Variant.UNBOUNDED)
            bnd = build_matrices(eta, 5, Variant.BOUNDED)
            assert unb.a_dense()[0].tolist() == [0.0] * 5
            assert unb.b_dense()[0, :2].tolist() == [3.0, -2.0]
            assert bnd.a_dense()[0, :2].tolist() == [-1.0, 2.0]
            assert bnd.b_dense()[0, :2].tolist() == [-1.0, 2.0]

    def test_dense_matches_sum_of_diagonals(self, rng):
        # one allocation, yet bitwise the sum of np.diag matrices, signed
        # zeros included (the sum turns a band's -0.0 into +0.0)
        for n in range(1, 9):
            bands = [rng.standard_normal(n), rng.standard_normal(n - 1),
                     rng.standard_normal(n - 1)]
            for band in bands:
                band[rng.random(len(band)) < 0.4] = -0.0
            diag, sub, sup = bands
            want = np.diag(diag)
            want += np.diag(sup, 1) + np.diag(sub, -1)
            assert _dense(diag, sub, sup).tobytes() == want.tobytes()

    def test_a_off_is_stored_once_in_b(self):
        # A's off-diagonal is B's band on the same side, so no LoewnerMatrices
        # can hold an A and a B that disagree on it
        fields = {f.name for f in dataclasses.fields(LoewnerMatrices)}
        assert fields == {"variant", "n", "a_diag", "b_sub", "b_diag", "b_super"}
        unb = build_matrices(ETA_SLE2, 5, Variant.UNBOUNDED)
        bnd = build_matrices(ETA_PLE1, 5, Variant.BOUNDED)
        assert unb.a_off is unb.b_sub
        assert bnd.a_off is bnd.b_super

    def test_needs_eta_coverage(self):
        short = validate_eta((1.0, 4.0))
        with pytest.raises(SizeError):
            build_matrices(short, 4, Variant.UNBOUNDED)

    def test_difference_bands_cancel(self, rng):
        # in x = xi or 1/xi, A0 = A (unbounded) or B - A (bounded) is lower
        # bidiagonal and A0 - B upper bidiagonal
        for _ in range(10):
            eta = eta_sequence(random_driver(rng), 7)
            for variant in Variant:
                m = build_matrices(eta, 6, variant)
                a, b = m.a_dense(), m.b_dense()
                a0 = a if variant is Variant.UNBOUNDED else b - a
                (diag, sub), (ab_diag, ab_sup) = _local_bands(m)
                np.testing.assert_allclose(np.diag(a0), diag, rtol=0, atol=0)
                np.testing.assert_allclose(np.diag(a0, -1), sub, rtol=0, atol=0)
                assert np.all(np.diag(a0, 1) == 0.0)
                assert np.all(np.diag(a0 - b, -1) == 0.0)
                # for the bounded variant A0 - B is -A, formed without rounding
                dense = a - b if variant is Variant.UNBOUNDED else -a
                np.testing.assert_allclose(np.diag(dense), ab_diag, rtol=0, atol=0)
                np.testing.assert_allclose(np.diag(dense, 1), ab_sup, rtol=0, atol=0)
                assert np.all(np.diag(dense, -1) == 0.0)


class TestRecurrence:
    def test_unbounded_example(self):
        rec = recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        assert rec.a == (2.0,)
        assert rec.b == (3.0, 2.0)

    def test_bounded_example(self):
        rec = recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        assert rec.a == (2.0, 1.0)
        assert rec.b == (-1.0, -2.0, -2.0)

    def test_bounded_rational_a2(self):
        eta = validate_eta((1.0 / 9.0, 4.0 / 9.0))
        rec = recurrence_coefficients(eta, 3, Variant.BOUNDED)
        assert rec.a[0] == pytest.approx(1.0 / 9.0 + 1.0, abs=0)
        # (eta_2 - 2 + 2)(eta_1 + 3)/4 = (4/9)(28/9)/4 = 28/81
        assert rec.a[1] == pytest.approx(28.0 / 81.0, rel=1e-15)

    def test_offdiagonal_product_identity(self, rng):
        # a_n equals the product of B's matching sub and super entries
        for variant in Variant:
            for _ in range(20):
                eta = eta_sequence(random_driver(rng), 7)
                m = build_matrices(eta, 7, variant)
                rec = recurrence_coefficients(eta, 7, variant)
                prod = np.asarray(m.b_sub) * np.asarray(m.b_super)
                np.testing.assert_array_equal(prod, rec.a)


class TestCharPolyEval:
    def test_unbounded_p2_at_zero(self):
        rec = recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        # P_2 = (beta - 4)(beta - 1), P_2' = 2 beta - 5; exact, unscaled
        assert charpoly_eval(rec, 0.0) == (4.0, -5.0, 0.0)

    def test_bounded_p3_at_zero(self):
        rec = recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        # P_3 = beta^3 + 5 beta^2 + 5 beta - 1
        assert charpoly_eval(rec, 0.0) == (-1.0, 5.0, 0.0)

    def test_empty_recurrence_is_one(self):
        rec = recurrence_coefficients(ETA_SLE2, 1, Variant.UNBOUNDED)
        empty = type(rec)(variant=rec.variant, a=(), b=())
        assert charpoly_eval(empty, 5.0) == (1.0, 0.0, 0.0)

    def test_matches_determinant_small(self, rng):
        for variant in Variant:
            for _ in range(10):
                eta = eta_sequence(random_driver(rng), 12)
                n = int(rng.integers(1, 13))
                m = build_matrices(eta, n, variant)
                rec = recurrence_coefficients(eta, n, variant)
                for beta in rng.uniform(-6, 6, size=3):
                    want = np.linalg.det(
                        beta * np.eye(n) - m.b_dense()
                    )
                    p, _, log_scale = charpoly_eval(rec, float(beta))
                    assert log_scale == 0.0
                    assert p == pytest.approx(want, rel=1e-10, abs=1e-8)

    def test_matches_slogdet_large(self, rng):
        # N = 300: value overflows doubles, carrier tracks sign and log
        eta = eta_sequence(LevyDriver(kappa=1.0, uniform_rate=2.0), 300)
        n = 300
        m = build_matrices(eta, n, Variant.UNBOUNDED)
        rec = recurrence_coefficients(eta, n, Variant.UNBOUNDED)
        for beta in (11.0, -4.0):
            sign, logabs = np.linalg.slogdet(beta * np.eye(n) - m.b_dense())
            p, _, log_scale = charpoly_eval(rec, beta)
            assert np.sign(p) == sign
            assert charpoly_log_abs(rec, beta) == pytest.approx(logabs, rel=1e-12)
            assert log_scale != 0.0

    def test_complex_argument(self):
        rec = recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        z, dz, log_scale = charpoly_eval(rec, 1.0 + 1.0j)
        # (beta - 4)(beta - 1) and its derivative 2 beta - 5 at 1 + i
        assert z == pytest.approx((1 + 1j - 4) * (1 + 1j - 1), rel=1e-15)
        assert dz == pytest.approx(2 * (1 + 1j) - 5, rel=1e-15)
        assert log_scale == 0.0


def _exact_system(rng, n, variant):
    """Recurrence with small-rational eta, so charpoly_coefficients is exact."""
    eta = validate_eta(rng.integers(0, 40, size=n) / 4.0)
    return recurrence_coefficients(eta, n, variant)


class TestNewtonPair:
    def test_ratio_matches_exact(self, rng):
        for variant in Variant:
            for _ in range(10):
                n = int(rng.integers(1, 10))
                rec = _exact_system(rng, n, variant)
                coeffs = charpoly_coefficients(rec)
                for x in rng.uniform(-8, 12, size=3):
                    xf = Fraction(float(x))
                    p = sum(c * xf**k for k, c in enumerate(coeffs))
                    dp = sum(k * c * xf ** (k - 1) for k, c in enumerate(coeffs) if k)
                    got_p, got_dp, _ = charpoly_eval(rec, float(x))
                    if dp != 0:
                        assert got_p / got_dp == pytest.approx(
                            float(p / dp), rel=1e-10, abs=1e-12
                        )

    def test_rescaled_at_large_n(self):
        # P_300(11) overflows doubles; the ratio P/P' stays exact in form
        eta = eta_sequence(LevyDriver(kappa=1.0, uniform_rate=2.0), 300)
        rec = recurrence_coefficients(eta, 300, Variant.UNBOUNDED)
        p, dp, _ = charpoly_eval(rec, 11.0)
        h = 1e-6
        up, down = charpoly_log_abs(rec, 11.0 + h), charpoly_log_abs(rec, 11.0 - h)
        slope = (up - down) / (2 * h)
        assert np.isfinite(p) and np.isfinite(dp)
        assert dp / p == pytest.approx(slope, rel=1e-6)


class TestCharPolyTaylor:
    def test_matches_exact_shift_within_bound(self, rng):
        for variant in Variant:
            for _ in range(10):
                n = int(rng.integers(2, 10))
                rec = _exact_system(rng, n, variant)
                coeffs = charpoly_coefficients(rec)
                # above every root of every trailing block, where the bound holds
                c = _gershgorin_upper(rec) + float(rng.uniform(0.0, 5.0))
                scale = 4.0
                cf, sf = Fraction(c), Fraction(scale)
                exact = [
                    sum(coeffs[j] * comb(j, k) * cf ** (j - k) for j in range(k, n + 1))
                    * sf**k
                    for k in range(n + 1)
                ]
                t, err = _charpoly_taylor(rec, c, scale)
                factor = Fraction(float(t[-1])) / exact[-1]  # a power of two
                for tk, ek, want in zip(t, err, exact):
                    assert abs(Fraction(float(tk)) / factor - want) <= Fraction(
                        float(ek)
                    ) / factor
                    assert ek < np.inf

    def test_bound_is_inf_when_a_trailing_determinant_is_negative(self):
        # Q_1 = (c - b_1) + scale t has a negative constant term at c = 1
        rec = CharPolyRecurrence(variant=Variant.UNBOUNDED, a=(1.0,), b=(0.0, 5.0))
        _, err = _charpoly_taylor(rec, 1.0, 4.0)
        assert np.all(err == np.inf)


class TestCharPolyCoefficients:
    def test_bounded_ple_exact(self):
        rec = recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        coeffs = charpoly_coefficients(rec)
        assert coeffs == [Fraction(-1), Fraction(5), Fraction(5), Fraction(1)]
        assert all(isinstance(c, Fraction) for c in coeffs)

    def test_unbounded_exact(self):
        rec = recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        assert charpoly_coefficients(rec) == [4, -5, 1]

    def test_irrational_falls_back_to_float(self):
        eta = eta_sequence(LevyDriver(kappa=np.sqrt(2.0)), 3)
        rec = recurrence_coefficients(eta, 3, Variant.UNBOUNDED)
        coeffs = charpoly_coefficients(rec)
        assert all(type(c) is float for c in coeffs)
        # still the right polynomial: compare against eval at a point
        val = sum(c * 2.0**k for k, c in enumerate(coeffs))
        p, _, log_scale = charpoly_eval(rec, 2.0)
        assert log_scale == 0.0
        assert val == pytest.approx(p, rel=1e-12)

    def test_capacity_limit(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 600)
        rec = recurrence_coefficients(eta, 600, Variant.UNBOUNDED)
        with pytest.raises(CapacityError):
            charpoly_coefficients(rec)


class TestCharPolyCoefficientRange:
    # unbounded kappa = sqrt(2) takes the float path; its coefficients leave
    # double range from about degree 150
    @staticmethod
    def _rec(n):
        eta = eta_sequence(LevyDriver(kappa=np.sqrt(2.0)), n)
        return recurrence_coefficients(eta, n, Variant.UNBOUNDED)

    def test_degree_100_is_finite(self):
        coeffs = charpoly_coefficients(self._rec(100))
        assert len(coeffs) == 101
        assert all(type(c) is float and np.isfinite(c) for c in coeffs)

    def test_degree_200_raises_naming_the_degree(self):
        with pytest.raises(NumericalError, match="degree 200"):
            charpoly_coefficients(self._rec(200))


class TestTruncation:
    def test_unbounded_kappa2(self):
        # eta_n = n^2 meets n + 2 at n = 2
        assert truncation_order(ETA_SLE2, Variant.UNBOUNDED) == 2

    def test_bounded_ple(self):
        assert truncation_order(ETA_PLE1, Variant.BOUNDED) == 3

    def test_truncated_sle_family(self):
        for n in (3, 4, 5, 6, 7):
            kappa = 2.0 * (n + 2) / n**2
            eta = eta_sequence(LevyDriver(kappa=kappa), n + 2)
            assert truncation_order(eta, Variant.UNBOUNDED) == n

    def test_no_truncation(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 30)
        assert truncation_order(eta, Variant.UNBOUNDED) is None

    def test_near_miss_warns(self):
        vals = list(ETA_PLE1.values)
        vals[2] = 1.0 + 5e-7  # just off N - 2 = 1 at N = 3
        with pytest.warns(TruncationNearMissWarning):
            got = truncation_order(validate_eta(tuple(vals)), Variant.BOUNDED)
        assert got is None

    def test_exact_hit_does_not_warn(self, recwarn):
        truncation_order(ETA_PLE1, Variant.BOUNDED)
        assert not [
            w for w in recwarn if issubclass(w.category, TruncationNearMissWarning)
        ]
