import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from llespec import (
    CapacityError,
    DegeneracyError,
    DomainError,
    FuchsianSystem,
    GeometricLadder,
    LevyDriver,
    NumericalError,
    ThetaSeries,
    ValidationError,
    Variant,
    analytic_null_vector,
    angular_mean_rho,
    blowup_exponent,
    build_matrices,
    eigen_spectrum,
    eta_sequence,
    evaluate_theta,
    evaluate_theta_with_tail,
    perturbed_n6_driver,
    series_solution,
    validate_eta,
)
from llespec import fuchsian_series
from llespec.fuchsian_series import SERIES_TERM_LIMIT
from llespec.loewner_system import DENSE_LIMIT, LoewnerMatrices
from tests.conftest import random_driver

ETA_SLE2 = eta_sequence(LevyDriver(kappa=2.0), 8)
ETA_PLE1 = eta_sequence(LevyDriver(uniform_rate=1.0), 8)


def _system(eta, n, variant):
    return FuchsianSystem(build_matrices(eta, n, variant))


def _theta_derivative(series, xi):
    """d theta / d xi from the term-by-term derivative of the series in x,
    x = xi (unbounded) or 1/xi (bounded, where dx/dxi = -1/xi^2)."""
    k = np.arange(1, series.order + 1)
    if series.variant is Variant.UNBOUNDED:
        return series.coefficients[1:].T @ (k * xi ** (k - 1))
    return -(series.coefficients[1:].T @ (k * (1.0 / xi) ** (k - 1))) / (xi * xi)


class TestNullVector:
    def test_unbounded_n2(self):
        v = analytic_null_vector(build_matrices(ETA_SLE2, 2, Variant.UNBOUNDED))
        np.testing.assert_allclose(v, [1.0, -1.0], rtol=0, atol=0)

    def test_bounded_ple_n3(self):
        v = analytic_null_vector(build_matrices(ETA_PLE1, 3, Variant.BOUNDED))
        np.testing.assert_allclose(v, [1.0, 1.0, 1.0 / 3.0], rtol=1e-15)

    def test_n1(self):
        v = analytic_null_vector(build_matrices(ETA_SLE2, 1, Variant.UNBOUNDED))
        assert v.tolist() == [1.0]

    def test_annihilated_by_residue_matrix(self, rng):
        for variant in Variant:
            for _ in range(10):
                eta = eta_sequence(random_driver(rng), 7)
                m = build_matrices(eta, 6, variant)
                v = analytic_null_vector(m)
                res = m.a_dense() if variant is Variant.UNBOUNDED else (
                    m.b_dense() - m.a_dense()
                )
                np.testing.assert_allclose(
                    res @ v, np.zeros(6), rtol=0, atol=1e-12 * np.max(np.abs(v))
                )

    def test_degenerate_pivot_detected(self):
        m = build_matrices(ETA_SLE2, 3, Variant.UNBOUNDED)
        doctored = LoewnerMatrices(
            variant=m.variant,
            a_diag=np.array([0.0, 0.0, -2.5]),  # zero pivot at row 1
            b_sub=m.b_sub,
            b_diag=m.b_diag,
            b_super=m.b_super,
        )
        with pytest.raises(DegeneracyError):
            analytic_null_vector(doctored)


class TestSeriesSolution:
    def test_starts_at_null_vector(self):
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        series = series_solution(sys, 10)
        np.testing.assert_array_equal(series.coefficients[0], [1.0, -1.0])
        assert evaluate_theta(series, 0.0).tolist() == [1.0, -1.0]

    def test_n1_unbounded_is_cubic_growth(self):
        # eta irrelevant at N = 1: theta_0 = (1 - xi)^{-3}
        series = series_solution(_system(ETA_SLE2, 1, Variant.UNBOUNDED), 40)
        binom = [(k + 1) * (k + 2) / 2.0 for k in range(41)]
        np.testing.assert_allclose(series.coefficients[:, 0], binom, rtol=1e-13)

    def test_n1_bounded_terminates(self):
        series = series_solution(_system(ETA_PLE1, 1, Variant.BOUNDED), 10)
        np.testing.assert_allclose(
            series.coefficients[:, 0], [1.0, -1.0] + [0.0] * 9, atol=1e-15
        )

    def test_k_terms_validation(self):
        with pytest.raises(ValidationError):
            series_solution(_system(ETA_SLE2, 2, Variant.UNBOUNDED), 0)
        with pytest.raises(CapacityError, match="k_terms"):
            series_solution(
                _system(ETA_SLE2, 2, Variant.UNBOUNDED), SERIES_TERM_LIMIT + 1
            )

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ([1.0, 2.0], "shape"),
            (np.zeros((0, 2)), "shape"),
            ([[2.0, 0.0], [1.0, 1.0]], r"c_0\[0\] = 1"),
        ],
        ids=["one-dimensional", "no-rows", "not-normalized"],
    )
    def test_theta_series_validation(self, coefficients, message):
        with pytest.raises(ValidationError, match=message):
            ThetaSeries(Variant.UNBOUNDED, np.asarray(coefficients))

    def test_resonant_shift_detected(self):
        # a diagonal entry of A (unbounded) or B - A (bounded) equal to an
        # integer j makes the solve for c_j singular; the first such j counts
        cases = (
            (ETA_SLE2, Variant.UNBOUNDED, [0.0, 5.0, 3.0], 3),
            # B's diagonal is (-1, -2, -2), so B - A's is (0, 2, 0.5)
            (ETA_PLE1, Variant.BOUNDED, [-1.0, -4.0, -2.5], 2),
        )
        for eta, variant, a_diag, index in cases:
            m = dataclasses.replace(
                build_matrices(eta, 3, variant), a_diag=np.array(a_diag)
            )
            series_solution(FuchsianSystem(m), index - 1)
            with pytest.raises(DegeneracyError, match=f"series index {index}$"):
                series_solution(FuchsianSystem(m), 10)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_recurrence_residual(self, rng, variant):
        # every step solves its recurrence row by row to rounding:
        # unbounded (A - (k+1) I) c_{k+1} = (A - B - k I) c_k, bounded
        # (A - B + k I) c_k = B s_k with s_k = c_0 + ... + c_{k-1}
        k_terms = 700
        for n in (1, 3, 14):
            for _ in range(3):
                m = build_matrices(eta_sequence(random_driver(rng), 14), n, variant)
                c = series_solution(FuchsianSystem(m), k_terms).coefficients
                a, b, eye = m.a_dense(), m.b_dense(), np.eye(n)
                prefix = np.cumsum(c, axis=0)
                for k in range(k_terms):
                    if variant is Variant.UNBOUNDED:
                        lhs, x = a - (k + 1) * eye, c[k + 1]
                        rhs, y = a - b - k * eye, c[k]
                    else:
                        lhs, x = a - b + (k + 1) * eye, c[k + 1]
                        rhs, y = b, prefix[k]
                    residual = np.abs(lhs @ x - rhs @ y)
                    scale = np.abs(lhs) @ np.abs(x) + np.abs(rhs) @ np.abs(y)
                    assert np.all(residual <= 1e-13 * scale), (n, k)

    def test_ode_residual_unbounded(self, rng):
        # xi (xi - 1) theta' = ((xi - 1) A - xi B) theta
        for _ in range(20):
            eta = eta_sequence(random_driver(rng), 8)
            n = int(rng.integers(1, 9))
            m = build_matrices(eta, n, Variant.UNBOUNDED)
            series = series_solution(FuchsianSystem(m), 400)
            a, b = m.a_dense(), m.b_dense()
            for xi in rng.uniform(0.05, 0.8, size=3):
                xi = float(xi)
                th = evaluate_theta(series, xi)
                dth = _theta_derivative(series, xi)
                lhs = xi * (xi - 1.0) * dth
                rhs = ((xi - 1.0) * a - xi * b) @ th
                scale = np.max(np.abs(rhs)) + np.max(np.abs(lhs)) + 1.0
                assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

    def test_ode_residual_bounded(self, rng):
        for _ in range(10):
            eta = eta_sequence(random_driver(rng), 8)
            n = int(rng.integers(1, 9))
            m = build_matrices(eta, n, Variant.BOUNDED)
            series = series_solution(FuchsianSystem(m), 400)
            a, b = m.a_dense(), m.b_dense()
            for xi in (2.0, 5.0, 10.0):
                th = evaluate_theta(series, xi)
                dth = _theta_derivative(series, xi)
                lhs = xi * (xi - 1.0) * dth
                rhs = ((xi - 1.0) * a - xi * b) @ th
                scale = np.max(np.abs(rhs)) + np.max(np.abs(lhs)) + 1.0
                assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


class TestEvaluation:
    def test_domain_unbounded(self):
        series = series_solution(_system(ETA_SLE2, 2, Variant.UNBOUNDED), 10)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                evaluate_theta(series, bad)

    def test_domain_bounded(self):
        series = series_solution(_system(ETA_PLE1, 3, Variant.BOUNDED), 10)
        for bad in (0.5, 1.0):
            with pytest.raises(DomainError):
                evaluate_theta(series, bad)

    def test_bounded_at_infinity(self):
        series = series_solution(_system(ETA_PLE1, 3, Variant.BOUNDED), 10)
        np.testing.assert_array_equal(
            evaluate_theta(series, math.inf), series.coefficients[0]
        )

    def test_tail_bound_is_honest(self):
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        short = series_solution(sys, 500)
        long = series_solution(sys, 2000)
        for xi in (0.5, 0.9):
            got, tail = evaluate_theta_with_tail(short, xi)
            ref = evaluate_theta(long, xi)
            assert tail < 1e-10
            assert np.max(np.abs(got - ref)) <= 10 * tail + 1e-14


class TestAngularMean:
    def test_normalized_at_zero(self):
        series = series_solution(_system(ETA_SLE2, 2, Variant.UNBOUNDED), 10)
        assert angular_mean_rho(series, 0.0) == 1.0

    def test_quadrature_identity_unbounded(self, rng):
        # 256-point circle average of
        # (1 - 2 sqrt(xi) cos phi + xi)(theta_0 + 2 sum theta_n xi^{n/2} cos n phi)
        eta = eta_sequence(random_driver(rng), 8)
        series = series_solution(_system(eta, 6, Variant.UNBOUNDED), 300)
        xi = 0.7
        th = evaluate_theta(series, xi)
        phi = 2 * np.pi * np.arange(256) / 256
        profile = th[0] + 2 * sum(
            th[n] * xi ** (n / 2.0) * np.cos(n * phi) for n in range(1, 6)
        )
        weight = 1 - 2 * np.sqrt(xi) * np.cos(phi) + xi
        quad = float(np.mean(weight * profile))
        assert angular_mean_rho(series, xi) == pytest.approx(quad, rel=1e-9)

    def test_quadrature_identity_bounded(self, rng):
        eta = eta_sequence(random_driver(rng), 8)
        series = series_solution(_system(eta, 6, Variant.BOUNDED), 300)
        xi = 1.5
        th = evaluate_theta(series, xi)
        phi = 2 * np.pi * np.arange(256) / 256
        profile = th[0] + 2 * sum(
            th[n] * xi ** (-n / 2.0) * np.cos(n * phi) for n in range(1, 6)
        )
        weight = 1 - 2 * np.cos(phi) / np.sqrt(xi) + 1 / xi
        quad = float(np.mean(weight * profile))
        assert angular_mean_rho(series, xi) == pytest.approx(quad, rel=1e-9)

    def test_n1_has_no_cross_term(self):
        series = series_solution(_system(ETA_SLE2, 1, Variant.UNBOUNDED), 50)
        xi = 0.3
        th0 = evaluate_theta(series, xi)[0]
        assert angular_mean_rho(series, xi) == pytest.approx((1 + xi) * th0)


class TestLadder:
    def test_points_approach_one(self):
        lad = GeometricLadder(j_min=2, j_max=4)
        assert lad.points(Variant.UNBOUNDED) == [0.75, 0.875, 0.9375]
        assert lad.points(Variant.BOUNDED) == [1.25, 1.125, 1.0625]

    def test_validation(self):
        with pytest.raises(ValidationError):
            GeometricLadder(j_min=5, j_max=5)

    def test_j_max_stays_within_double_precision(self):
        lad = GeometricLadder(j_min=6, j_max=52)
        assert 1.0 not in lad.points(Variant.UNBOUNDED)
        assert 1.0 not in lad.points(Variant.BOUNDED)
        for j_max in (53, 10**9):
            with pytest.raises(ValidationError):
                GeometricLadder(j_min=6, j_max=j_max)


class TestBlowup:
    def test_unbounded_truncation_exponent(self):
        fit = blowup_exponent(_system(ETA_SLE2, 2, Variant.UNBOUNDED))
        assert not fit.oscillation_detected
        assert fit.beta_est == pytest.approx(4.0, abs=1e-5)
        assert fit.window[0] == pytest.approx(1 - 2.0**-22)
        assert fit.window[1] == pytest.approx(1 - 2.0**-6)

    def test_bounded_ple_exponent(self):
        fit = blowup_exponent(_system(ETA_PLE1, 3, Variant.BOUNDED))
        assert not fit.oscillation_detected
        assert fit.beta_est == pytest.approx(0.1700864866260337, abs=1e-4)

    def test_perturbed_spectrum_stays_monotone(self):
        # complex pairs sit below the real top eigenvalue, so the mean keeps
        # its sign and the fit tracks the eigenvalue route
        eta = eta_sequence(perturbed_n6_driver(1e-4), 6)
        m = build_matrices(eta, 6, Variant.UNBOUNDED)
        fit = blowup_exponent(FuchsianSystem(m))
        assert not fit.oscillation_detected
        top = eigen_spectrum(m).max_real
        assert fit.beta_est == pytest.approx(top, rel=0.02)

    def test_default_ladder_matches_eigenvalue(self):
        cases = (
            (ETA_SLE2, 2),
            (eta_sequence(LevyDriver(kappa=4.0 / 9.0), 6), 6),  # closes at N=6
        )
        for eta, n in cases:
            m = build_matrices(eta, n, Variant.UNBOUNDED)
            fit = blowup_exponent(FuchsianSystem(m))
            top = eigen_spectrum(m).max_real
            assert fit.beta_est == pytest.approx(top, abs=1e-7)

    def test_deep_ladder_matches_eigenvalue(self):
        # the fit keeps improving toward xi = 1 instead of losing the
        # distance 2^-j to cancellation
        eta = eta_sequence(LevyDriver(kappa=4.0 / 9.0), 6)
        m = build_matrices(eta, 6, Variant.UNBOUNDED)
        fit = blowup_exponent(FuchsianSystem(m), ladder=GeometricLadder(6, 34))
        assert not fit.oscillation_detected
        assert abs(fit.beta_est - eigen_spectrum(m).max_real) < 1e-8

    def test_deep_ladder_matches_eigenvalue_to_1e10(self):
        # with theta's 2^(beta t) growth taken out of the integrated
        # variable, the deep ladder resolves the eigenvalue to 1e-10
        eta = eta_sequence(LevyDriver(kappa=4.0 / 9.0), 6)
        m = build_matrices(eta, 6, Variant.UNBOUNDED)
        fit = blowup_exponent(FuchsianSystem(m), ladder=GeometricLadder(6, 34))
        assert abs(fit.beta_est - eigen_spectrum(m).max_real) < 1e-10

    @pytest.mark.parametrize("rate, n", [(1.0, 3), (3.0, 5)])
    def test_deep_bounded_ladder_matches_eigenvalue_to_1e10(self, rate, n):
        # every unit piece takes the same number of Magnus substeps, so the
        # integration error is a function of 2^-j that the fit removes, and
        # theta's growth is carried as an exact power of two
        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=rate), 8), n, Variant.BOUNDED
        )
        fit = blowup_exponent(FuchsianSystem(m), ladder=GeometricLadder(6, 30))
        assert abs(fit.beta_est - eigen_spectrum(m).max_real) < 1e-10

    @pytest.mark.parametrize(
        "rate, n", [(3000.0, 5), (1e4, 5), (1e4, 3)], ids=["3000-5", "1e4-5", "1e4-3"]
    )
    def test_strongly_driven_bounded(self, rate, n):
        # ln2 B is far from normal here: a rate taken from B at one vector can
        # lie far outside its spectrum, while the series' growth gives beta
        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=rate), n), n, Variant.BOUNDED
        )
        top = eigen_spectrum(m).max_real
        for j_max, tol in ((14, 1e-5), (30, 1e-8)):
            fit = blowup_exponent(FuchsianSystem(m), ladder=GeometricLadder(6, j_max))
            assert abs(fit.beta_est - top) < tol * top

    @pytest.mark.parametrize("rate", [1e5, 1e6], ids=["1e5", "1e6"])
    def test_very_strongly_driven_bounded(self, rate):
        # two substeps per piece overflow inside the exponential here; the
        # count doubles to 32 and 64, the same on every piece
        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=rate), 3), 3, Variant.BOUNDED
        )
        top = eigen_spectrum(m).max_real
        fit = blowup_exponent(FuchsianSystem(m))
        assert abs(fit.beta_est - top) < 1e-10 * abs(top)

    @pytest.mark.parametrize(
        "rate, q", [(1.0, 2), (1e5, 32)], ids=["rate1", "rate1e5"]
    )
    def test_every_piece_takes_the_same_substeps(self, monkeypatch, rate, q):
        # each exponent is h ln2 B + x A + y ln2 [B, A]; h, read back by least
        # squares, is 1/q on each of the last k q calls, the run that fills
        # the 22 pieces of the default ladder, and larger on every call of
        # the runs it replaced
        import scipy.linalg

        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=rate), 3), 3, Variant.BOUNDED
        )
        b, a = math.log(2.0) * m.b_dense(), m.a_dense()
        basis = np.stack([b, a, b @ a - a @ b]).reshape(3, -1).T
        steps = []
        expm = scipy.linalg.expm

        def recording(omega):
            steps.append(np.linalg.lstsq(basis, omega.ravel(), rcond=None)[0][0])
            return expm(omega)

        monkeypatch.setattr(scipy.linalg, "expm", recording)
        blowup_exponent(FuchsianSystem(m))
        k = GeometricLadder().j_max
        np.testing.assert_allclose(steps[-k * q :], 1.0 / q, rtol=1e-9)
        assert all(h > 1.5 / q for h in steps[: -k * q])

    def test_substep_cap_raises(self, monkeypatch):
        # rate 1e5 needs 32 substeps per piece to stay in finite range
        monkeypatch.setattr(fuchsian_series, "_SUBSTEP_LIMIT", 16)
        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=1e5), 3), 3, Variant.BOUNDED
        )
        with pytest.raises(NumericalError, match="finite range at 16 "):
            blowup_exponent(FuchsianSystem(m))

    @pytest.mark.parametrize("sign, oscillates", [(1.0, False), (-1.0, True)])
    def test_oscillation_test_takes_huge_means(self, monkeypatch, sign, oscillates):
        # means near 1e200: the product of two neighbours overflows, which
        # pytest turns into an error, while their signs compare exactly
        def chain(sys, t0, t1, theta0, r):
            i = np.arange(t1 - t0 + 1)
            out = np.zeros((t1 - t0 + 1, sys.n))
            out[:, 0] = 1e200 * 2.0**i * sign**i
            return out

        monkeypatch.setattr(fuchsian_series, "_integrate_log_distance", chain)
        fit = blowup_exponent(_system(ETA_SLE2, 2, Variant.UNBOUNDED))
        assert fit.oscillation_detected is oscillates
        assert math.isfinite(fit.beta_est)

    def test_non_finite_chain_raises(self, monkeypatch):
        def chain(sys, t0, t1, theta0, r):
            out = np.ones((t1 - t0 + 1, sys.n))
            out[-1] = np.inf
            return out

        monkeypatch.setattr(fuchsian_series, "_integrate_log_distance", chain)
        with pytest.raises(NumericalError, match="finite"):
            blowup_exponent(_system(ETA_SLE2, 2, Variant.UNBOUNDED))

    def test_ladder_from_the_integration_start(self, monkeypatch):
        # unbounded theta is summed at xi = 1/2, which is the ladder's j = 1;
        # the first slope is checked on the vector layout, since two Magnus
        # substeps per piece leave 1e-4 in the first piece's row, an error
        # smooth in 2^-j that the fit removes
        monkeypatch.setattr(fuchsian_series, "_MAGNUS_LIMIT", 0)
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        fit = blowup_exponent(sys, ladder=GeometricLadder(1, 9))
        series = series_solution(sys, 2000)
        g1, g2 = (angular_mean_rho(series, xi) for xi in (0.5, 0.75))
        assert fit.window[1] == 0.5
        assert len(fit.slopes) == 8
        assert fit.slopes[0] == pytest.approx(math.log2(abs(g2 / g1)), rel=1e-9)
        assert abs(fit.beta_est - 4.0) < 1e-3

    @pytest.mark.parametrize(
        "driver, n, variant",
        [
            (LevyDriver(kappa=6.0, uniform_rate=5.0), 8, Variant.UNBOUNDED),
            (LevyDriver(uniform_rate=98.5), 14, Variant.BOUNDED),
        ],
        ids=["unbounded-kappa6-rate5", "bounded-rate98.5"],
    )
    def test_stiff_driver_step_count(self, monkeypatch, driver, n, variant):
        # B's spectral radius is 100-210 here; DOP853 was stability-bound at
        # ~1,000 right-hand sides per piece, while the exponential takes the
        # default two substeps on each of the 17-18 pieces
        import scipy.integrate
        import scipy.linalg

        calls = []
        expm = scipy.linalg.expm

        def counting(omega):
            calls.append(1)
            return expm(omega)

        def refused(*args, **kwargs):
            raise AssertionError("solve_ivp called on the Magnus range")

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        monkeypatch.setattr(scipy.integrate, "solve_ivp", refused)
        blowup_exponent(_system(eta_sequence(driver, n), n, variant))
        assert 0 < len(calls) <= 4 * 22

    @pytest.mark.parametrize(
        "driver, n, variant",
        [
            (LevyDriver(kappa=0.3), 8, Variant.UNBOUNDED),
            (LevyDriver(uniform_rate=3.0), 5, Variant.BOUNDED),
            (LevyDriver(uniform_rate=98.5), 14, Variant.BOUNDED),
        ],
        ids=["unbounded-kappa0.3-8", "bounded-rate3-5", "bounded-rate98.5-14"],
    )
    def test_magnus_and_vector_solves_agree(self, monkeypatch, driver, n, variant):
        # _integrate_log_distance carries theta along the ladder by Magnus
        # steps up to its size limit and by one DOP853 solve above it
        sys = _system(eta_sequence(driver, n), n, variant)
        fits = []
        for limit in (n, n - 1):
            monkeypatch.setattr(fuchsian_series, "_MAGNUS_LIMIT", limit)
            fits.append(blowup_exponent(sys))
        np.testing.assert_allclose(fits[0].beta_est, fits[1].beta_est, rtol=1e-7)

    def test_large_system_forms_no_square_matrix(self):
        # above the Magnus size limit one DOP853 solve carries the N-vector
        # with a sparse stack of the bands, so a fit at N = 1024 holds less
        # than one N x N matrix; kappa = 2 (N + 2) / N^2 closes at N, where
        # beta(2) = 5 - 2/N
        n = 1024
        eta = eta_sequence(LevyDriver(kappa=2.0 * (n + 2) / n**2), n)
        sys = _system(eta, n, Variant.UNBOUNDED)
        blowup_exponent(sys, GeometricLadder(6, 7))  # imports scipy.integrate
        tracemalloc.start()
        try:
            fit = blowup_exponent(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        assert abs(fit.beta_est - (5.0 - 2.0 / n)) < 1e-12

    def test_oversized_system_refused_before_the_series(self, monkeypatch):
        # N above the dense limit is refused, as a capacity guard, before
        # any series term is computed
        def no_series(*args):
            raise AssertionError("series summed for an oversized system")

        monkeypatch.setattr(fuchsian_series, "series_solution", no_series)
        n = DENSE_LIMIT + 1
        sys = _system(eta_sequence(LevyDriver(kappa=1.0), n), n, Variant.UNBOUNDED)
        with pytest.raises(CapacityError, match=f"N <= {DENSE_LIMIT}, got N={n}$"):
            blowup_exponent(sys)

    def test_far_ladder_start_matches_eigenvalue(self):
        # the series is summed at x = 1/2 whatever the ladder, so a ladder
        # starting at 2^-20 from xi = 1 costs no extra series terms
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        fit = blowup_exponent(sys, ladder=GeometricLadder(20, 30))
        assert abs(fit.beta_est - eigen_spectrum(sys.matrices).max_real) < 1e-8

    @pytest.mark.parametrize(
        "eta, variant, beta, tol",
        [
            (ETA_SLE2, Variant.UNBOUNDED, 3.0, 1e-12),
            (ETA_PLE1, Variant.BOUNDED, -1.0, 1e-10),
        ],
        ids=["unbounded", "bounded"],
    )
    def test_n1_default_ladder(self, eta, variant, beta, tol):
        # at N = 1, beta is B's single entry; the mean is d^-beta times a
        # function analytic in d, whose 2^-j and 4^-j slope corrections the
        # fixed weights remove exactly
        fit = blowup_exponent(_system(eta, 1, variant))
        assert abs(fit.beta_est - beta) < tol * abs(beta)

    @pytest.mark.parametrize(
        "eta, n, variant, tol",
        [
            (validate_eta([0.75]), 2, Variant.UNBOUNDED, 1e-13),
            (validate_eta([1.0]), 2, Variant.UNBOUNDED, 1e-13),
            (validate_eta([1.25]), 2, Variant.UNBOUNDED, 1e-13),
            (
                eta_sequence(LevyDriver(kappa=4.0 / 9.0), 6),  # closes at N = 6
                6,
                Variant.UNBOUNDED,
                1e-13,
            ),
            (ETA_PLE1, 3, Variant.BOUNDED, 2e-13),
        ],
        ids=["n2-eta0.75", "n2-eta1", "n2-eta1.25", "n6-kappa4/9", "bounded-rate1-n3"],
    )
    def test_default_ladder_relative_error(self, eta, n, variant, tol):
        # the blowup benchmark's systems
        m = build_matrices(eta, n, variant)
        top = eigen_spectrum(m).max_real
        fit = blowup_exponent(FuchsianSystem(m))
        assert abs(fit.beta_est - top) < tol * abs(top)

    def test_random_drivers_default_ladder(self):
        # median 4.0e-15 and worst 7.2e-13 here at j_max 22 (DOP853 at j_max
        # 18: 9.2e-15 and 3.1e-10; at j_max 14 the median was 6.4e-13, the
        # fixed weights alone gave 1.8e-10 there, and the Aitken step on the
        # raw slopes that they replaced 1.7e-7)
        rng = np.random.default_rng(5)
        errors = []
        for i in range(24):
            driver, n = random_driver(rng), int(rng.integers(2, 17))
            variant = Variant.UNBOUNDED if i % 2 else Variant.BOUNDED
            m = build_matrices(eta_sequence(driver, n), n, variant)
            top = eigen_spectrum(m).max_real
            if abs(top) >= 1e-3:
                fit = blowup_exponent(FuchsianSystem(m))
                errors.append(abs(fit.beta_est - top) / abs(top))
        assert len(errors) >= 20
        assert np.median(errors) <= 1e-13
        assert max(errors) <= 5e-12

    def test_series_passes_extend_each_other(self, monkeypatch):
        # N = 2's tail needs 128 terms at x = 1/2: the second pass appends
        # rows 65..128 to the first pass's rows instead of summing from c_0
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        computed, seen = [], []
        extend, evaluate = fuchsian_series._extend_rows, evaluate_theta_with_tail

        def counting(m, rows, k_terms):
            k_done = len(rows) // m.n - 1
            extend(m, rows, k_terms)
            computed.extend(range(k_done + 1, k_terms + 1))

        def recording(series, xi):
            seen.append(series)
            return evaluate(series, xi)

        monkeypatch.setattr(fuchsian_series, "_extend_rows", counting)
        monkeypatch.setattr(fuchsian_series, "evaluate_theta_with_tail", recording)
        blowup_exponent(sys)
        assert [s.order for s in seen] == [64, 128]
        assert computed == list(range(1, 129))
        want = series_solution(sys, 128).coefficients
        assert [v.hex() for v in seen[-1].coefficients.ravel().tolist()] == [
            v.hex() for v in want.ravel().tolist()
        ]

    def test_slopes_and_residual_reported(self):
        lad = GeometricLadder(j_min=4, j_max=9)
        fit = blowup_exponent(_system(ETA_SLE2, 2, Variant.UNBOUNDED), ladder=lad)
        assert len(fit.slopes) == 5
        assert fit.residual >= 0.0


class TestExtrapolate:
    # _extrapolate on synthetic slopes s_j = beta + a 2^-j + b 4^-j + c rho^j
    # over the default ladder's j = 6..13

    J = np.arange(6, 14)

    @staticmethod
    def _fixed_weights(s):
        return (8 * s[-1] - 6 * s[-2] + s[-3]) / 3

    @pytest.mark.parametrize(
        "beta, a, b, c, rho",
        [
            (4.0, 0.5, -0.3, 0.2, 0.7),
            (0.17, -1.0, 2.0, -1e-4, 0.8),
            (-1.3, 0.2, 0.1, 3e-3, -0.6),
        ],
    )
    def test_one_geometric_mode_is_removed(self, beta, a, b, c, rho):
        # the fixed weights leave the rho^j mode, 2e-5 to 2e-4 relative
        s = beta + a * 2.0**-self.J + b * 4.0**-self.J + c * rho**self.J
        assert abs(self._fixed_weights(s) - beta) > 1e-5 * abs(beta)
        assert abs(fuchsian_series._extrapolate(s) - beta) <= 1e-13 * abs(beta)

    @pytest.mark.parametrize(
        "s",
        [
            # rho = -1: the differences do not contract
            2.5 + 2.0**-J + 4.0**-J + (-1.0) ** J,
            # |rho| = 0.03 < 1, but the ratio before it is 0.40: two modes
            2.0 + 0.9**J - 12 * 0.7**J,
            # five slopes give three fixed-weight values, two differences
            (4.0 + 0.5 * 2.0**-J + 0.2 * 0.7**J)[:5],
        ],
        ids=["rho-minus-1", "inconsistent-ratios", "five-slopes"],
    )
    def test_declined_step_keeps_the_fixed_weights(self, s):
        got = fuchsian_series._extrapolate(s)
        assert got.hex() == float(self._fixed_weights(s)).hex()

    def test_non_finite_or_flat_slopes_decline_without_warning(self):
        # flat slopes make the ratios 0 / 0, an infinite last slope makes them
        # inf; pytest would turn a RuntimeWarning from either into an error
        for s in (np.full(8, 2.0), np.append(np.arange(1.0, 8.0), np.inf)):
            assert fuchsian_series._extrapolate(s) == self._fixed_weights(s)


class TestIntegration:
    # _integrate_log_distance carries theta from t0 to t1 in unit pieces of
    # t = -log2|1 - xi|, on the side of xi = 1 that the variant evaluates:
    # by Magnus steps up to its size limit, by one DOP853 solve above it.
    # Both integrators are checked directly, the Magnus step at 64 substeps
    # per piece, where its rows are converged; the fit's two substeps leave
    # an error smooth in 2^-t, which its fixed weights remove

    INTEGRATORS = {
        "magnus": lambda sys, t0, t1, start, r: fuchsian_series._magnus_chain(
            sys, t0, t1, start, 64
        ),
        "vector": lambda sys, t0, t1, start, r: fuchsian_series._dop853_chain(
            sys, t0, t1, start, r
        ),
    }

    @staticmethod
    def _xi(variant, t):
        sign = -1.0 if variant is Variant.UNBOUNDED else 1.0
        return 1.0 + sign * 2.0**-t

    def _series_rows(self, sys, t0, t1):
        # theta at t0..t1 from the series, where its tail is below 1e-14
        series = series_solution(sys, 4000)
        rows = []
        for t in range(t0, t1 + 1):
            want, tail = evaluate_theta_with_tail(series, self._xi(sys.variant, t))
            assert tail < 1e-14 * np.max(np.abs(want))
            rows.append(want)
        return np.array(rows)

    def _check_series_rows(self, sys, t0, t1, integrators=("magnus", "vector")):
        # every row of each chain against the series
        want = self._series_rows(sys, t0, t1)
        for name in integrators:
            chain = self.INTEGRATORS[name](sys, t0, t1, want[0], 0.0)
            assert chain.shape == (t1 - t0 + 1, sys.n)
            np.testing.assert_allclose(chain, want, rtol=1e-8)

    def test_matches_series_unbounded(self):
        self._check_series_rows(_system(ETA_SLE2, 2, Variant.UNBOUNDED), 1, 5)

    def test_matches_series_bounded(self):
        self._check_series_rows(_system(ETA_PLE1, 3, Variant.BOUNDED), 0, 6)

    @pytest.mark.parametrize(
        "variant, t0, t1, integrators",
        [
            (Variant.UNBOUNDED, 2, 3, ("magnus", "vector")),  # one piece
            (Variant.BOUNDED, 1, 2, ("magnus", "vector")),
            (Variant.UNBOUNDED, 1, 6, ("magnus", "vector")),  # 5 pieces
            # 7 pieces from xi = 3: DOP853's rtol of 1e-10 builds up to
            # 1.2e-8 on the smallest component, 1e-4 of the largest
            (Variant.BOUNDED, -1, 6, ("magnus",)),
        ],
        ids=["unbounded-short", "bounded-short", "unbounded-5", "bounded-7"],
    )
    def test_matches_series_off_the_unit_grid(self, variant, t0, t1, integrators):
        # spans of one to seven unit pieces, on a system whose series needs
        # thousands of terms this close to xi = 1
        sys = _system(eta_sequence(LevyDriver(kappa=0.3), 6), 6, variant)
        self._check_series_rows(sys, t0, t1, integrators)

    @pytest.mark.parametrize(
        "variant, t0, exact",
        [
            # B = [3], A = [0]: theta = (1 - xi)^-3 grows by 2^147
            (Variant.UNBOUNDED, 1, lambda xi: (1 - xi) ** -3),
            # A = B = [-1]: theta = (xi - 1) / xi shrinks by 2^-50
            (Variant.BOUNDED, 0, lambda xi: (xi - 1) / xi),
        ],
        ids=["unbounded", "bounded"],
    )
    @pytest.mark.parametrize("integrator", ["magnus", "vector"])
    def test_n1_closed_form(self, variant, t0, exact, integrator):
        sys = _system(ETA_SLE2, 1, variant)
        start = np.array([exact(self._xi(variant, t0))])
        r = math.log(2.0) * sys.matrices.b_diag[0]
        got = self.INTEGRATORS[integrator](sys, t0, 50, start, r)
        want = [[exact(self._xi(variant, t))] for t in range(t0, 51)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_zero_start_stays_zero(self):
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fuchsian_series._integrate_log_distance(
                sys, 1, 10, np.zeros(2), 0.0
            )
        np.testing.assert_array_equal(got, np.zeros((10, 2)))

    def test_magnus_is_fourth_order(self):
        # doubling the substeps divides the rows' error by 2^4 = 16; without
        # the commutator term the step would be second order, dividing by 4
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        want = self._series_rows(sys, 1, 3)
        errors = [
            np.max(np.abs(fuchsian_series._magnus_chain(sys, 1, 3, want[0], q) - want))
            for q in (4, 8, 16)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14 < coarse / fine < 18

    def test_huge_start_scales_linearly(self):
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        start = np.array([1.0, 0.5])
        integrate = fuchsian_series._integrate_log_distance
        got = integrate(sys, 1, 4, 1e160 * start, 0.0)
        np.testing.assert_allclose(got, 1e160 * integrate(sys, 1, 4, start, 0.0))


def test_formal_eta_supported():
    # blowup route works from a raw exponent list, no driver involved
    eta = validate_eta((2.0, 4.0))
    fit = blowup_exponent(
        _system(eta, 2, Variant.UNBOUNDED), ladder=GeometricLadder(j_min=4, j_max=9)
    )
    assert math.isfinite(fit.beta_est)
