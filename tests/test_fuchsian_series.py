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
from llespec.closed_forms import truncated_sle_spectrum
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
            n=m.n,
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
        assert fit.window[0] == pytest.approx(1 - 2.0**-14)
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
        # each unit piece's propagator is integrated from the identity, so
        # the integration error does not build up along the ladder
        m = build_matrices(
            eta_sequence(LevyDriver(uniform_rate=rate), 8), n, Variant.BOUNDED
        )
        fit = blowup_exponent(FuchsianSystem(m), ladder=GeometricLadder(6, 30))
        assert abs(fit.beta_est - eigen_spectrum(m).max_real) < 1e-10

    def test_ladder_from_the_integration_start(self):
        # unbounded theta is summed at xi = 1/2, which is the ladder's j = 1
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
        # B's spectral radius is 100-210 here, so DOP853's steps are limited
        # by stability; per unit piece, not per ladder, that costs ~1,000
        # right-hand sides (a solve over the whole span took 6,600-8,200)
        import scipy.integrate

        nfev = []
        solve_ivp = scipy.integrate.solve_ivp

        def counting(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
        blowup_exponent(_system(eta_sequence(driver, n), n, variant))
        assert nfev and sum(nfev) <= 2000
        assert len(nfev) == 1  # one solve_ivp call per fit

    @pytest.mark.parametrize(
        "driver, n, variant",
        [
            (LevyDriver(kappa=0.3), 8, Variant.UNBOUNDED),
            (LevyDriver(uniform_rate=3.0), 5, Variant.BOUNDED),
            (LevyDriver(uniform_rate=98.5), 14, Variant.BOUNDED),
        ],
        ids=["unbounded-kappa0.3-8", "bounded-rate3-5", "bounded-rate98.5-14"],
    )
    def test_batched_and_vector_solves_agree(self, monkeypatch, driver, n, variant):
        # _integrate_log_distance carries theta along the ladder either way,
        # in one solve_ivp call per fit
        import scipy.integrate

        calls = []
        solve_ivp = scipy.integrate.solve_ivp

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
        sys = _system(eta_sequence(driver, n), n, variant)
        fits = []
        for batched in (True, False):
            monkeypatch.setattr(
                fuchsian_series, "_batching_pays", lambda m, k, b=batched: b
            )
            calls.clear()
            fits.append(blowup_exponent(sys))
            assert len(calls) == 1
        np.testing.assert_allclose(fits[0].slopes, fits[1].slopes, rtol=1e-7)

    @pytest.mark.parametrize(
        "driver, n, variant, k, batched",
        [
            (LevyDriver(kappa=4.0 / 9.0), 6, Variant.UNBOUNDED, 13, True),
            (LevyDriver(uniform_rate=98.5), 14, Variant.BOUNDED, 14, True),
            (LevyDriver(uniform_rate=98.5), 14, Variant.BOUNDED, 1, False),
            (LevyDriver(kappa=2 * 18 / 16**2), 16, Variant.UNBOUNDED, 13, False),
            (LevyDriver(kappa=6.0, uniform_rate=5.0), 32, Variant.UNBOUNDED, 13, False),
        ],
        ids=["small", "stiff", "one-piece", "truncating-16", "state-limit"],
    )
    def test_batching_choice(self, driver, n, variant, k, batched):
        # measured: batching wins on small or stiff systems, and loses 2-5x
        # on the truncating Brownian drivers at N = 12-24 and on every
        # system tried from N ~ 32
        m = build_matrices(eta_sequence(driver, n), n, variant)
        assert fuchsian_series._batching_pays(m, k) is batched

    def test_large_system_holds_no_propagators(self):
        # 13 propagators of N = 200 would hold 13 * 200^2 floats in each of
        # DOP853's ~16 stage vectors (~40 MiB); one vector solve holds the
        # two dense residue matrices and a few N-vectors
        n = 200
        eta = eta_sequence(LevyDriver(kappa=2.0 * (n + 2) / n**2), n)
        sys = _system(eta, n, Variant.UNBOUNDED)
        blowup_exponent(sys, GeometricLadder(6, 7))  # imports scipy.integrate
        tracemalloc.start()
        try:
            fit = blowup_exponent(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * n * 8
        top = max(truncated_sle_spectrum(n, Variant.UNBOUNDED))
        assert abs(fit.beta_est - top) < 1e-6

    def test_oversized_system_refused_before_the_series(self, monkeypatch):
        # the integration needs the dense residue matrices, so N above their
        # limit is refused before any series term is computed
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

    def test_slopes_and_residual_reported(self):
        lad = GeometricLadder(j_min=4, j_max=9)
        fit = blowup_exponent(_system(ETA_SLE2, 2, Variant.UNBOUNDED), ladder=lad)
        assert len(fit.slopes) == 5
        assert fit.residual >= 0.0


class TestIntegration:
    # _integrate_log_distance carries theta from t0 to t1 in unit pieces of
    # t = -log2|1 - xi|, on the side of xi = 1 that the variant evaluates

    @staticmethod
    def _xi(variant, t):
        sign = -1.0 if variant is Variant.UNBOUNDED else 1.0
        return 1.0 + sign * 2.0**-t

    def _check_series_rows(self, sys, t0, t1):
        # every row of the chain against the series, where its tail is
        # below 1e-14 of theta
        series = series_solution(sys, 4000)
        start = evaluate_theta(series, self._xi(sys.variant, t0))
        chain = fuchsian_series._integrate_log_distance(sys, t0, t1, start, start)
        assert chain.shape == (t1 - t0 + 1, sys.n)
        for t, got in zip(range(t0, t1 + 1), chain):
            want, tail = evaluate_theta_with_tail(series, self._xi(sys.variant, t))
            assert tail < 1e-14 * np.max(np.abs(want))
            np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_matches_series_unbounded(self):
        self._check_series_rows(_system(ETA_SLE2, 2, Variant.UNBOUNDED), 1, 5)

    def test_matches_series_bounded(self):
        self._check_series_rows(_system(ETA_PLE1, 3, Variant.BOUNDED), 0, 6)

    @pytest.mark.parametrize(
        "variant, t0, t1",
        [
            (Variant.UNBOUNDED, 2, 3),  # one piece: the vector solve
            (Variant.BOUNDED, 1, 2),
            (Variant.UNBOUNDED, 1, 6),  # 5 pieces, batched
            (Variant.BOUNDED, -1, 6),  # 7 pieces from xi = 3, batched
        ],
        ids=["unbounded-short", "bounded-short", "unbounded-5", "bounded-7"],
    )
    def test_matches_series_off_the_unit_grid(self, variant, t0, t1):
        # spans of one to seven unit pieces, on a system whose series needs
        # thousands of terms this close to xi = 1
        sys = _system(eta_sequence(LevyDriver(kappa=0.3), 6), 6, variant)
        self._check_series_rows(sys, t0, t1)

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
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "vector"])
    def test_n1_closed_form(self, monkeypatch, variant, t0, exact, batched):
        # each solve shape is forced; N = 1 alone takes the batched one
        monkeypatch.setattr(fuchsian_series, "_batching_pays", lambda m, k: batched)
        sys = _system(ETA_SLE2, 1, variant)
        start = np.array([exact(self._xi(variant, t0))])
        got = fuchsian_series._integrate_log_distance(sys, t0, 50, start, start)
        want = [[exact(self._xi(variant, t))] for t in range(t0, 51)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_zero_start_stays_zero(self):
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fuchsian_series._integrate_log_distance(
                sys, 1, 10, np.zeros(2), np.zeros(2)
            )
        np.testing.assert_array_equal(got, np.zeros((10, 2)))

    def test_huge_start_scales_linearly(self):
        # the integrating factor's rate is taken on a scaled direction, so it
        # cannot overflow where theta0 itself does not
        sys = _system(ETA_SLE2, 2, Variant.UNBOUNDED)
        start = np.array([1.0, 0.5])
        integrate = fuchsian_series._integrate_log_distance
        got = integrate(sys, 1, 4, 1e160 * start, 1e160 * start)
        np.testing.assert_allclose(got, 1e160 * integrate(sys, 1, 4, start, start))


def test_formal_eta_supported():
    # blowup route works from a raw exponent list, no driver involved
    eta = validate_eta((2.0, 4.0))
    fit = blowup_exponent(
        _system(eta, 2, Variant.UNBOUNDED), ladder=GeometricLadder(j_min=4, j_max=9)
    )
    assert math.isfinite(fit.beta_est)
