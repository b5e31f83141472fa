import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from llespec import (
    BETA_SUP,
    DomainError,
    FuchsianSystem,
    GeometricLadder,
    HypergeometricParams,
    LevyDriver,
    PoleError,
    RealizabilityWarning,
    SizeError,
    Variant,
    beta2_unbounded_n2,
    build_matrices,
    eta_sequence,
    evaluate_theta,
    gauss_2f1,
    gauss_at_one,
    perturbed_n6_driver,
    perturbed_n6_pairs,
    series_solution,
    theorem1_solution,
    truncated_sle_spectrum,
    validate_eta,
)


class TestBeta2ClosedForm:
    def test_examples(self):
        assert beta2_unbounded_n2(1.0) == pytest.approx(4.0, abs=1e-14)
        assert beta2_unbounded_n2(3.0) == pytest.approx(3.0, abs=1e-14)

    def test_endpoint_warns(self):
        with pytest.warns(RealizabilityWarning):
            v = beta2_unbounded_n2(0.0)
        assert v == pytest.approx(BETA_SUP, abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            beta2_unbounded_n2(-0.25)

    @pytest.mark.parametrize(
        "eta1", [0.0, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 10.0, 1e4, 1e8, 1e12, 1e200]
    )
    def test_matches_mpmath_to_one_ulp(self, eta1):
        # the textbook form cancels for large eta_1 (in doubles it reads 2.0
        # at 1e12 and inf at 1e200); mpmath carries 60 digits past the 400
        # that it cancels at 1e200
        with mpmath.workdps(460):
            e = mpmath.mpf(eta1)
            want = float((6 - e + mpmath.sqrt(e * e - 4 * e + 12)) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RealizabilityWarning)
            got = beta2_unbounded_n2(eta1)
        assert abs(got - want) <= math.ulp(want)

    def test_monotone_decreasing(self):
        vals = [beta2_unbounded_n2(e) for e in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert all(2.0 < v <= BETA_SUP for v in vals)

    def test_matches_eigenvalue_route(self, rng):
        for eta1 in rng.uniform(0.05, 8.0, size=20):
            from llespec import eigen_spectrum

            m = build_matrices(validate_eta((float(eta1),)), 2, Variant.UNBOUNDED)
            assert beta2_unbounded_n2(float(eta1)) == pytest.approx(
                eigen_spectrum(m).max_real, abs=1e-12
            )


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.7, -1.3, 2.1, 0.0) == 1.0

    def test_log_identity(self):
        # F(1,1;2;x) = -log(1-x)/x
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
            2 * math.log(2.0), rel=1e-14
        )

    def test_against_scipy(self, rng):
        for _ in range(100):
            a = float(rng.uniform(-2.5, 2.5))
            b = float(rng.uniform(-2.5, 2.5))
            c = float(rng.uniform(0.3, 4.0))
            x = float(rng.uniform(0.0, 0.95))
            ref = float(scipy.special.hyp2f1(a, b, c, x))
            assert gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_transform_consistent_with_raw(self):
        # near xi = 1 hyp2f1 must agree with brute summation
        from llespec.closed_forms import _gauss_series

        a, b, c = 0.3, 0.7, 1.9
        x = 0.9
        assert gauss_2f1(a, b, c, x) == pytest.approx(
            _gauss_series(a, b, c, x, max_terms=500_000), rel=1e-12
        )

    def test_pole_in_c(self):
        with pytest.raises(PoleError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(PoleError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)

    def test_ode_residual(self):
        # x(1-x) y'' + (c - (a+b+1) x) y' - a b y = 0, five-point stencil
        a, b, c = 0.45, 1.2, 1.7
        h = 1e-3
        for x0 in (0.2, 0.5, 0.7):
            y = [gauss_2f1(a, b, c, x0 + k * h) for k in (-2, -1, 0, 1, 2)]
            d1 = (-y[4] + 8 * y[3] - 8 * y[1] + y[0]) / (12 * h)
            d2 = (-y[4] + 16 * y[3] - 30 * y[2] + 16 * y[1] - y[0]) / (
                12 * h * h
            )
            res = x0 * (1 - x0) * d2 + (c - (a + b + 1) * x0) * d1 - a * b * y[2]
            scale = abs(a * b * y[2]) + abs(d1) + abs(d2) + 1.0
            assert abs(res) <= 1e-8 * scale


class TestGaussAtOne:
    def test_example(self):
        assert gauss_at_one(1.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-13)

    def test_polynomial_case(self):
        # F(-1,-1;1;x) = 1 + x, value 2 at x = 1
        assert gauss_at_one(-1.0, -1.0, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            gauss_at_one(1.0, 1.0, 2.0)  # c - a - b = 0
        with pytest.raises(DomainError):
            gauss_at_one(2.0, 2.0, 3.0)  # c - a - b < 0

    def test_gamma_pole_rejected(self):
        with pytest.raises(PoleError):
            gauss_at_one(3.0, -0.5, 3.0)  # c - a = 0

    def test_large_c(self):
        # 40-digit mpmath values of 2F1(a, b; c; 1) at the same float
        # parameters; c = 72.4, 170.5 and 500.5, where Gamma(c) overflows
        for eta1, want in (
            (143.81309222219554, 0.5083960651872421),
            (340.0, 0.503527073454717),
            (1000.0, 0.5011952070163581),
        ):
            p = HypergeometricParams.from_eta1(eta1)
            assert gauss_at_one(p.a, p.b, p.c) == pytest.approx(want, rel=1e-12)

    def test_series_limit_agrees(self):
        # values on xi = 1 - 2^-j extrapolate to the Gamma-ratio limit
        a, b, c = 0.4, 0.9, 2.6
        target = gauss_at_one(a, b, c)
        vals = np.array(
            [gauss_2f1(a, b, c, 1.0 - 2.0**-j) for j in range(6, 14)]
        )
        # Richardson twice: once on the (1-x)^{c-a-b} branch, once on (1-x)^1
        q = 2.0 ** -(c - a - b)
        r1 = (vals[1:] - q * vals[:-1]) / (1 - q)
        r2 = 2 * r1[1:] - r1[:-1]
        assert r2[-1] == pytest.approx(target, rel=1e-6)


class TestHypergeometricParams:
    def test_beta4(self):
        p = HypergeometricParams.from_beta(4.0)
        assert (p.a, p.b, p.c) == pytest.approx((-1.0, -1.0, 1.0), abs=1e-13)

    def test_from_eta1_matches_from_beta(self):
        p1 = HypergeometricParams.from_eta1(1.0)
        p2 = HypergeometricParams.from_beta(4.0)
        assert (p1.a, p1.b, p1.c) == pytest.approx((p2.a, p2.b, p2.c), abs=1e-12)

    def test_exponent_parameter_range(self, rng):
        # c - a - b = (beta^2 - 4 beta + 6)/(beta - 2) stays >= 2 sqrt(2)
        for beta in rng.uniform(2.05, BETA_SUP, size=40):
            p = HypergeometricParams.from_beta(float(beta))
            assert p.c - p.a - p.b >= 2 * math.sqrt(2.0) - 1e-12


class TestTheorem1:
    def test_values_at_zero(self):
        t = theorem1_solution(1.0, 0.0)
        assert t.f0 == pytest.approx(1.0, abs=1e-14)
        assert t.f1 == pytest.approx(-1.0, abs=1e-13)  # matches null vector
        assert t.theta0 == t.f0 and t.theta1 == t.f1

    def test_against_series_route(self):
        # hypergeometric closed form against the matrix power series
        for eta1 in (0.7, 1.0, 2.0, 4.5):
            eta = validate_eta((eta1,))
            sys = FuchsianSystem(build_matrices(eta, 2, Variant.UNBOUNDED))
            series = series_solution(sys, 3000)
            for xi in (0.2, 0.5, 0.8):
                th = evaluate_theta(series, xi)
                t = theorem1_solution(eta1, xi)
                assert t.theta0 == pytest.approx(th[0], rel=1e-8)
                assert t.theta1 == pytest.approx(th[1], rel=1e-8)

    def test_blowup_prefactor_scaling(self):
        # theta ~ (1 - xi)^{-beta} f with f continuous at 1: check the
        # compensated value stays bounded along a ladder
        eta1 = 2.0
        beta = beta2_unbounded_n2(eta1)
        vals = []
        for j in range(4, 12):
            xi = 1.0 - 2.0**-j
            t = theorem1_solution(eta1, xi)
            vals.append(t.theta0 * (1 - xi) ** beta)
        assert vals[-1] == pytest.approx(vals[-2], rel=1e-3)

    def test_fit_recovers_closed_form(self):
        # blowup exponent fitted from the closed-form mean, no matrices
        eta1 = 2.0
        beta = beta2_unbounded_n2(eta1)  # 2 + sqrt(2)
        lad = GeometricLadder(j_min=6, j_max=14)
        g = []
        for xi in lad.points(Variant.UNBOUNDED):
            t = theorem1_solution(eta1, xi)
            g.append((1 + xi) * t.theta0 - 2 * xi * t.theta1)
        s = np.log2(np.abs(np.array(g[1:]) / np.array(g[:-1])))
        d1, d2 = s[-1] - s[-2], s[-2] - s[-3]
        fitted = s[-1] - d1 * d1 / (d1 - d2)
        assert fitted == pytest.approx(beta, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            theorem1_solution(1.0, 1.0)
        with pytest.raises(DomainError):
            theorem1_solution(-1.0, 0.5)


class TestTruncatedSle:
    def test_unbounded_n6(self):
        spec = truncated_sle_spectrum(6, Variant.UNBOUNDED)
        assert list(spec) == pytest.approx(
            [2 / 9, -2 / 3, -2 / 3, 2 / 9, 2.0, 14 / 3], abs=1e-15
        )

    def test_unbounded_max_value(self):
        for n in (2, 3, 6, 9):
            spec = truncated_sle_spectrum(n, Variant.UNBOUNDED)
            assert max(spec) == pytest.approx((5 * n - 2) / n, rel=1e-14)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_eigenvalues(self, variant):
        # route 1 against the closed form; the bulk agrees to 5e-11 here
        from llespec import eigen_spectrum

        s = 2 if variant is Variant.UNBOUNDED else -2
        for n in range(3, 10):
            eta = eta_sequence(LevyDriver(kappa=2.0 * (n + s) / n**2), n)
            m = build_matrices(eta, n, variant)
            eig = sorted(z.real for z in eigen_spectrum(m).eigenvalues)
            closed = sorted(truncated_sle_spectrum(n, variant))
            assert eig == pytest.approx(closed, abs=1e-9)

    def test_bounded_n3(self):
        spec = truncated_sle_spectrum(3, Variant.BOUNDED)
        assert list(spec) == pytest.approx([1 / 9, -4 / 3, -7 / 3], abs=1e-12)

    def test_bounded_top_is_half_kappa(self):
        for n in (3, 4, 6, 9):
            spec = truncated_sle_spectrum(n, Variant.BOUNDED)
            kappa = 2.0 * (n - 2) / n**2
            assert spec[0] == pytest.approx(kappa / 2.0, abs=1e-9)
            assert list(spec) == sorted(spec, reverse=True)

    def test_bounded_closed_form_at_any_size(self):
        # no eigensolve: sizes past the dense limit cost a list of N values
        for n in (*range(3, 401), 5000):
            spec = truncated_sle_spectrum(n, Variant.BOUNDED)
            assert len(spec) == n
            assert spec[0] == (n - 2) / n**2
            assert spec == sorted(spec, reverse=True)

    def test_bounded_n10_is_doubled(self):
        # lambda_l = lambda_{11-l}: four exact double eigenvalues
        spec = truncated_sle_spectrum(10, Variant.BOUNDED)
        assert spec == [
            0.08, -1.52, -2.8, -2.8, -3.76, -3.76, -4.4, -4.4, -4.72, -4.72
        ]

    def test_size_validation(self):
        with pytest.raises(SizeError):
            truncated_sle_spectrum(0, Variant.UNBOUNDED)
        with pytest.raises(SizeError):
            truncated_sle_spectrum(2, Variant.BOUNDED)


class TestPerturbedN6:
    def test_driver_fields(self):
        d = perturbed_n6_driver(1e-4)
        assert d.kappa == pytest.approx(4.0 / 9.0 - 1e-4, abs=0)
        assert d.uniform_rate == pytest.approx(18e-4, rel=1e-14)
        assert d.atoms == ()

    def test_pair_values_small_dk(self):
        pairs = perturbed_n6_pairs(1e-6)
        ims = sorted({abs(z.imag) for z in pairs})
        assert ims[0] == pytest.approx((5 / 128) * math.sqrt(70e-6), rel=1e-12)
        assert ims[1] == pytest.approx((21 / 128) * math.sqrt(30e-6), rel=1e-12)
        res = sorted({z.real for z in pairs})
        assert res == pytest.approx([-2 / 3, 2 / 9], abs=1e-15)

    def test_conjugate_pairs(self):
        pairs = perturbed_n6_pairs(5e-5)
        assert len(pairs) == 4
        for z in pairs:
            assert z.conjugate() in pairs

    def test_sqrt_scaling(self):
        a = perturbed_n6_pairs(1e-6)
        b = perturbed_n6_pairs(4e-6)
        assert max(z.imag for z in b) == pytest.approx(
            2 * max(z.imag for z in a), rel=1e-12
        )

    def test_domain(self):
        for bad in (0.0, -1e-7, 2e-3):
            with pytest.raises(DomainError):
                perturbed_n6_pairs(bad)
            with pytest.raises(DomainError):
                perturbed_n6_driver(bad)
