import json

import numpy as np
import pytest
import scipy.linalg

from llespec import (
    CapacityError,
    LevyDriver,
    SizeError,
    ValidationError,
    Variant,
    beta2,
    build_matrices,
    classify_regime,
    descartes_positive_count,
    eigen_spectrum,
    eta_sequence,
    max_real_root,
    max_real_root_detailed,
    perturbed_n6_driver,
    recurrence_coefficients,
    validate_eta,
)
from llespec.cli import main
from llespec.loewner_system import CharPolyRecurrence
from llespec.spectral_solver import (
    DENSE_EIGEN_LIMIT,
    _cluster,
    _eigenvalues,
    _max_real_sequence,
)
from tests.conftest import random_driver

ETA_SLE2 = eta_sequence(LevyDriver(kappa=2.0), 8)
ETA_PLE1 = eta_sequence(LevyDriver(uniform_rate=1.0), 8)
ETA_SLE_N6 = eta_sequence(LevyDriver(kappa=2.0 * 8 / 36), 8)  # kappa_6 = 4/9


class TestEigenSpectrum:
    def test_unbounded_n2(self):
        s = eigen_spectrum(build_matrices(ETA_SLE2, 2, Variant.UNBOUNDED))
        assert s.max_real == pytest.approx(4.0, abs=1e-12)
        assert [z.real for z in s.eigenvalues] == pytest.approx([4.0, 1.0])
        assert s.all_real
        assert s.n_nonneg_real == 2

    def test_n1_direct(self):
        s = eigen_spectrum(build_matrices(ETA_SLE2, 1, Variant.UNBOUNDED))
        assert s.eigenvalues == ((3.0 + 0.0j),)
        assert s.max_real == 3.0

    def test_bounded_n3_values(self):
        # kappa_3 = 2/9: eta_n = n^2/9 truncates at N = 3
        eta = eta_sequence(LevyDriver(kappa=2.0 / 9.0), 3)
        s = eigen_spectrum(build_matrices(eta, 3, Variant.BOUNDED))
        assert [z.real for z in s.eigenvalues] == pytest.approx(
            [1.0 / 9.0, -4.0 / 3.0, -7.0 / 3.0], abs=1e-12
        )
        assert s.n_nonneg_real == 1

    def test_truncated_sle_n6_clusters(self):
        s = eigen_spectrum(build_matrices(ETA_SLE_N6, 6, Variant.UNBOUNDED))
        assert [m for _, m in s.clusters] == [1, 1, 2, 2]
        values = [c.real for c, _ in s.clusters]
        assert values == pytest.approx(
            [14.0 / 3.0, 2.0, 2.0 / 9.0, -2.0 / 3.0], abs=1e-8
        )
        assert all(c.imag == 0.0 for c, _ in s.clusters)

    def test_cluster_is_single_linkage(self):
        # steps of 1.5*tol chain into one cluster spanning 4.5*tol
        [(mean, mult)] = _cluster([0, 1.5e-7, 3e-7, 4.5e-7], 1e-7)
        assert mult == 4
        assert mean == pytest.approx(2.25e-7)

    def test_ordering_descending_real(self, rng):
        for variant in Variant:
            for _ in range(20):
                eta = eta_sequence(random_driver(rng), 9)
                s = eigen_spectrum(build_matrices(eta, 9, variant))
                keys = [(-z.real, z.imag) for z in s.eigenvalues]
                assert keys == sorted(keys)

    def test_complex_pairs_are_conjugate(self):
        eta = eta_sequence(perturbed_n6_driver(1e-4), 5)
        s = eigen_spectrum(build_matrices(eta, 6, Variant.UNBOUNDED))
        assert not s.all_real
        complex_eigs = [z for z in s.eigenvalues if z.imag != 0.0]
        assert len(complex_eigs) == 4
        for z in complex_eigs:
            assert z.conjugate() in complex_eigs
        # the two real eigenvalues stay nonnegative
        assert s.n_nonneg_real == 2

    def test_resonant_integer_gap(self):
        s = eigen_spectrum(build_matrices(ETA_SLE2, 2, Variant.UNBOUNDED))
        assert s.resonant  # 4 - 1 = 3

    def test_resonant_bounded_gap_one(self):
        eta = validate_eta((1.0 / 9.0, 4.0 / 9.0))
        s = eigen_spectrum(build_matrices(eta, 3, Variant.BOUNDED))
        assert s.resonant  # -4/3 - (-7/3) = 1

    def test_not_resonant_ple(self):
        s = eigen_spectrum(build_matrices(ETA_PLE1, 3, Variant.BOUNDED))
        assert not s.resonant

    def test_deterministic(self, rng):
        eta = eta_sequence(random_driver(rng), 7)
        m = build_matrices(eta, 7, Variant.UNBOUNDED)
        assert eigen_spectrum(m) == eigen_spectrum(m)


class TestMaxRealRoot:
    def test_ple_lambda1(self):
        rec = recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert r.value == pytest.approx(0.1700864866260337, abs=1e-11)

    def test_unbounded_truncation(self):
        rec = recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        assert max_real_root(rec) == pytest.approx(4.0, abs=1e-11)

    def test_n1_is_diagonal(self):
        rec = recurrence_coefficients(ETA_SLE2, 1, Variant.UNBOUNDED)
        assert max_real_root(rec) == 3.0

    def test_n0_raises(self):
        rec = CharPolyRecurrence(variant=Variant.UNBOUNDED, a=(), b=())
        with pytest.raises(SizeError):
            max_real_root(rec)

    def test_even_multiplicity_falls_back(self):
        # (beta - 1)^2 has no sign change; the eigenvalue route takes over
        rec = CharPolyRecurrence(variant=Variant.UNBOUNDED, a=(0.0,), b=(1.0, 1.0))
        r = max_real_root_detailed(rec)
        assert r.used_fallback
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_agrees_with_eigenvalues(self, rng):
        for variant in Variant:
            for _ in range(25):
                eta = eta_sequence(random_driver(rng), 8)
                n = int(rng.integers(2, 9))
                root = max_real_root(recurrence_coefficients(eta, n, variant))
                eig = eigen_spectrum(build_matrices(eta, n, variant)).max_real
                assert root == pytest.approx(eig, abs=1e-8)


class TestDescartes:
    def test_ple_coefficients(self):
        # -1, 5, 5, 1: one sign change, one positive root
        assert descartes_positive_count([-1.0, 5.0, 5.0, 1.0]) == 1

    def test_unbounded_n2(self):
        assert descartes_positive_count([4.0, -5.0, 1.0]) == 2

    def test_degree_zero(self):
        assert descartes_positive_count([1.0]) == 0

    def test_requires_monic(self):
        with pytest.raises(ValidationError):
            descartes_positive_count([1.0, 2.0])

    def test_bounded_always_one(self, rng):
        # bounded spectra keep exactly one nonnegative eigenvalue
        from llespec import charpoly_coefficients

        for _ in range(20):
            eta = eta_sequence(random_driver(rng), 5)
            rec = recurrence_coefficients(eta, 5, Variant.BOUNDED)
            coeffs = [float(c) for c in charpoly_coefficients(rec)]
            assert descartes_positive_count(coeffs) == 1


class TestClassifyRegime:
    def test_symmetric_cases(self):
        assert classify_regime(
            recurrence_coefficients(ETA_SLE2, 2, Variant.UNBOUNDED)
        )
        assert classify_regime(
            recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        )

    def test_asymmetric_case(self):
        # eta_2 = 2 < 4 makes a_2 < 0
        eta = eta_sequence(LevyDriver(kappa=1.0), 6)
        assert not classify_regime(
            recurrence_coefficients(eta, 6, Variant.UNBOUNDED)
        )


class TestBeta2:
    def test_truncated_mode(self):
        eta = eta_sequence(LevyDriver(kappa=2.0), 16)
        rep = beta2(eta, Variant.UNBOUNDED, 16)
        assert rep.mode == "truncated"
        assert rep.n == 2
        assert rep.beta2 == pytest.approx(4.0, abs=1e-12)
        full = eigen_spectrum(build_matrices(eta, 2, Variant.UNBOUNDED))
        assert rep.beta2 == full.max_real
        assert rep.converged
        assert rep.convergence_gap == 0.0
        assert rep.sequence is None

    def test_sequence_mode_converges(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 40)
        rep = beta2(eta, Variant.UNBOUNDED, 40)
        assert rep.mode == "sequence"
        assert rep.converged
        assert rep.convergence_gap < 1e-9
        assert rep.sequence[0][0] == 2
        assert rep.sequence[-1][0] == 40
        assert rep.beta2 == rep.sequence[-1][1]

    def test_sequence_mode_short(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 4)
        rep = beta2(eta, Variant.UNBOUNDED, 4)
        assert rep.mode == "sequence"
        assert not rep.converged

    def test_m_max_validation(self):
        with pytest.raises(SizeError):
            beta2(ETA_SLE2, Variant.UNBOUNDED, 1)

    def test_bounded_ple(self):
        rep = beta2(eta_sequence(LevyDriver(uniform_rate=1.0), 10), Variant.BOUNDED, 10)
        assert rep.mode == "truncated"
        assert rep.n == 3
        assert rep.beta2 == pytest.approx(0.1700864866260337, abs=1e-11)


def test_spectrum_matches_numpy_oracle(rng):
    # cross-check the whole pipeline against a dense solve on the same matrix
    for variant in Variant:
        eta = eta_sequence(random_driver(rng), 10)
        m = build_matrices(eta, 10, variant)
        ours = np.sort_complex(
            np.array(eigen_spectrum(m).eigenvalues, dtype=complex)
        )
        ref = np.sort_complex(np.linalg.eigvals(m.b_dense()).astype(complex))
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-8)


class TestMaxOnlyPath:
    @pytest.mark.parametrize(
        "kappa, variant, symmetric",
        [(1.0, Variant.UNBOUNDED, False), (0.3, Variant.BOUNDED, True)],
    )
    def test_sequences_equal_eigen_spectrum(self, kappa, variant, symmetric, capsys):
        m_max = 40
        eta = eta_sequence(LevyDriver(kappa=kappa), m_max)
        full = {
            m: eigen_spectrum(build_matrices(eta, m, variant)).max_real
            for m in range(2, m_max + 1)
        }
        top = build_matrices(eta, m_max, variant)
        assert bool(np.all(top.b_sub * top.b_super > 0)) is symmetric
        rep = beta2(eta, variant, m_max)
        assert rep.mode == "sequence"
        assert dict(rep.sequence) == full
        code = main(
            [
                "sle-converge", "--kappa", repr(kappa), "--variant", variant.value,
                "--m-max", str(m_max), "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {m: v for m, v, _ in rows} == full

    def test_sliced_bands_switch_solver_paths(self, monkeypatch):
        # bounded uniform rate 98.5: every product a_n is positive up to
        # M = 101, so the symmetric solver runs there and the dense one after
        m_max = 120
        eta = eta_sequence(LevyDriver(uniform_rate=98.5), m_max)
        full = {
            m: eigen_spectrum(build_matrices(eta, m, Variant.BOUNDED)).max_real
            for m in range(2, m_max + 1)
        }
        sizes = {"symmetric": [], "dense": []}

        def record(path, solve):
            def wrapper(a, *rest):
                sizes[path].append(len(a))
                return solve(a, *rest)

            return wrapper

        monkeypatch.setattr(
            scipy.linalg,
            "eigvalsh_tridiagonal",
            record("symmetric", scipy.linalg.eigvalsh_tridiagonal),
        )
        monkeypatch.setattr(np.linalg, "eigvals", record("dense", np.linalg.eigvals))
        assert dict(_max_real_sequence(eta, Variant.BOUNDED, m_max)) == full
        # M = m_max is solved first, then M = 2 upward
        assert sizes["dense"] == [m_max, *range(102, m_max)]
        assert sizes["symmetric"] == list(range(2, 102))

    def test_dense_path_is_capped(self):
        n = DENSE_EIGEN_LIMIT + 1
        diag = np.zeros(n)
        with pytest.raises(CapacityError):
            _eigenvalues(diag, -np.ones(n - 1), np.ones(n - 1))
        # the symmetric path needs no dense matrix and has no cap
        assert len(_eigenvalues(diag, np.ones(n - 1), np.ones(n - 1))) == n
