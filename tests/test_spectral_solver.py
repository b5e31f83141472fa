import csv
import io
import json
import tracemalloc

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
    descartes_positive_count,
    eigen_spectrum,
    eta_sequence,
    max_real_root_detailed,
    perturbed_n6_driver,
    recurrence_coefficients,
    validate_eta,
)
from llespec import cli
from llespec.cli import main
from llespec.loewner_system import CharPolyRecurrence, LoewnerMatrices, charpoly_eval
from llespec.loewner_system import DENSE_LIMIT as DENSE_EIGEN_LIMIT
from llespec.spectral_solver import (
    _certified_top_root,
    _cluster,
    _eig_fallback,
    _eigenvalues,
    _gershgorin_upper,
    _max_real_sequence,
    _newton_from_above,
    _resonant,
)
from tests.conftest import random_driver

ETA_SLE2 = eta_sequence(LevyDriver(kappa=2.0), 8)
ETA_PLE1 = eta_sequence(LevyDriver(uniform_rate=1.0), 8)
ETA_SLE_N6 = eta_sequence(LevyDriver(kappa=2.0 * 8 / 36), 8)  # kappa_6 = 4/9


def _cluster_all_pairs(eigs, tol):
    """The all-pairs single-linkage clustering that _cluster replaced."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= 2 * tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(eigs[i])
    out = []
    for members in groups.values():
        mean = sum(members) / len(members)
        if abs(mean.imag) <= tol:
            mean = complex(mean.real, 0.0)
        out.append((mean, len(members)))
    out.sort(key=lambda c: (-c[0].real, c[0].imag))
    return out, [len(groups[find(i)]) for i in range(n)]


def _resonant_all_pairs(centers, tol):
    """The c x c resonance test that _resonant replaced."""
    d = centers[:, None] - centers[None, :]
    k = np.rint(d.real)
    return bool(
        ((np.abs(d.imag) <= tol) & (k != 0) & (np.abs(d.real - k) < tol)).any()
    )


def _block_diagonal(diag, sub, sup):
    """LoewnerMatrices whose B has these bands (A's diagonal is zero)."""
    n = len(diag)
    return LoewnerMatrices(
        Variant.UNBOUNDED, n, np.zeros(n),
        np.array(sub, dtype=float), np.array(diag, dtype=float),
        np.array(sup, dtype=float),
    )


def _route2_systems(rng, count):
    """(variant, N, eta) over both variants and N in 3..160, from
    random_driver and from Brownian drivers with kappa in [0.003, 6], with
    and without a uniform rate."""
    for i in range(count):
        variant = (Variant.UNBOUNDED, Variant.BOUNDED)[i % 2]
        n = int(rng.integers(3, 161))
        if i % 4 < 2:
            driver = random_driver(rng)
        else:
            kappa = float(np.exp(rng.uniform(np.log(0.003), np.log(6.0))))
            rate = float(rng.uniform(0.0, 5.0)) if i % 8 >= 4 else 0.0
            driver = LevyDriver(kappa=kappa, uniform_rate=rate)
        yield variant, n, eta_sequence(driver, n)


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
        [(mean, mult)], mults = _cluster([0, 1.5e-7, 3e-7, 4.5e-7], 1e-7)
        assert mult == 4
        assert mults == [4, 4, 4, 4]
        assert mean == pytest.approx(2.25e-7)

    def test_chained_cluster_multiplicities(self, capsys, monkeypatch):
        # 0 .. 5.7e-7 chain into one cluster at CLUSTER_TOL = 1e-7 (steps of
        # 1.9e-7); 7.8e-7 is 2.1e-7 from it, a cluster of its own, yet nearer
        # to 5.7e-7 than that cluster's mean 2.85e-7 is
        diag = [0.0, 1.9e-7, 3.8e-7, 5.7e-7, 7.8e-7]
        m = _block_diagonal(diag, [0.0] * 4, [0.0] * 4)
        s = eigen_spectrum(m)
        assert s.multiplicities == (1, 4, 4, 4, 4)
        assert [mult for _, mult in s.clusters] == [1, 4]
        monkeypatch.setattr(cli, "build_matrices", lambda *args: m)
        assert main(["spectrum", "--kappa", "1", "--n", "5", "--csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [int(r["multiplicity"]) for r in rows] == [1, 4, 4, 4, 4]

    def test_cluster_matches_all_pairs(self, rng):
        tol = 1e-7
        for trial in range(60):
            n = int(rng.integers(1, 40))
            z = rng.normal(size=n) * 10.0 ** rng.integers(-7, 2)
            if trial % 3:  # complex values, some in conjugate pairs
                z = z + 1j * rng.normal(size=n) * 10.0 ** rng.integers(-7, 1)
                z[: n // 3] = z[n // 3 : 2 * (n // 3)].conj()
            if trial % 4 == 0:  # chains of steps just under and over 2*tol
                z = np.cumsum(rng.uniform(1.5, 2.5, size=n) * tol) + 0j
            if trial % 5 == 0:  # exact repeats
                z = np.repeat(z[: max(1, n // 3)], 3)
            eigs = sorted(z.tolist(), key=lambda v: (-v.real, v.imag))
            got = _cluster(eigs, tol)
            want = _cluster_all_pairs(eigs, tol)
            assert got == want
            assert repr(got) == repr(want)

    def test_resonant_matches_all_pairs(self, rng):
        # centers an integer apart up to jitter around tol, on and off the
        # real axis, near the wrap of the fractional part at 0 and 1, and at
        # magnitudes up to 1e12 where rounding widens the sweep's window
        tol = 1e-7
        jitter = np.array([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])
        found = 0
        for trial in range(2000):
            n = int(rng.integers(1, 30))
            base = rng.normal() * 10.0 ** rng.integers(-3, 13)
            if trial % 4 == 1:
                base = float(rng.choice([-1e-17, 1e-17, 0.0]))
            z = base + rng.integers(-4, 5, size=n) + rng.choice(
                np.concatenate([jitter, -jitter]), size=n
            ) * tol
            if trial % 2:
                z = z + 1j * rng.choice([0.0, 0.3, -0.3, 0.3 + tol], size=n)
            z = np.asarray(z, dtype=complex)
            want = _resonant_all_pairs(z, tol)
            assert _resonant(z, tol) == want
            found += want
        assert 0 < found < 2000

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
        # 0.3 +- 0.5i and 1.3 +- 0.5i: equal imaginary parts, real parts one
        # apart, so resonant though neither center lies on the real axis
        s = eigen_spectrum(_block_diagonal(
            [0.3, 0.3, 1.3, 1.3, 5.0], [-0.5, 0.0, -0.5, 0.0], [0.5, 0.0, 0.5, 0.0]
        ))
        assert not s.all_real
        assert s.resonant

    def test_resonant_bounded_gap_one(self):
        eta = validate_eta((1.0 / 9.0, 4.0 / 9.0))
        s = eigen_spectrum(build_matrices(eta, 3, Variant.BOUNDED))
        assert s.resonant  # -4/3 - (-7/3) = 1

    def test_not_resonant_ple(self):
        s = eigen_spectrum(build_matrices(ETA_PLE1, 3, Variant.BOUNDED))
        assert not s.resonant

    def test_memory_is_bounded(self):
        # bounded kappa = 0.3 at N = 3000: one real cluster per eigenvalue,
        # so a c x c resonance test would hold ~9e6 pairs (over 300 MiB)
        m = build_matrices(eta_sequence(LevyDriver(kappa=0.3), 3000), 3000,
                           Variant.BOUNDED)
        eigen_spectrum(m)  # warm-up: scipy.linalg's import and first call
        tracemalloc.start()
        try:
            eigen_spectrum(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_dense_path_holds_one_matrix(self, rng):
        # sub * sup < 0 takes the dense QR path; its N x N matrix is built
        # once (np.linalg.eigvals' working copy is not traced)
        n = 1000
        diag, sub = rng.standard_normal(n), rng.standard_normal(n - 1)
        sup = -np.abs(rng.standard_normal(n - 1))
        _eigenvalues(diag[:8], sub[:7], sup[:7])  # warm-up
        tracemalloc.start()
        try:
            _eigenvalues(diag, sub, sup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

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
        assert max_real_root_detailed(rec).value == pytest.approx(4.0, abs=1e-11)

    def test_n1_is_diagonal(self):
        rec = recurrence_coefficients(ETA_SLE2, 1, Variant.UNBOUNDED)
        assert max_real_root_detailed(rec).value == 3.0

    def test_n0_raises(self):
        rec = CharPolyRecurrence(variant=Variant.UNBOUNDED, a=(), b=())
        with pytest.raises(SizeError):
            max_real_root_detailed(rec)

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
                rec = recurrence_coefficients(eta, n, variant)
                root = max_real_root_detailed(rec).value
                eig = eigen_spectrum(build_matrices(eta, n, variant)).max_real
                assert root == pytest.approx(eig, abs=1e-8)


class TestCertifiedRoute2:
    # top two roots closer than one step of a 2,048-point scan
    @pytest.mark.parametrize(
        "variant, kappa, n, want",
        [
            (Variant.BOUNDED, 1.0, 34, 0.4902404022140264),
            (Variant.UNBOUNDED, 1.0, 128, 4.381966011250105),
        ],
    )
    def test_scan_faults_are_certified(self, variant, kappa, n, want):
        eta = eta_sequence(LevyDriver(kappa=kappa), n)
        r = max_real_root_detailed(recurrence_coefficients(eta, n, variant))
        assert not r.used_fallback
        assert r.value == pytest.approx(want, rel=1e-8)
        eig = eigen_spectrum(build_matrices(eta, n, variant)).max_real
        assert r.value == pytest.approx(eig, rel=1e-8)

    def test_close_top_pair_is_certified(self):
        # roots 10 +/- 1e-5 and -10
        rec = CharPolyRecurrence(
            variant=Variant.UNBOUNDED, a=(1e-10, 1e-10), b=(10.0, 10.0, -10.0)
        )
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert r.value == pytest.approx(10.0000100000025, rel=1e-12)

    def test_agrees_with_eigen_route_on_random_systems(self, rng):
        count, certified = 300, 0
        for variant, n, eta in _route2_systems(rng, count):
            r = max_real_root_detailed(recurrence_coefficients(eta, n, variant))
            eig = eigen_spectrum(build_matrices(eta, n, variant)).max_real
            # certified or flagged, the value is the top eigenvalue
            assert abs(r.value - eig) <= 1e-8 * max(1.0, abs(eig)), (variant, n)
            certified += not r.used_fallback
        # an inconclusive certificate is safe but slow; it should be rare
        assert certified >= 0.95 * count

    def test_certificate_rejects_points_off_the_top_root(self, rng):
        tried = 0
        for variant, n, eta in _route2_systems(rng, 40):
            rec = recurrence_coefficients(eta, n, variant)
            top = _newton_from_above(rec, _gershgorin_upper(rec))
            assert _certified_top_root(rec, top)
            # above the top root: no root within 2e-9 relative
            above = top + 1e-7 * max(1.0, abs(top))
            assert not _certified_top_root(rec, above)
            spec = eigen_spectrum(build_matrices(eta, n, variant))
            real = [z.real for z in spec.eigenvalues if z.imag == 0.0]
            for below in real[1:3]:  # the second- and third-highest
                y = below
                for _ in range(8):
                    p, dp, _ = charpoly_eval(rec, y)
                    y -= p / dp
                if abs(y - top) > 1e-6 * max(1.0, abs(top)):
                    tried += 1
                    assert not _certified_top_root(rec, y), (variant, n, y)
        assert tried >= 60

    def test_descartes_check_rejects_a_root_with_two_above(self):
        # P_3 = (x - 0.5)(x - 2)(x - 3). Both trailing determinants, x^2 + 6/11
        # and x, have positive Taylor coefficients at 0.5, and P_3 crosses
        # zero upward there, so only the sign changes of P_3(0.5 + t) show
        # the two roots above.
        q = 6.0 / 11.0
        rec = CharPolyRecurrence(
            variant=Variant.UNBOUNDED, a=(q - 8.5, -q), b=(5.5, 0.0, 0.0)
        )
        assert not _certified_top_root(rec, 0.5)
        assert _certified_top_root(rec, 3.0)
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert r.value == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize(
        "variant, kappa, n",
        [
            (Variant.UNBOUNDED, 2 * 402 / 400**2, 400),  # truncates at N = 400
            (Variant.BOUNDED, 1.0, 300),
            (Variant.BOUNDED, 1.0, 400),
        ],
        ids=["unbounded-truncating-400", "bounded-kappa1-300", "bounded-kappa1-400"],
    )
    def test_certified_at_large_n(self, variant, kappa, n):
        # P_N's Taylor coefficients leave double range here unless the
        # scale matches |P_N(c)|^(1/N)
        eta = eta_sequence(LevyDriver(kappa=kappa), n)
        r = max_real_root_detailed(recurrence_coefficients(eta, n, variant))
        assert not r.used_fallback
        eig = eigen_spectrum(build_matrices(eta, n, variant)).max_real
        assert r.value == pytest.approx(eig, rel=1e-13)

    @pytest.mark.parametrize(
        "kappa, n, tol",
        [
            (0.0132775, 128, 1e-12),
            (0.0125, 128, 1e-12),
            (0.01, 160, 1e-12),
            (1.0, 128, 1e-10),
        ],
    )
    def test_eig_fallback_keeps_the_spectrum(self, kappa, n, tol):
        # sub = a_n, super = 1 gave 393.76 at kappa=0.0132775 and found no
        # real eigenvalue at kappa=0.0125 and 0.01
        eta = eta_sequence(LevyDriver(kappa=kappa), n)
        rec = recurrence_coefficients(eta, n, Variant.UNBOUNDED)
        eig = eigen_spectrum(build_matrices(eta, n, Variant.UNBOUNDED)).max_real
        assert _eig_fallback(rec) == pytest.approx(eig, abs=tol)


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
