import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from llespec import (
    CapacityError,
    LevyDriver,
    NumericalError,
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
    truncated_sle_spectrum,
    validate_eta,
)
from llespec import cli, spectral_solver
from llespec.cli import main
from llespec.loewner_system import CharPolyRecurrence, LoewnerMatrices, charpoly_eval
from llespec.loewner_system import DENSE_LIMIT as DENSE_EIGEN_LIMIT
from llespec.spectral_solver import (
    _beta2_mode,
    _certified_top_root,
    _cluster,
    _eig_fallback,
    _eigenvalues,
    _gershgorin_upper,
    _max_real_sequence,
    _newton_from_above,
    _resonant,
    _top_eigenvalue,
)
from tests.conftest import (
    loop_oracle_etas,
    random_driver,
    same_values,
    truncating_etas,
)

ETA_SLE2 = eta_sequence(LevyDriver(kappa=2.0), 8)
ETA_PLE1 = eta_sequence(LevyDriver(uniform_rate=1.0), 8)
ETA_SLE_N6 = eta_sequence(LevyDriver(kappa=2.0 * 8 / 36), 8)  # kappa_6 = 4/9


def _gershgorin_loop(rec):
    """The per-index loop that _gershgorin_upper replaced, kept as the
    oracle, on the symmetric part's off-diagonals sqrt(max(a_k, 0))."""
    r = [0.0] * rec.n
    for k, a_k in enumerate(rec.a, start=1):
        s = math.sqrt(max(a_k, 0.0))
        r[k - 1] += s
        r[k] += s
    return max(b + rr for b, rr in zip(rec.b, r))


def _descartes_loop(nz):
    """The sign-change loop that descartes_positive_count replaced."""
    changes = 0
    for prev, cur in zip(nz, nz[1:]):
        if (prev > 0) != (cur > 0):
            changes += 1
    return changes


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
        Variant.UNBOUNDED, np.zeros(n),
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


def _replay_certificate(rec, x) -> bool:
    """The two facts `_certified_top_root` certifies at x, decided exactly.
    With h = 2 delta and c = x + delta, rounded as the certificate rounds
    them: every Taylor coefficient of P_N(c + u) is > 0, and
    P_N(c - h) < 0, evaluated in Fractions.

    One power of two D makes D c, D b_k and D^2 a_k integers, so
    Q_{k+1} = (D (c - b_k) + v) Q_k - D^2 a_k Q_{k-1} runs on ints, and
    Q_N(v) = D^N P_N(c + v / D) has coefficients of the same signs."""
    h = 2.0 * spectral_solver._CERT_REL * max(1.0, abs(x))
    c = x + 0.5 * h
    a = [Fraction(v) for v in (0.0,) + rec.a]
    b = [Fraction(v) for v in rec.b]
    # D = 2^k; a denominator 2^j needs k >= j for D c and D b_k, and
    # k >= ceil(j / 2) for D^2 a_k
    k = max(
        [v.denominator.bit_length() - 1 for v in [Fraction(c), *b]]
        + [v.denominator.bit_length() // 2 for v in a]
    )
    d = [(2**k * (Fraction(c) - v)).numerator for v in b]
    da = [(4**k * v).numerator for v in a]
    prev, cur = [], [1]
    for d_k, a_k in zip(d, da):
        cur, prev = [
            d_k * q + s - a_k * r
            for q, s, r in zip(cur + [0], [0] + cur, prev + [0, 0])
        ], cur
    if not all(q > 0 for q in cur):
        return False
    y = Fraction(c) - Fraction(h)
    p_prev, p = Fraction(0), Fraction(1)
    for a_k, b_k in zip(a, b):
        p_prev, p = p, (y - b_k) * p - a_k * p_prev
    return p < 0


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

    @pytest.mark.parametrize(
        "b0", [3.0, -1.0, 0.0, -0.0, 5e-324, 1e300, -1e300, 1e308]
    )
    def test_one_by_one_is_its_diagonal_entry(self, b0):
        # the symmetric solver returns a 1 x 1 diagonal exactly, signed zero
        # included; build_matrices puts 3 (unbounded) or -1 (bounded) there
        eigs = _eigenvalues(np.array([b0]), np.zeros(0), np.zeros(0))
        assert eigs.dtype == np.complex128
        assert eigs.real.tobytes() == np.array([b0]).tobytes()
        assert eigs.imag.tobytes() == np.zeros(1).tobytes()

    def test_zero_dimension_refused(self):
        with pytest.raises(SizeError, match="dimension >= 1"):
            eigen_spectrum(_block_diagonal([], [], []))

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


class TestDenseOrientation:
    """The dense QR path solves B flipped about its anti-diagonal."""

    def test_matrix_handed_to_qr_is_the_flip(self, rng, monkeypatch):
        n = 9
        diag, sub = rng.standard_normal(n), rng.standard_normal(n - 1)
        sup = -np.abs(rng.standard_normal(n - 1))
        seen, solve = [], np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: seen.append(a.copy()) or solve(a)
        )
        _eigenvalues(diag, sub, sup)
        (a,) = seen
        assert np.array_equal(np.diag(a), diag[::-1])
        assert np.array_equal(np.diag(a, -1), sub[::-1])
        assert np.array_equal(np.diag(a, 1), sup[::-1])

    @pytest.mark.parametrize("kappa, n", [(1.0, 400), (0.5, 200)])
    def test_top_eigenvalue_near_full_precision(self, kappa, n):
        # unbounded Brownian: beta(2) = (11 - sqrt(1 + 4 kappa)) / 2; B as it
        # stands gave 5e-12 and 1e-12 relative here
        eta = eta_sequence(LevyDriver(kappa=kappa), n)
        m = build_matrices(eta, n, Variant.UNBOUNDED)
        assert not np.all(m.b_sub * m.b_super > 0)  # the dense path
        exact = (11.0 - np.sqrt(1.0 + 4.0 * kappa)) / 2.0
        assert eigen_spectrum(m).max_real == pytest.approx(exact, rel=1e-13, abs=0)

    def test_full_spectrum_matches_forward_solve(self):
        # bounded kappa = 0.15 at N = 50 has a complex pair; the plain
        # reversal, which swaps the off-diagonals, is 2e-4 ||B|| off here
        n = 50
        m = build_matrices(eta_sequence(LevyDriver(kappa=0.15), n), n, Variant.BOUNDED)
        forward = np.sort(np.linalg.eigvals(m.b_dense()))
        assert np.count_nonzero(np.abs(forward.imag) > 1e-7) == 2
        flipped = np.sort(_eigenvalues(m.b_diag, m.b_sub, m.b_super))
        scale = np.linalg.norm(m.b_dense(), 2)
        assert np.abs(flipped - forward).max() <= 1e-9 * scale

    @pytest.mark.parametrize("n", [18, 20])
    def test_truncated_spectra_stay_real(self, n):
        # both truncating Brownian systems have a real spectrum; the plain
        # reversal puts imaginary parts of 0.03-0.3 on them
        for variant, s in ((Variant.UNBOUNDED, 2), (Variant.BOUNDED, -2)):
            eta = eta_sequence(LevyDriver(kappa=2.0 * (n + s) / n**2), n)
            spec = eigen_spectrum(build_matrices(eta, n, variant))
            assert spec.all_real
            top = max(truncated_sle_spectrum(n, variant))
            assert spec.max_real == pytest.approx(top, rel=1e-12, abs=0)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("n", [25, 40, 100, 200, 400])
    def test_truncating_top_value(self, variant, n):
        # from N = 25 the computed bulk of these spectra is complex, but
        # beta(2) stays within 2e-13 of the closed form
        s = 2 if variant is Variant.UNBOUNDED else -2
        eta = eta_sequence(LevyDriver(kappa=2.0 * (n + s) / n**2), n)
        top = max(truncated_sle_spectrum(n, variant))
        got = eigen_spectrum(build_matrices(eta, n, variant)).max_real
        assert got == pytest.approx(top, rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_gershgorin_bound_matches_the_loop(self, rng, variant):
        etas = loop_oracle_etas(rng, 300)
        systems = [(n, eta) for eta in etas for n in range(1, 301)]
        for n, eta in systems + truncating_etas(300):
            rec = recurrence_coefficients(eta, n, variant)
            got, want = _gershgorin_upper(rec), _gershgorin_loop(rec)
            assert same_values([got], [want]), n

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_gershgorin_bound_lies_above_every_trailing_block(self, rng, variant):
        # Bendixson and Cauchy interlacing: the bound of B's symmetric part
        # lies above the real part of every eigenvalue of B and of each of
        # its trailing blocks, and at most at the bound with sqrt|a_n| radii
        etas = loop_oracle_etas(rng, 60)
        systems = [(n, eta) for eta in etas for n in range(1, 61, 3)]
        for n, eta in systems + truncating_etas(60):
            rec = recurrence_coefficients(eta, n, variant)
            bound = _gershgorin_upper(rec)
            b = build_matrices(eta, n, variant).b_dense()
            slack = 1e-12 * max(1.0, float(np.abs(b).sum(axis=1).max()))
            for j in range(n):
                assert np.linalg.eigvals(b[j:, j:]).real.max() <= bound + slack, (n, j)
            s = np.sqrt(np.abs(np.array([0.0, *rec.a, 0.0])))
            assert bound <= float(np.max(np.array(rec.b) + (s[:-1] + s[1:]))), n

    @pytest.mark.parametrize("n", [160, 400])
    def test_newton_takes_few_steps_from_the_bound(self, n, monkeypatch):
        # from the sqrt|a_n| bound, 31 and 81 above the top root, Newton
        # took 53 and 130 passes; from the symmetric part's, 0.73 above, 9
        calls = []

        def counted(rec, x):
            calls.append(x)
            return charpoly_eval(rec, x)

        monkeypatch.setattr(spectral_solver, "charpoly_eval", counted)
        eta = eta_sequence(LevyDriver(kappa=2.0 * (n + 2) / n**2), n)
        rec = recurrence_coefficients(eta, n, Variant.UNBOUNDED)
        top = _newton_from_above(rec, _gershgorin_upper(rec))
        assert top == pytest.approx(5.0 - 2.0 / n, rel=1e-13)
        assert len(calls) <= 12


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


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_recurrence_refuses_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=(bad,), b=(1.0, 2.0))
        with pytest.raises(ValidationError, match="finite"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=(1.0,), b=(1.0, bad))

    @pytest.mark.parametrize("kappa", [1e200, 1e300])
    def test_overflowing_product_is_numerical_error(self, kappa):
        # a_k is about (eta_k / 2)^2 in both variants
        eta = eta_sequence(LevyDriver(kappa=kappa), 4)
        for variant in Variant:
            with pytest.raises(NumericalError, match="leaves double range"):
                recurrence_coefficients(eta, 4, variant)

    @pytest.mark.parametrize(
        "diag, sub, sup",
        [
            ([1.0, 2.0], [1e200], [1e200]),  # symmetric band sqrt(inf)
            ([1.0, math.inf], [1.0], [1.0]),  # symmetric path
            ([1.0, 2.0], [math.nan], [1.0]),  # dense path (nan > 0 is False)
            ([1.0, math.inf], [-1.0], [1.0]),  # dense path
        ],
    )
    def test_non_finite_band_is_numerical_error(self, diag, sub, sup):
        with pytest.raises(NumericalError, match="not finite"):
            _eigenvalues(np.array(diag), np.array(sub), np.array(sup))

    def test_overflowing_cluster_mean_is_numerical_error(self):
        # two finite eigenvalues 1.7e308 form one cluster whose sum is inf
        m = _block_diagonal([1.7e308, 1.7e308], [0.0], [0.0])
        with pytest.raises(NumericalError, match="cluster mean"):
            eigen_spectrum(m)

    def test_opposite_eigenvalues_near_the_range_end(self):
        # their gap overflows, in _near_pairs and in _resonant, but they are
        # two finite, distinct, non-resonant eigenvalues
        m = _block_diagonal([1.7e308, -1.7e308], [0.0], [0.0])
        r = eigen_spectrum(m)
        assert sorted(c[1] for c in r.clusters) == [1, 1]
        assert not r.resonant and r.all_real and r.n_nonneg_real == 1
        assert r.max_real == 1.7e308

    @pytest.mark.parametrize(
        "a, b, want",
        [
            ((0.0,), (1.7e308, -1.7e308), 1.7e308),
            ((0.0, 0.0), (1e308, -1e308, 0.0), 1e308),
        ],
    )
    def test_overflowing_charpoly_falls_back(self, a, b, want):
        # P_N just above the top root overflows to inf, which leaves the
        # certificate inconclusive instead of raising OverflowError
        rec = CharPolyRecurrence(Variant.UNBOUNDED, a=a, b=b)
        r = max_real_root_detailed(rec)
        assert r.used_fallback
        assert r.value == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize(
        "a, b",
        [((0.0,), (1.7e308, -1.7e308)), ((0.0, 0.0), (1e308, -1e308, 0.0))],
    )
    def test_overflowing_charpoly_returns_the_eigenvalue(self, a, b):
        # P_N is not finite at Newton's start, so Newton never leaves it; the
        # start lies 1e-9 relative above the root, within the 1e-8 agreement
        rec = CharPolyRecurrence(Variant.UNBOUNDED, a=a, b=b)
        r = max_real_root_detailed(rec)
        assert r.used_fallback
        assert r.value == _eig_fallback(rec) == b[0]

    def test_overflowing_negative_product_takes_the_dense_path(self):
        # only the product's sign is read: -inf sends the finite bands to
        # the dense solver, with no overflow warning
        eigs = _eigenvalues(
            np.array([0.0, 0.0]), np.array([1e200]), np.array([-1e200])
        )
        np.testing.assert_allclose(np.sort(eigs.imag), [-1e200, 1e200])
        np.testing.assert_array_equal(eigs.real, [0.0, 0.0])


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

    def test_certified_past_a_higher_trailing_root(self):
        # rows 1..2 have a root at 5.19, above P_3's top root 5.17, so a
        # trailing determinant is negative at the certificate's point
        rec = CharPolyRecurrence(
            variant=Variant.UNBOUNDED, a=(-4.0, 1.0), b=(0.0, 0.0, 5.0)
        )
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert abs(r.value - _eig_fallback(rec)) <= 1e-13 * abs(r.value)

    def test_certified_roots_of_random_recurrences(self):
        rng = np.random.default_rng(3)
        certified = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a, b = rng.uniform(-5.0, 5.0, size=(2, n))
            rec = CharPolyRecurrence(
                variant=Variant.UNBOUNDED,
                a=tuple(a[1:].tolist()),
                b=tuple(b.tolist()),
            )
            try:
                r = max_real_root_detailed(rec)
            except NumericalError:  # no real root, so none to certify
                continue
            if not r.used_fallback:
                certified += 1
                eig = _eig_fallback(rec)
                assert abs(r.value - eig) <= 1e-8 * max(1.0, abs(eig)), rec
        # a trailing determinant negative at the root no longer stops the
        # certificate: 230 of the 280 systems with a real root certify
        assert certified >= 200

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
        "variant, kappa, n",
        [
            (Variant.UNBOUNDED, 2 * 402 / 400**2, 400),
            (Variant.BOUNDED, 1.0, 300),
            (Variant.BOUNDED, 1.0, 400),
            (Variant.BOUNDED, 1.0, 34),
            (Variant.UNBOUNDED, 1.0, 128),
        ],
        ids=[
            "unbounded-truncating-400",
            "bounded-kappa1-300",
            "bounded-kappa1-400",
            "bounded-kappa1-34",
            "unbounded-kappa1-128",
        ],
    )
    def test_certificate_replays_exactly(self, variant, kappa, n):
        # the certified answer is the top root, decided in exact arithmetic
        eta = eta_sequence(LevyDriver(kappa=kappa), n)
        rec = recurrence_coefficients(eta, n, variant)
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert _replay_certificate(rec, r.value)

    def test_close_pair_certificate_replays_exactly(self):
        rec = CharPolyRecurrence(
            variant=Variant.UNBOUNDED, a=(1e-10, 1e-10), b=(10.0, 10.0, -10.0)
        )
        r = max_real_root_detailed(rec)
        assert not r.used_fallback
        assert _replay_certificate(rec, r.value)

    def test_replay_rejects_the_second_highest_root(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 34)
        rec = recurrence_coefficients(eta, 34, Variant.BOUNDED)
        top = max_real_root_detailed(rec).value
        spec = eigen_spectrum(build_matrices(eta, 34, Variant.BOUNDED))
        y = [z.real for z in spec.eigenvalues if z.imag == 0.0][1]
        for _ in range(8):
            p, dp, _ = charpoly_eval(rec, y)
            y -= p / dp
        assert abs(y - top) > 1e-6
        assert not _replay_certificate(rec, y)

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
    def test_count_matches_the_loop(self, rng):
        # random sign patterns with zeros of both signs; the last nonzero
        # entry is the monic 1
        for _ in range(2000):
            size = rng.integers(0, 12)
            coeffs = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0], size)
            coeffs = [*coeffs.tolist(), *[0.0] * int(rng.integers(0, 2)), 1.0]
            coeffs += [0.0, -0.0][: int(rng.integers(0, 3))]
            got = descartes_positive_count(coeffs)
            assert type(got) is int
            assert got == _descartes_loop([c for c in coeffs if c != 0])

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

    def test_short_eta_that_never_closes_is_sequence_mode(self):
        # the mode rule answers for any length; only sequence mode's solve
        # needs eta to cover m_max
        eta = validate_eta([1.0, 2.0])
        assert _beta2_mode(eta, Variant.UNBOUNDED, 5) == ("sequence", 5)
        with pytest.raises(SizeError, match="eta covers n_max=2, need m_max=5"):
            beta2(eta, Variant.UNBOUNDED, 5)

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


def _newton_top(m, n, x0):
    """40-digit Newton's method on the characteristic polynomial of B's
    leading n x n block from x0, with the products sub*sup taken exactly."""
    with mpmath.workdps(40):
        diag = [mpmath.mpf(v) for v in m.b_diag[:n]]
        prod = [mpmath.mpf(s) * mpmath.mpf(t) for s, t in zip(m.b_sub, m.b_super)]
        x = mpmath.mpf(x0)
        for _ in range(20):
            p_prev, p, dp_prev, dp = mpmath.mpf(1), x - diag[0], mpmath.mpf(0), mpmath.mpf(1)
            for k in range(1, n):
                p_prev, p, dp_prev, dp = (
                    p, (x - diag[k]) * p - prod[k - 1] * p_prev,
                    dp, p + (x - diag[k]) * dp - prod[k - 1] * dp_prev,
                )
            x -= p / dp
        return float(x)


def _record_solves(monkeypatch) -> dict:
    """The sizes handed to the symmetric and to the dense eigensolver from
    here on, in order."""
    sizes = {"symmetric": [], "dense": []}

    def record(path, owner, name):
        solve = getattr(owner, name)

        def wrapper(a, *rest):
            sizes[path].append(len(a))
            return solve(a, *rest)

        monkeypatch.setattr(owner, name, wrapper)

    record("symmetric", scipy.linalg, "eigvalsh_tridiagonal")
    record("dense", np.linalg, "eigvals")
    return sizes


class TestShiftedSequence:
    """Route 1's sequence mode above M = 128, on blocks of either solver
    path: shifted Rayleigh quotient iteration, with whole-spectrum solves on
    the check grid of powers of two and m_max."""

    SYSTEMS = {
        # a_3 < 0: every M >= 4 takes the dense path
        "unbounded-kappa1": (LevyDriver(kappa=1.0), Variant.UNBOUNDED, 300, 4),
        # every product a_n is positive up to M = 133
        "bounded-rate130.5": (LevyDriver(uniform_rate=130.5), Variant.BOUNDED, 260, 134),
    }

    def test_unbounded_kappa1_converges(self):
        eta = eta_sequence(LevyDriver(kappa=1.0), 300)
        seq = _max_real_sequence(eta, Variant.UNBOUNDED, 300)
        want = (11.0 - math.sqrt(5.0)) / 2.0
        assert [k for k, _ in seq] == list(range(2, 301))
        assert max(abs(v - want) for k, v in seq if k >= 200) <= 1e-13 * want

    def test_bounded_rate_matches_40_digit_newton(self):
        eta = eta_sequence(LevyDriver(uniform_rate=130.5), 260)
        m = build_matrices(eta, 260, Variant.BOUNDED)
        seq = dict(_max_real_sequence(eta, Variant.BOUNDED, 260))
        # 130 is a symmetric-path block, 134 the first dense-path one
        for n in (130, 134, 150, 200, 255):
            want = _newton_top(m, n, seq[n])
            assert abs(seq[n] - want) <= 2e-15 * want
            # and it is the top eigenvalue, by the full solve
            assert seq[n] == pytest.approx(_top_eigenvalue(m, n), rel=1e-12)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_dense_solves_only_on_the_grid(self, system, monkeypatch):
        driver, variant, m_max, first_dense = self.SYSTEMS[system]
        eta = eta_sequence(driver, m_max)
        m = build_matrices(eta, m_max, variant)
        on_grid = {n: _top_eigenvalue(m, n) for n in (256, m_max)}
        sizes = _record_solves(monkeypatch)
        seq = _max_real_sequence(eta, variant, m_max)
        assert [k for k, _ in seq] == list(range(2, m_max + 1))
        # above 128 only the grid is solved whole, whichever the path
        assert sizes["symmetric"] == list(range(2, min(first_dense, 129)))
        assert sizes["dense"] == [m_max, *range(first_dense, 129), 256]
        # the sequence reports the dense value wherever one was computed
        assert {n: dict(seq)[n] for n in on_grid} == on_grid

    def test_symmetric_system_is_shifted_off_the_grid(self, monkeypatch):
        # every product a_n is positive: each block takes the symmetric path
        eta = eta_sequence(LevyDriver(kappa=0.3), 300)
        m = build_matrices(eta, 300, Variant.BOUNDED)
        assert np.all(m.b_sub * m.b_super > 0)
        whole = {n: _top_eigenvalue(m, n) for n in range(129, 301)}
        sizes = _record_solves(monkeypatch)
        seq = dict(_max_real_sequence(eta, Variant.BOUNDED, 300))
        assert sizes == {"symmetric": [300, *range(2, 129), 256], "dense": []}
        assert seq[256] == whole[256] and seq[300] == whole[300]
        assert all(abs(seq[n] - whole[n]) <= 1e-13 * whole[n] for n in whole)
        for n in (129, 150, 200, 255, 299):
            want = _newton_top(m, n, seq[n])
            assert abs(seq[n] - want) <= 2e-15 * want

    def test_unsettled_size_is_solved_dense(self, monkeypatch):
        eta = eta_sequence(LevyDriver(kappa=1.0), 200)
        m = build_matrices(eta, 200, Variant.UNBOUNDED)
        shifted = spectral_solver._shifted_top

        def unsettled_at_150(m, n, *rest):
            return (None, None, None) if n == 150 else shifted(m, n, *rest)

        monkeypatch.setattr(spectral_solver, "_shifted_top", unsettled_at_150)
        sizes = _record_solves(monkeypatch)
        seq = dict(_max_real_sequence(eta, Variant.UNBOUNDED, 200))
        assert sizes["dense"] == [200, *range(4, 129), 150]
        assert seq[150] == _top_eigenvalue(m, 150)

    @pytest.mark.parametrize(
        "diag, off, shift, factorizations",
        [
            # the shift is an entry of a diagonal block: dgttrf meets an
            # exact zero pivot (info != 0)
            ([1.0, 2.0, 3.0], ([0.0, 0.0], [0.0, 0.0]), 2.0, 1),
            # bands near the end of double range: the first solve is not
            # finite, and so is the quotient
            ([1e308, -1e308, 1e308], ([1e308, 1e308], [1e308, -1e308]), 0.0, 1),
            # a 3 x 3 Jordan block: the quotient never settles
            ([1.0] * 3, ([0.0, 0.0], [1.0, 1.0]), 0.5, spectral_solver._RQI_STEPS),
            # two equal diagonal entries coupled by 1e-300, the shift on them:
            # the solve is finite, but its squares overflow
            ([2.0, 2.0, 5.0], ([1e-300, 0.0], [1e-300, 0.0]), 2.0, 1),
            # diag - shift overflows on the second entry
            ([1.5e308, -1.5e308, 1.0], ([1.5e308, 0.0], [1.5e308, 0.0]), 1e308, 1),
            # a 2 x 2 block, which scipy's dgttrf wrapper refuses: no
            # factorization is tried
            ([1.0, 2.0], ([1.0], [1.0]), 1.5, 0),
        ],
        ids=[
            "zero-pivot", "non-finite-solve", "jordan-block",
            "overflowing-norm", "overflowing-shift", "n2",
        ],
    )
    def test_shifted_top_gives_up(self, diag, off, shift, factorizations, monkeypatch):
        dgttrf = scipy.linalg.lapack.dgttrf
        calls = []

        def counted(*args):
            calls.append(args)
            return dgttrf(*args)

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", counted)
        m = _block_diagonal(diag, *off)
        top = spectral_solver._shifted_top(m, len(diag), shift, None, None)
        assert top == (None,) * 3
        assert len(calls) == factorizations

    def test_failed_check_gives_the_all_dense_sequence(self, monkeypatch):
        m_max = 260
        eta = eta_sequence(LevyDriver(kappa=1.0), m_max)
        m = build_matrices(eta, m_max, Variant.UNBOUNDED)
        all_dense = [(k, _top_eigenvalue(m, k)) for k in range(2, m_max + 1)]
        # off the grid the shifted values differ from the dense ones in the
        # last bits, so the comparison below can tell the two apart
        assert _max_real_sequence(eta, Variant.UNBOUNDED, m_max) != all_dense
        shifted = spectral_solver._shifted_top
        calls = []

        def off_at_256(m, n, *rest):
            top, x, y = shifted(m, n, *rest)
            calls.append(n)
            return (top * (1.0 + 1e-10) if n == 256 else top), x, y

        monkeypatch.setattr(spectral_solver, "_shifted_top", off_at_256)
        assert _max_real_sequence(eta, Variant.UNBOUNDED, m_max) == all_dense
        # the sequence stopped at the failed check
        assert calls == list(range(129, 257))
