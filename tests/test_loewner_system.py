import dataclasses
import math
import warnings
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
    ValidationError,
    Variant,
    build_matrices,
    charpoly_coefficients,
    charpoly_eval,
    eta_sequence,
    recurrence_coefficients,
    truncation_order,
    validate_eta,
)
from llespec import spectral_solver
from llespec.fuchsian_series import _local_bands
from llespec.loewner_system import (
    _BOUND_U,
    CharPolyRecurrence,
    _charpoly_taylor,
    _dense,
    _rescale_pair,
)
from llespec.spectral_solver import _gershgorin_upper, max_real_root_detailed
from tests.conftest import (
    charpoly_log_abs,
    exact_charpoly,
    loop_oracle_etas,
    random_driver,
    same_values,
    truncating_etas,
)

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

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_bands_match_the_displayed_formulas_bitwise(self, rng, variant):
        # the displayed form, entry by entry in Python floats, with the same
        # order of operations as the array expressions
        def displayed(eta, n):
            e = [0.0, *eta.values[: n - 1]]
            if variant is Variant.UNBOUNDED:
                return (
                    [-(e[i] + i) / 2 for i in range(n)],
                    [(e[i] - i - 2) / 2 for i in range(1, n)],
                    [3.0 - e[i] for i in range(n)],
                    [-2.0 if i == 0 else (e[i] + i - 2) / 2 for i in range(n - 1)],
                )
            return (
                [-(e[i] + 2 - i) / 2 for i in range(n)],
                [(e[i] + 2 - i) / 2 for i in range(1, n)],
                [-e[i] - 1.0 for i in range(n)],
                [2.0 if i == 0 else (e[i] + i + 2) / 2 for i in range(n - 1)],
            )

        # integer exponents put exact zeros, and signed ones, in the bands
        cases = [(ETA_SLE2, 8), (ETA_PLE1, 8)] + [
            (eta_sequence(random_driver(rng), n), n)
            for n in (1, 2, 3, 5, 17, 64, 150, 299, 300)
            for _ in range(3)
        ]
        for eta, n in cases:
            m = build_matrices(eta, n, variant)
            got = (m.a_diag, m.b_sub, m.b_diag, m.b_super)
            for band, want in zip(got, displayed(eta, n)):
                assert band.dtype == np.float64
                assert band.tobytes() == np.array(want, dtype=float).tobytes()

    def test_a_off_is_stored_once_in_b(self):
        # A's off-diagonal is B's band on the same side, so no LoewnerMatrices
        # can hold an A and a B that disagree on it
        fields = {f.name for f in dataclasses.fields(LoewnerMatrices)}
        assert fields == {"variant", "a_diag", "b_sub", "b_diag", "b_super"}
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

    def test_lists_and_arrays_become_float_tuples(self):
        for a, b in (([1.0], [0.0, 5.0]), (np.array([1]), np.array([0.0, 5.0]))):
            rec = CharPolyRecurrence(Variant.UNBOUNDED, a=a, b=b)
            assert same_values(rec.a, (1.0,)) and same_values(rec.b, (0.0, 5.0))
            assert type(rec.a) is tuple and type(rec.b) is tuple
            assert charpoly_eval(rec, 1.0) == (-5.0, -3.0, 0.0)
            assert max_real_root_detailed(rec).value == pytest.approx((5 + 29**0.5) / 2)

    @pytest.mark.parametrize(
        "bad", [True, "x", None, 1j, "1", "1e3", b"2", np.True_, np.False_]
    )
    def test_bools_and_non_numbers_refused(self, bad):
        # numeric strings and numpy bools are refused too, although float()
        # reads them
        with pytest.raises(ValidationError, match="a_n must be a number"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=(bad,), b=(0.0, 5.0))
        with pytest.raises(ValidationError, match="b_n must be a number"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=(1.0,), b=(0.0, bad))
        with pytest.raises(ValidationError, match=r"eta\[2\] must be a number"):
            validate_eta([1.0, bad])

    @pytest.mark.parametrize(
        "a, b, field",
        [
            (5, (1.0,), "a"),
            (None, (1.0,), "a"),
            ((), 5, "b"),
            ((), np.array(1.0), "b"),
        ],
        ids=["a-int", "a-none", "b-int", "b-0-d-array"],
    )
    def test_non_sequences_refused(self, a, b, field):
        with pytest.raises(ValidationError, match=f"^{field} must be a sequence of numbers"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=a, b=b)

    @pytest.mark.parametrize(
        "a, b",
        [((1.0,), (0.0,)), ((), (0.0, 5.0)), ((1.0, 2.0), (0.0, 5.0)), ((1.0,), ())],
        ids=["a-long", "a-short", "a-two-long", "b-empty"],
    )
    def test_band_lengths_must_match(self, a, b):
        with pytest.raises(SizeError, match="len|empty"):
            CharPolyRecurrence(Variant.UNBOUNDED, a=a, b=b)

    def test_degree_zero_is_the_empty_recurrence(self):
        with pytest.raises(SizeError, match="degree must be >= 0, got -1"):
            recurrence_coefficients(ETA_SLE2, -1, Variant.UNBOUNDED)
        rec = recurrence_coefficients(ETA_SLE2, 0, Variant.UNBOUNDED)
        assert rec.n == 0 and rec.a == () and rec.b == ()
        assert charpoly_eval(rec, 2.5) == (1.0, 0.0, 0.0)

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


def _unscaled_pass(rec, x) -> tuple:
    """(P_N(x), P_N'(x)) by charpoly_eval's recurrence, with no rescaling."""
    p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
    for a_k, b_k in zip((0.0,) + rec.a, rec.b):
        t = x - b_k
        p_prev, p, d_prev, d = p, t * p - a_k * p_prev, d, t * d + p - a_k * d_prev
    return p, d


class TestExactRescaling:
    def test_rescaled_pass_is_the_unscaled_pass_bitwise(self, rng):
        # Brownian kappa 0.5-2, N 60-120: the running pair leaves
        # [1e-150, 1e150] while P_N and P_N' stay in range, and powers of
        # two change no bit
        rescaled = 0
        for variant in Variant:
            for _ in range(15):
                kappa = float(rng.uniform(0.5, 2.0))
                n = int(rng.integers(60, 121))
                eta = eta_sequence(LevyDriver(kappa=kappa), n)
                rec = recurrence_coefficients(eta, n, variant)
                for x in rng.uniform(-50.0, 50.0, size=4).tolist():
                    want = _unscaled_pass(rec, x)
                    p, dp, e = charpoly_eval(rec, x)
                    assert type(e) is int
                    if e and max(map(abs, want)) < 1e300:
                        rescaled += 1
                        assert (math.ldexp(p, e), math.ldexp(dp, e)) == want, (n, x)
        assert rescaled >= 30

    def test_subnormal_running_values_rescale_within_range(self):
        # 2^-e for the frexp exponent of 2e-320 is no double; e stops at -1023
        rec = CharPolyRecurrence(Variant.UNBOUNDED, a=(0.0, 0.0), b=(0.0, 0.0, 0.0))
        assert charpoly_eval(rec, 1e-320) == (0.0, 0.0, -1023)


def _exact_system(rng, n, variant):
    """Recurrence with small-rational eta."""
    eta = validate_eta(rng.integers(0, 40, size=n) / 4.0)
    return recurrence_coefficients(eta, n, variant)


class TestNewtonPair:
    def test_ratio_matches_exact(self, rng):
        for variant in Variant:
            for _ in range(10):
                n = int(rng.integers(1, 10))
                rec = _exact_system(rng, n, variant)
                coeffs = exact_charpoly(rec)
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
                coeffs = exact_charpoly(rec)
                # above every root of every trailing block, where the bound holds
                c = _gershgorin_upper(rec) + float(rng.uniform(0.0, 5.0))
                scale = 4.0
                cf, sf = Fraction(c), Fraction(scale)
                exact = [
                    sum(coeffs[j] * comb(j, k) * cf ** (j - k) for j in range(k, n + 1))
                    * sf**k
                    for k in range(n + 1)
                ]
                t, err, _ = _charpoly_taylor(rec, c, scale)
                factor = Fraction(float(t[-1])) / exact[-1]  # a power of two
                for tk, ek, want in zip(t, err, exact):
                    assert abs(Fraction(float(tk)) / factor - want) <= Fraction(
                        float(ek)
                    ) / factor
                    assert ek < np.inf

    def test_bound_holds_past_a_negative_trailing_determinant(self):
        # Q_1 = (c - b_1) + scale t has a negative constant term at c = 1, so
        # the bound runs on absolute values
        rec = CharPolyRecurrence(variant=Variant.UNBOUNDED, a=(1.0,), b=(0.0, 5.0))
        _assert_within_bound(rec, 1.0, 4.0)

    def test_bound_holds_for_any_signs(self, rng):
        # small-rational a and b of either sign, and c below, between and
        # above the roots, where trailing determinants may be negative
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a, b = rng.integers(-20, 21, size=(2, n)) / 4.0
            rec = CharPolyRecurrence(
                variant=Variant.UNBOUNDED,
                a=tuple(a[1:].tolist()),
                b=tuple(b.tolist()),
            )
            c = float(rng.uniform(-15.0, 15.0))
            _assert_within_bound(rec, c, float(2.0 ** rng.integers(-2, 4)))


def _assert_within_bound(rec, c, scale):
    """_charpoly_taylor's coefficients at c lie within their finite bounds of
    the exact shift of the exact expansion."""
    coeffs = exact_charpoly(rec)
    n = rec.n
    cf, sf = Fraction(c), Fraction(scale)
    exact = [
        sum(coeffs[j] * comb(j, k) * cf ** (j - k) for j in range(k, n + 1)) * sf**k
        for k in range(n + 1)
    ]
    t, err, _ = _charpoly_taylor(rec, c, scale)
    assert np.all(np.isfinite(err))
    factor = Fraction(float(t[-1])) / exact[-1]  # a power of two
    for tk, ek, want in zip(t, err, exact):
        assert abs(Fraction(float(tk)) / factor - want) <= Fraction(float(ek)) / factor


def _signed_zero_recurrences(rng, n_max):
    # pi-scaled recurrences with exact and signed zeros
    for n in range(1, n_max + 1):
        a, b = np.pi * rng.standard_normal((2, n))
        for band in (a, b):
            band[rng.random(n) < 0.3] = 0.0
            band[rng.random(n) < 0.3] = -0.0
        yield CharPolyRecurrence(
            Variant.UNBOUNDED, tuple(a[1:].tolist()), tuple(b.tolist())
        )


def _charpoly_taylor_two_loops(rec, c, scale):
    """The two-loop Taylor pass that _charpoly_taylor's single loop
    replaced, kept as the oracle: the Q_j backward to their first negative
    coefficient, then P_k with its bound forward. Also returns whether the
    bound ran on absolute values."""
    n = rec.n
    d = c - np.asarray(rec.b, dtype=float)
    a = np.asarray((0.0,) + rec.a + (0.0,), dtype=float)
    q_prev, q = np.zeros(n + 1), np.zeros(n + 1)
    q[0] = 1.0
    absolute = False
    for j in range(n - 1, 0, -1):
        q_next = d[j] * q - a[j + 1] * q_prev
        q_next[1:] += scale * q[:-1]
        if q_next.min() < 0.0:
            absolute = True
            break
        q_prev, q = q, q_next
        _rescale_pair(q_prev, q)
    prev, cur = np.zeros((2, n + 1)), np.zeros((2, n + 1))
    cur[0, 0] = 1.0
    exponent = 0
    for k in range(n):
        lam = abs(d[k]) * np.abs(cur[0]) + abs(a[k]) * np.abs(prev[0])
        lam[1:] += scale * np.abs(cur[0, :-1])
        nxt = d[k] * cur - a[k] * prev
        if absolute:
            nxt[1] = abs(d[k]) * cur[1] + abs(a[k]) * prev[1]
        nxt[:, 1:] += scale * cur[:, :-1]
        nxt[1] += lam
        prev, cur = cur, nxt
        exponent += _rescale_pair(prev, cur)
    return cur[0], cur[1] * _BOUND_U, exponent, absolute


def _assert_two_loops_bitwise(rec, c, scale) -> tuple[int, bool]:
    """_charpoly_taylor's (t, err, exponent) equal the two loops' bit for
    bit, signed zeros included; returns the exponent and whether the bound
    ran on absolute values."""
    t, err, exponent = _charpoly_taylor(rec, c, scale)
    want_t, want_err, want_exponent, absolute = _charpoly_taylor_two_loops(
        rec, c, scale
    )
    assert type(exponent) is int and exponent == want_exponent, (rec.n, c, scale)
    for got, want in ((t, want_t), (err, want_err)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (rec, c)
    return exponent, absolute


def _scaled_recurrence(rng, n, size):
    a, b = size * rng.standard_normal((2, n))
    return CharPolyRecurrence(
        Variant.UNBOUNDED, tuple(a[1:].tolist()), tuple(b.tolist())
    )


class TestTaylorPassMatchesTheTwoLoops:
    def test_random_recurrences_in_both_modes(self, rng):
        # a and b up to 1e6, c above every trailing root or anywhere, and
        # recurrences with exact and signed zeros
        modes = []
        recs = list(_signed_zero_recurrences(rng, 30))
        for _ in range(400):
            size = 10.0 ** rng.uniform(0.0, 6.0)
            recs.append(_scaled_recurrence(rng, int(rng.integers(1, 31)), size))
        for i, rec in enumerate(recs):
            size = max(map(abs, rec.a + rec.b))
            c = float(3.0 * size * rng.standard_normal())
            if i % 2:
                c = _gershgorin_upper(rec) + float(rng.uniform(0.0, size))
            scale = float(2.0 ** rng.integers(-4, 24))
            modes.append(_assert_two_loops_bitwise(rec, c, scale)[1])
        assert 100 < sum(modes) < len(modes) - 100

    def test_rescaled_passes_at_zero(self, rng):
        recs = [_scaled_recurrence(rng, n, 1e6) for n in range(1, 41)]
        recs += [
            recurrence_coefficients(eta, n, variant)
            for variant in Variant
            for n, eta in truncating_etas(160)[::9]
        ]
        exponents = [_assert_two_loops_bitwise(rec, 0.0, 1.0)[0] for rec in recs]
        assert sum(e != 0 for e in exponents) > 20

    def test_route2_passes_on_brownian_systems(self, monkeypatch):
        # every pass route 2 makes, truncating and kappa = 1 up to N = 160
        checked = []

        def pass_checked(rec, c, scale):
            checked.append(_assert_two_loops_bitwise(rec, c, scale))
            return _charpoly_taylor(rec, c, scale)

        monkeypatch.setattr(spectral_solver, "_charpoly_taylor", pass_checked)
        etas = truncating_etas(160)[::7]
        etas += [(n, eta_sequence(LevyDriver(kappa=1.0), n)) for n in (34, 100, 160)]
        for variant in Variant:
            for n, eta in etas:
                max_real_root_detailed(recurrence_coefficients(eta, n, variant))
        assert len(checked) >= 2 * len(etas)


class TestCharPolyCoefficients:
    def test_bounded_ple_exact(self):
        rec = recurrence_coefficients(ETA_PLE1, 3, Variant.BOUNDED)
        assert same_values(charpoly_coefficients(rec), [-1.0, 5.0, 5.0, 1.0])

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

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_expansion_within_its_bound(self, rng, variant):
        # random, small-rational and integer drivers at N = 1..40, and float
        # recurrences with exact and signed zeros
        recs = [
            recurrence_coefficients(eta, n, variant)
            for eta in loop_oracle_etas(rng, 40)
            for n in range(1, 41)
        ]
        for rec in recs + list(_signed_zero_recurrences(rng, 40)):
            got = charpoly_coefficients(rec)
            _, err, exponent = _charpoly_taylor(rec, 0.0, 1.0)
            bound = np.ldexp(err, exponent)
            assert np.all(np.isfinite(bound)) and all(type(c) is float for c in got)
            for c, e, want in zip(got, bound, exact_charpoly(rec)):
                assert abs(Fraction(c) - want) <= Fraction(float(e)), rec.n

    def test_overflow_raised_exactly_when_exact_overflows(self, rng):
        # entries near 1e100 leave double range within a few degrees
        top = Fraction(np.finfo(float).max)
        for n in range(1, 12):
            a, b = 1e100 * rng.standard_normal((2, n))
            b[0] = np.pi
            rec = CharPolyRecurrence(
                Variant.BOUNDED, tuple(a[1:].tolist()), tuple(b.tolist())
            )
            if max(abs(c) for c in exact_charpoly(rec)) > top:
                with pytest.raises(NumericalError, match=f"degree {n}:"):
                    charpoly_coefficients(rec)
            else:
                assert all(np.isfinite(charpoly_coefficients(rec)))

    def test_rescaled_cancellation_is_never_flushed(self):
        # 1e154 and -1e154 cancel in the beta^2 coefficient, -1e-20 exactly,
        # after a rescale by about 2^-1024
        rec = CharPolyRecurrence(
            Variant.UNBOUNDED, a=(0.0, 0.0), b=(1e154, -1e154, 1e-20)
        )
        try:
            assert charpoly_coefficients(rec)[2] == -1e-20
        except NumericalError:
            pass

    def test_rescaled_pass_keeps_a_zero_made_of_resolved_terms(self):
        # P_2 = beta^2 - 2 beta + (1 - 1); P_3 = (beta - 1e160) P_2 rescales
        rec = CharPolyRecurrence(Variant.UNBOUNDED, a=(1.0, 0.0), b=(1.0, 1.0, 1e160))
        assert _charpoly_taylor(rec, 0.0, 1.0)[2] > 0
        got = charpoly_coefficients(rec)
        assert same_values(got, [float(c) for c in exact_charpoly(rec)])
        assert same_values(got[:1], [0.0])


class TestCharPolyCoefficientRange:
    # unbounded kappa = sqrt(2): its coefficients leave double range from
    # about degree 150
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


# The per-index loops that recurrence_coefficients and truncation_order ran
# before their array forms, kept as oracles: the array forms run the same
# operations in the same order, so they agree bitwise.


def _recurrence_loop(eta, n, variant):
    m = build_matrices(eta, n, variant)
    a = tuple(float(s * t) for s, t in zip(m.b_sub, m.b_super))
    return a, tuple(float(v) for v in m.b_diag)


def _truncation_loop(eta, variant):
    shift = 2 if variant is Variant.UNBOUNDED else -2
    near = None
    for n in range(1, eta.n_max + 1):
        gap = abs(eta.values[n - 1] - (n + shift))
        if gap < 1e-12:
            return n
        if gap < 1e-6 and near is None:
            near = (n, gap)
    if near is not None:
        warnings.warn(
            f"eta_{near[0]} misses the truncation identity by {near[1]:.3e}; "
            "supply the exact value if truncation is intended",
            TruncationNearMissWarning,
            stacklevel=2,
        )
    return None


def _scan(scan, eta, variant):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = scan(eta, variant)
    return got, [(w.category, str(w.message)) for w in caught]


class TestArrayFormsMatchTheLoops:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_products_bitwise(self, rng, variant):
        etas = loop_oracle_etas(rng, 300)
        systems = [(n, eta) for eta in etas for n in range(1, 301)]
        for n, eta in systems + truncating_etas(300):
            rec = recurrence_coefficients(eta, n, variant)
            a, b = _recurrence_loop(eta, n, variant)
            assert same_values(rec.a, a) and same_values(rec.b, b), n
            assert type(rec.a) is tuple and type(rec.b) is tuple

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_truncation_scan_bitwise(self, rng, variant):
        prefixes = [
            validate_eta(eta.values[:k])
            for eta in loop_oracle_etas(rng, 300)
            for k in range(1, 301)
        ]
        # misses by 9e-7 and 2e-12 warn, by 1.1e-6 not; an exact hit after
        # a near miss returns without a warning, and of two hits the first
        # is returned
        shift = 2 if variant is Variant.UNBOUNDED else -2
        near = []
        for n, eta in truncating_etas(40):
            for off in (9e-7, 2e-12, 1.1e-6, 0.0):
                vals = list(eta.values)
                vals[n - 1] = n + shift + off
                near.append(validate_eta(vals))
                vals[n] = n + 1 + shift
                near.append(validate_eta(vals))
        etas = prefixes + [eta for _, eta in truncating_etas(300)] + near
        warned = 0
        for eta in etas:
            got = _scan(truncation_order, eta, variant)
            assert got == _scan(_truncation_loop, eta, variant)
            assert got[0] is None or type(got[0]) is int
            warned += bool(got[1])
        assert warned > 0
