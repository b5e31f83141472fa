import json
import math

import numpy as np
import pytest

from llespec import (
    CapacityError,
    EtaSequence,
    LevyDriver,
    ValidationError,
    driver_from_dict,
    eta_from_json_file,
    eta_sequence,
    validate_eta,
)
from llespec.levy_driver import _ETA_LIMIT
from tests.conftest import random_driver


class TestEtaSequence:
    def test_pure_diffusion(self):
        eta = eta_sequence(LevyDriver(kappa=2.0), 3)
        assert eta.values == (1.0, 4.0, 9.0)

    def test_uniform_rate_is_constant(self):
        eta = eta_sequence(LevyDriver(uniform_rate=7.0), 5)
        assert eta.values == (7.0,) * 5

    def test_atom_at_pi_alternates(self):
        # 1 - cos(n*pi) is 2 for odd n and 0 for even n
        eta = eta_sequence(LevyDriver(atoms=((math.pi, 1.5),)), 4)
        assert eta.values == pytest.approx((3.0, 0.0, 3.0, 0.0), abs=1e-12)

    def test_perturbation_cancellation_is_exact(self):
        # kappa = 4/9 - dk with uniform rate 18*dk leaves eta_6 = 8 exactly
        dk = 1e-4
        eta = eta_sequence(
            LevyDriver(kappa=4.0 / 9.0 - dk, uniform_rate=18.0 * dk), 6
        )
        assert eta.values[5] == 8.0

    def test_superquadratic_lower_bound_and_ratio(self, rng):
        for _ in range(200):
            d = random_driver(rng)
            eta = eta_sequence(d, 12)
            for n, v in enumerate(eta.values, start=1):
                assert v >= d.kappa * n * n / 2.0 - 1e-12
            assert eta.values[1] <= 4.0 * eta.values[0] + 1e-12

    def test_deterministic_bitwise(self, rng):
        for _ in range(20):
            d = random_driver(rng)
            assert eta_sequence(d, 9).values == eta_sequence(d, 9).values


class TestCapacity:
    def test_one_past_the_limit_raises_before_the_loop(self):
        with pytest.raises(CapacityError, match=str(_ETA_LIMIT + 1)):
            eta_sequence(LevyDriver(kappa=1.0), _ETA_LIMIT + 1)


class TestValidation:
    def test_negative_kappa_names_field(self):
        with pytest.raises(ValidationError, match="kappa"):
            LevyDriver(kappa=-0.1)

    def test_negative_uniform_rate(self):
        with pytest.raises(ValidationError, match="uniform_rate"):
            LevyDriver(uniform_rate=-1.0)

    def test_atom_angle_out_of_range(self):
        with pytest.raises(ValidationError, match=r"atoms\[0\]"):
            LevyDriver(atoms=((0.0, 1.0),))
        with pytest.raises(ValidationError, match=r"atoms\[1\]"):
            LevyDriver(atoms=((1.0, 1.0), (4.0, 1.0)))

    def test_atom_rate_positive(self):
        with pytest.raises(ValidationError, match="rate"):
            LevyDriver(atoms=((1.0, 0.0),))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            LevyDriver(kappa=float("nan"))

    def test_validate_eta_rejects_negative(self):
        with pytest.raises(ValidationError, match="eta"):
            validate_eta((1.0, -0.5))

    def test_validate_eta_rejects_empty(self):
        with pytest.raises(ValidationError):
            validate_eta(())

    def test_validate_eta_accepts_formal(self):
        eta = validate_eta((0.5, 9.0))
        assert isinstance(eta, EtaSequence)
        assert eta.n_max == 2

    def test_n_max_positive(self):
        with pytest.raises(ValidationError, match="n_max"):
            eta_sequence(LevyDriver(kappa=1.0), 0)


class TestJsonInput:
    def test_driver_schema(self, tmp_path):
        p = tmp_path / "drv.json"
        p.write_text(
            json.dumps(
                {
                    "kappa": 1.0,
                    "uniform_rate": 0.5,
                    "atoms": [{"angle": math.pi, "rate": 0.25}],
                }
            )
        )
        eta = eta_from_json_file(str(p), 3)
        assert eta.values == pytest.approx((1.5, 2.5, 5.5))

    def test_formal_schema(self, tmp_path):
        p = tmp_path / "eta.json"
        p.write_text(json.dumps({"eta": [1.0, 4.0, 9.0]}))
        eta = eta_from_json_file(str(p), 3)
        assert eta.values == (1.0, 4.0, 9.0)

    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_formal_file_is_returned_whole(self, tmp_path, n_max):
        # n_max sizes driver files only; the computation checks coverage
        p = tmp_path / "eta.json"
        p.write_text(json.dumps({"eta": [1.0, 4.0]}))
        assert eta_from_json_file(str(p), n_max).values == (1.0, 4.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            driver_from_dict({"kappa": 1.0, "sigma": 2.0})

    def test_mixed_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"eta": [1.0], "kappa": 2.0}))
        with pytest.raises(ValidationError):
            eta_from_json_file(str(p), 1)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError):
            eta_from_json_file(str(p), 1)


def test_driver_is_hashable_and_frozen():
    d = LevyDriver(kappa=1.0, atoms=((1.0, 2.0),))
    assert hash(d) == hash(LevyDriver(kappa=1.0, atoms=((1.0, 2.0),)))
    with pytest.raises(AttributeError):
        d.kappa = 2.0


def test_eta_values_are_floats_not_arrays(rng):
    eta = eta_sequence(random_driver(rng), 4)
    assert all(type(v) is float for v in eta.values)
    assert not isinstance(eta.values, np.ndarray)
