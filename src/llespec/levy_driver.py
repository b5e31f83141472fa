"""Symmetric drift-free Levy drivers on the circle and their exponents eta_n.

A driver is Brownian temperature kappa plus a jump measure restricted to
uniform-on-circle intensity and finitely many symmetric atom pairs. The
characteristic exponents are

    eta_n = kappa n^2 / 2 + uniform_rate + sum_atoms rate * (1 - cos(n*angle))

for n >= 1 (the uniform part contributes its full rate because cos(n phi)
averages to zero over the circle), with eta_0 = 0 implicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

__all__ = [
    "LevyDriver",
    "EtaSequence",
    "eta_sequence",
    "validate_eta",
    "driver_from_dict",
    "eta_from_json_file",
]

# ~2^20 exponents already take ~1 s and ~150 MB through build_matrices, and
# the dense solvers stop at 4096: a larger request is refused before the loop
_ETA_LIMIT = 1 << 20


def _number(value, field: str) -> float:
    """value as a float; a bool (numpy's too), a str or bytes, or anything
    float() rejects, raises ValidationError naming the field."""
    if not isinstance(value, (bool, np.bool_, str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{field} must be a number, got {value!r}")


def _nonnegative(value, field: str) -> float:
    """value as a float, finite and >= 0; ValidationError names the field."""
    value = _number(value, field)
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{field} must be finite and >= 0, got {value}")
    return value


def _as_tuple(values, field: str, of="numbers", size=None) -> tuple:
    """values as a tuple (of size entries); else ValidationError names field."""
    try:
        out = tuple(values)
        if size is None or len(out) == size:
            return out
    except TypeError:
        pass
    raise ValidationError(f"{field} must be a sequence of {of}, got {values!r}")


@dataclass(frozen=True)
class LevyDriver:
    """Parameters of a drift-free symmetric Levy driver.

    atoms are (angle, rate) pairs with angle in (0, pi]; each atom stands for
    the symmetric pair +/-angle with the given total rate split evenly, so an
    atom at exactly pi is a single point (its own mirror).
    """

    kappa: float = 0.0
    uniform_rate: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        kappa = _nonnegative(self.kappa, "kappa")
        uniform_rate = _nonnegative(self.uniform_rate, "uniform_rate")
        norm = []
        for k, atom in enumerate(_as_tuple(self.atoms, "atoms", "(angle, rate) pairs")):
            angle, rate = _as_tuple(atom, f"atoms[{k}]", "2 numbers", size=2)
            angle = _number(angle, f"atoms[{k}].angle")
            rate = _number(rate, f"atoms[{k}].rate")
            if not math.isfinite(angle) or not (0.0 < angle <= math.pi):
                raise ValidationError(
                    f"atoms[{k}].angle must lie in (0, pi], got {angle}"
                )
            if not math.isfinite(rate) or rate <= 0:
                raise ValidationError(f"atoms[{k}].rate must be > 0, got {rate}")
            norm.append((angle, rate))
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "uniform_rate", uniform_rate)
        object.__setattr__(self, "atoms", tuple(norm))


@dataclass(frozen=True)
class EtaSequence:
    """Exponents eta_1..eta_{n_max}; eta_0 = 0 is implicit."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = _as_tuple(self.values, "eta")
        vals = tuple(_nonnegative(v, f"eta[{i + 1}]") for i, v in enumerate(vals))
        if not vals:
            raise ValidationError("eta sequence must have at least one entry")
        object.__setattr__(self, "values", vals)

    @property
    def n_max(self) -> int:
        return len(self.values)


def eta_sequence(driver: LevyDriver, n_max: int) -> EtaSequence:
    """Exponent sequence eta_1..eta_{n_max} of a driver."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if n_max > _ETA_LIMIT:
        raise CapacityError(f"n_max={n_max} exceeds the exponent limit {_ETA_LIMIT}")
    vals = []
    for n in range(1, n_max + 1):
        v = driver.kappa * n * n / 2.0 + driver.uniform_rate
        for angle, rate in driver.atoms:
            v += rate * (1.0 - math.cos(n * angle))
        vals.append(v)
    return EtaSequence(tuple(vals))


def validate_eta(values) -> EtaSequence:
    """Wrap user-supplied exponents; accepts any nonnegative finite values."""
    return EtaSequence(values)


def driver_from_dict(d: dict) -> LevyDriver:
    """Build a driver from the JSON schema
    {"kappa": r, "uniform_rate": r, "atoms": [{"angle": r, "rate": r}]}.
    """
    known = {"kappa", "uniform_rate", "atoms"}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown driver fields: {sorted(unknown)}")
    atoms = d.get("atoms", [])
    if not isinstance(atoms, list):
        raise ValidationError("driver field 'atoms' must be a list")
    for k, a in enumerate(atoms):
        if not isinstance(a, dict) or set(a) != {"angle", "rate"}:
            raise ValidationError(f"atoms[{k}] must be an object with angle and rate")
    return LevyDriver(
        kappa=d.get("kappa", 0.0),
        uniform_rate=d.get("uniform_rate", 0.0),
        atoms=tuple((a["angle"], a["rate"]) for a in atoms),
    )


def eta_from_json_file(path: str, n_max: int) -> EtaSequence:
    """Load eta from a JSON file holding either a driver object or a formal
    sequence {"eta": [eta_1, eta_2, ...]}.

    Driver files are evaluated out to n_max; formal files are returned
    whole, and the computation that uses them checks their coverage.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read eta file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"eta file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"eta file {path} must hold a JSON object")
    if "eta" in data:
        if set(data) != {"eta"}:
            raise ValidationError("formal eta file must hold exactly the key 'eta'")
        if not isinstance(data["eta"], list):
            raise ValidationError("formal eta file's 'eta' must be a list")
        return validate_eta(data["eta"])
    return eta_sequence(driver_from_dict(data), n_max)
