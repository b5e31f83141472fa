import math
import os
from pathlib import Path

import numpy as np
import pytest

from llespec import LevyDriver, charpoly_eval

# subprocesses started by the tests import llespec from this checkout too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def random_driver(rng: np.random.Generator) -> LevyDriver:
    """Random admissible driver: mixes diffusion, uniform rate, and atoms."""
    kappa = float(rng.uniform(0.0, 6.0))
    uniform_rate = float(rng.uniform(0.0, 5.0))
    n_atoms = int(rng.integers(0, 3))
    atoms = tuple(
        (float(rng.uniform(1e-3, np.pi)), float(rng.uniform(1e-3, 3.0)))
        for _ in range(n_atoms)
    )
    if kappa == 0.0 and uniform_rate == 0.0 and not atoms:
        uniform_rate = 1.0
    return LevyDriver(kappa=kappa, uniform_rate=uniform_rate, atoms=atoms)


def charpoly_log_abs(rec, x) -> float:
    """log |P_N(x)| from charpoly_eval's mantissa and scale; -inf at an
    exact zero."""
    p, _, log_scale = charpoly_eval(rec, x)
    return -math.inf if p == 0 else math.log(abs(p)) + log_scale


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(711)
