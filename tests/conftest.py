import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from llespec import LevyDriver, charpoly_eval, eta_sequence

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


def loop_oracle_etas(rng: np.random.Generator, n_max: int) -> list:
    """Exponent sequences on which the array forms are checked against the
    per-index loops they replaced: random drivers, small rationals and
    integers. The last two put exact and signed zeros in B's bands, and
    truncate unbounded at N = 5 and N = 2."""
    drivers = [random_driver(rng) for _ in range(3)] + [
        LevyDriver(kappa=0.5, uniform_rate=0.75),
        LevyDriver(kappa=2.0),
        LevyDriver(kappa=4.0, uniform_rate=3.0),
    ]
    return [eta_sequence(d, n_max) for d in drivers]


def truncating_etas(n_max: int) -> list:
    """(N, eta_1..eta_(N+1)) for the truncating Brownian families,
    kappa = 2(N + 2)/N^2 (unbounded) and 2(N - 2)/N^2 (bounded), N = 3..n_max."""
    return [
        (n, eta_sequence(LevyDriver(kappa=2.0 * (n + s) / n**2), n + 1))
        for n in range(3, n_max + 1)
        for s in (2, -2)
    ]


def same_values(got, want) -> bool:
    """Equal entry by entry in type and value, signed zeros included."""
    return [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


def exact_charpoly(rec) -> list:
    """Monomial coefficients of P_N, ascending, as exact Fractions: every
    float is a rational, so the expansion of the entries' own values is
    exact."""
    a = [Fraction(0)] + [Fraction(x) for x in rec.a]
    p_prev, p_cur = [], [Fraction(1)]
    for a_k, b_k in zip(a, map(Fraction, rec.b)):
        nxt = [Fraction(0)] + p_cur
        for j, c in enumerate(p_cur):
            nxt[j] -= b_k * c
        for j, c in enumerate(p_prev):
            nxt[j] -= a_k * c
        p_prev, p_cur = p_cur, nxt
    return p_cur


def charpoly_log_abs(rec, x) -> float:
    """log |P_N(x)| from charpoly_eval's mantissa and scale; -inf at an
    exact zero."""
    p, _, e = charpoly_eval(rec, x)
    return -math.inf if p == 0 else math.log(abs(p)) + e * math.log(2.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(711)
