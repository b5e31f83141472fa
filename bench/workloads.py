"""The benchmark's workloads: inputs drawn from a seed, the calls into
llespec's public functions that answer them, and each answer's reference.

Every reference comes from `reference.py`, which does not import llespec.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from llespec import cli, fuchsian_series, levy_driver, loewner_system, spectral_solver

import reference as ref

ROUTE_TOL = 1e-8  # eigenvalue and characteristic-polynomial routes
BLOWUP_TOL = 1e-5  # blowup fit

# sizes of the systems in the `roots` workload
ROOTS_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160)
ROOTS_SIZES_QUICK = (2, 3, 8)
# Brownian kappa = c * 2(N+2)/N^2, c drawn from this range: the top two
# roots of P_N stay at least ~7 of route 2's scan steps apart on both variants
BROWNIAN_C = (0.5, 2.0)
# one c in each of this many equal slices of log c, per size and variant:
# both routes' cost grows steeply as c falls (route 2 up to 5x across the
# range), so a single free draw made a round's time depend on the seed
BROWNIAN_STRATA = 4
N2_ETA1 = (0.5, 3.0)
UNIFORM_RATES = (1, 3, 8, 18, 38, 98)  # integer rates truncate at N = rate + 2

SEQ_BETA2_KAPPA = (0.5, 1.0)  # unbounded closed form holds for kappa <= 1
SEQ_BETA2_M = 200
SEQ_SLE_KAPPA = (0.28, 0.36)  # bounded: > 1/4 keeps B symmetrizable
SEQ_SLE_M = 150  # converged to kappa/2 within 1e-12 on the whole range
SEQ_PLE_BASES = (1, 3, 8, 18, 38, 98)  # plus a fraction in [0.1, 0.9]
SEQ_PLE_M = 120

BLOWUP_ETA1 = (0.75, 1.25)


class SchemaError(Exception):
    """An output that is missing or does not have the documented shape."""


@dataclass(frozen=True)
class Ref:
    label: str
    value: float
    tol: float
    known_fault: bool = False


@dataclass
class Task:
    """One timed call. `call(probe)` is timed; `extract(raw, probe)` turns
    its result into one number per reference."""

    name: str
    route: str  # "cli", "eigen", "root" or "blowup"
    call: Callable
    extract: Callable
    refs: list[Ref]


# ---------------------------------------------------------------- sequence


def _cli_task(name, argv, out: Path, extract, refs) -> Task:
    argv = [*argv, "--json", "--out", str(out)]

    def call(probe):
        with probe.span("cli.main"):
            rc = cli.main(argv)
        if rc != 0:
            raise SchemaError(f"llespec {' '.join(argv)} exited {rc}")
        return out

    def read(raw, probe):
        text = raw.read_bytes()
        probe.count("cli.out_bytes", len(text))
        return extract(json.loads(text))

    return Task(name, "cli", call, read, refs)


def _need(payload, keys):
    if not isinstance(payload, dict) or set(payload) != set(keys):
        got = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        raise SchemaError(f"expected keys {sorted(keys)}, got {got}")
    return payload


def sequence_tasks(rng: random.Random, out_dir: Path, quick: bool) -> list[Task]:
    k1 = rng.uniform(*SEQ_BETA2_KAPPA)
    k2 = rng.uniform(*SEQ_SLE_KAPPA)
    lams = [b + rng.uniform(0.1, 0.9) for b in SEQ_PLE_BASES]
    m1, m2, m3 = (SEQ_BETA2_M, SEQ_SLE_M, SEQ_PLE_M) if not quick else (40, 60, 20)
    if quick:
        lams = lams[:2]

    def beta2_out(p):
        _need(p, ("variant", "mode", "beta2", "converged", "convergence_gap", "sequence", "gaps"))
        if p["mode"] != "sequence" or [m for m, _ in p["sequence"]] != list(range(2, m1 + 1)):
            raise SchemaError("beta2: expected sequence mode over M = 2..m_max")
        return [p["beta2"]]

    def sle_out(p):
        _need(p, ("kappa", "variant", "beta2", "last_gap", "rows"))
        if p["variant"] != "bounded" or [r[0] for r in p["rows"]] != list(range(2, m2 + 1)):
            raise SchemaError("sle-converge: expected bounded rows over M = 2..m_max")
        return [p["beta2"]]

    def ple_out(p):
        points = _need(p, ("points",))["points"]
        if len(points) != len(lams):
            raise SchemaError(f"ple-curve: {len(points)} points for {len(lams)} lambdas")
        for pt, lam in zip(points, lams):
            _need(pt, ("lambda", "beta2", "mode", "N"))
            if pt["lambda"] != lam or pt["mode"] != "sequence" or pt["N"] != m3:
                raise SchemaError(f"ple-curve: unexpected point {pt}")
        return [pt["beta2"] for pt in points]

    return [
        _cli_task(
            "beta2",
            ["beta2", "--kappa", repr(k1), "--m-max", str(m1)],
            out_dir / "beta2.json",
            beta2_out,
            [Ref(f"beta2 kappa={k1:.6g} M={m1} vs (11-sqrt(1+4k))/2", ref.sle_unbounded_beta2(k1), ROUTE_TOL)],
        ),
        _cli_task(
            "sle-converge",
            ["sle-converge", "--kappa", repr(k2), "--variant", "bounded", "--m-max", str(m2)],
            out_dir / "sle_converge.json",
            sle_out,
            [Ref(f"sle-converge bounded kappa={k2:.6g} M={m2} vs k/2", ref.sle_bounded_beta2(k2), ROUTE_TOL)],
        ),
        _cli_task(
            "ple-curve",
            ["ple-curve", "--lambdas", ",".join(repr(x) for x in lams), "--m-max", str(m3)],
            out_dir / "ple_curve.json",
            ple_out,
            [
                Ref(f"ple-curve lambda={lam:.6g} N={m3} vs eigenvalue", ref.uniform_rate_beta2(lam, m3), ROUTE_TOL)
                for lam in lams
            ],
        ),
    ]


# ---------------------------------------------------------------- roots


def _variant(name):
    return loewner_system.Variant.parse(name)


def _route_tasks(label, eta_values, n, variant, reference, known_fault=False) -> list[Task]:
    """Route 1 (eigenvalue) and route 2 (recurrence root) on one system."""
    eta = levy_driver.validate_eta(eta_values)
    var = _variant(variant)
    return [
        Task(
            f"eigen {label}",
            "eigen",
            lambda probe: spectral_solver.eigen_spectrum(
                loewner_system.build_matrices(eta, n, var)
            ).max_real,
            lambda raw, probe: [raw],
            [Ref(label, reference, ROUTE_TOL)],
        ),
        Task(
            f"root {label}",
            "root",
            lambda probe: spectral_solver.max_real_root_detailed(
                loewner_system.recurrence_coefficients(eta, n, var)
            ),
            _root_value,
            [Ref(label, reference, ROUTE_TOL, known_fault)],
        ),
    ]


def _root_value(raw, probe):
    return [raw.value]


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One draw in each of k equal slices of [log lo, log hi]."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / k) for i in range(k)]


def roots_tasks(rng: random.Random, quick: bool) -> list[Task]:
    sizes = ROOTS_SIZES_QUICK if quick else ROOTS_SIZES
    tasks: list[Task] = []
    for n in sizes:
        kappa = ref.truncating_kappa(n, "unbounded")
        tasks += _route_tasks(
            f"unbounded truncating N={n}",
            ref.brownian_eta(kappa, 0.0, n),
            n,
            "unbounded",
            max(ref.truncated_sle_spectrum(n)),
        )
        if n >= 3:
            kappa = ref.truncating_kappa(n, "bounded")
            tasks += _route_tasks(
                f"bounded truncating N={n}",
                ref.brownian_eta(kappa, 0.0, n),
                n,
                "bounded",
                ref.truncated_bounded_beta2(n),
            )
        for variant in ("unbounded", "bounded"):
            if variant == "bounded" and n < 3:
                continue  # bounded N=2 has top eigenvalue 0 for every driver
            for c in _stratified(rng, *BROWNIAN_C, 1 if quick else BROWNIAN_STRATA):
                kappa = c * ref.truncating_kappa(n, "unbounded")
                eta = ref.brownian_eta(kappa, 0.0, n)
                tasks += _route_tasks(
                    f"{variant} kappa={kappa:.6g} N={n}",
                    eta,
                    n,
                    variant,
                    ref.top_eigenvalue(eta, n, variant),
                )
    for _ in range(2 if quick else 4):
        eta1 = rng.uniform(*N2_ETA1)
        tasks += _route_tasks(
            f"unbounded N=2 eta_1={eta1:.6g}", [eta1, 4.0], 2, "unbounded", ref.n2_beta2(eta1)
        )
    for lam in UNIFORM_RATES[:2] if quick else UNIFORM_RATES:
        n = lam + 2
        tasks += _route_tasks(
            f"bounded uniform rate {lam} N={n}",
            [float(lam)] * (n - 1),
            n,
            "bounded",
            ref.uniform_rate_beta2(lam, n),
        )
    # Known fault, independent of the seed: route 2 scans 2,048 points down
    # from the Gershgorin bound and, when the top two roots share a scan
    # step, brackets a lower root with used_fallback=False.
    faults = [("bounded", 1.0, 34)] + ([] if quick else [("unbounded", 1.0, 128)])
    for variant, kappa, n in faults:
        eta = ref.brownian_eta(kappa, 0.0, n)
        tasks += _route_tasks(
            f"{variant} kappa={kappa:g} N={n}", eta, n, variant,
            ref.top_eigenvalue(eta, n, variant), known_fault=True,
        )
    a, b = (1e-10, 1e-10), (10.0, 10.0, -10.0)
    rec = loewner_system.CharPolyRecurrence(variant=_variant("unbounded"), a=a, b=b)
    tasks.append(
        Task(
            "root a=(1e-10, 1e-10) b=(10, 10, -10)",
            "root",
            lambda probe: spectral_solver.max_real_root_detailed(rec),
            _root_value,
            [Ref("recurrence a=(1e-10,1e-10) b=(10,10,-10)", ref.top_real_root(a, b), ROUTE_TOL, True)],
        )
    )
    return tasks


# ---------------------------------------------------------------- blowup


def blowup_tasks(rng: random.Random, quick: bool) -> list[Task]:
    eta1 = rng.uniform(*BLOWUP_ETA1)
    systems = [
        (f"unbounded N=2 eta_1={eta1:.6g}", [eta1, 4.0], 2, "unbounded", ref.n2_beta2(eta1)),
        (
            "unbounded N=6 kappa=4/9",
            ref.brownian_eta(4.0 / 9.0, 0.0, 6),
            6,
            "unbounded",
            max(ref.truncated_sle_spectrum(6)),
        ),
        ("bounded uniform rate 1 N=3", [1.0, 1.0], 3, "bounded", ref.uniform_rate_beta2(1.0, 3)),
    ]
    tasks = []
    for label, eta_values, n, variant, value in systems[:1] if quick else systems:
        system = fuchsian_series.FuchsianSystem(
            loewner_system.build_matrices(levy_driver.validate_eta(eta_values), n, _variant(variant))
        )
        tasks.append(
            Task(
                f"blowup {label}",
                "blowup",
                lambda probe, s=system: fuchsian_series.blowup_exponent(s),
                lambda raw, probe: [raw.beta_est],
                [Ref(f"blowup {label}", value, BLOWUP_TOL)],
            )
        )
    return tasks


def build(workload: str, seed: int, out_dir: Path, quick: bool = False) -> list[Task]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sequence":
        return sequence_tasks(rng, out_dir, quick)
    if workload == "roots":
        return roots_tasks(rng, quick)
    if workload == "blowup":
        return blowup_tasks(rng, quick)
    raise ValueError(f"unknown workload {workload!r}")
