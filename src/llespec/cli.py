"""Command-line front end: spectra, beta(2), blowup fits, and the reference
curves, with deterministic CSV/JSON emitters.

Exit codes: 0 success, 2 input validation, 3 numerical failure, 4 capacity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .closed_forms import (
    beta2_unbounded_n2,
    perturbed_n6_driver,
    perturbed_n6_pairs,
    theorem1_solution,
)
from .errors import LLESpecError, NumericalError, ValidationError
from .fuchsian_series import FuchsianSystem, GeometricLadder, blowup_exponent
from .levy_driver import (
    LevyDriver,
    eta_from_json_file,
    eta_sequence,
    validate_eta,
)
from .loewner_system import LoewnerMatrices, Variant, build_matrices
from .spectral_solver import _beta2_mode, _max_real_sequence, _top_eigenvalue
from .spectral_solver import beta2, eigen_spectrum

__all__ = ["main"]

_DEFAULT_LAMBDAS = "1,3,8,18,38,98"


# ---------------------------------------------------------------- output


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(list(rows[0].keys()))
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row.values()])
    return buf.getvalue()


def _render_json(payload: dict) -> str:
    # strict RFC 8259: a NaN or infinity is a failure, not a bare token
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"result is not finite: {exc}") from exc


def _render_human(payload: dict, rows: list[dict]) -> str:
    lines = []
    for key, val in payload.items():
        if isinstance(val, (list, dict)):
            continue
        lines.append(f"{key} = {_fmt_cell(val)}")
    if rows:
        headers = list(rows[0].keys())
        table = [[_fmt_cell(v) for v in row.values()] for row in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _emit(args, payload: dict, rows: list[dict]) -> None:
    if args.json:
        text = _render_json(payload)
    elif args.csv:
        text = _render_csv(rows)
    else:
        text = _render_human(payload, rows)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except OSError as exc:
            raise ValidationError(
                f"cannot write output file {args.out}: {exc}"
            ) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- inputs


def _parse_atom(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"--atom expects ANGLE:RATE, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"--atom expects numbers, got {text!r}") from exc


def _resolve_eta(args, n_needed: int):
    has_driver = (
        args.kappa is not None or args.uniform_rate is not None or bool(args.atom)
    )
    if args.eta_file and has_driver:
        raise ValidationError("pass either driver flags or --eta-file, not both")
    if args.eta_file:
        return eta_from_json_file(args.eta_file, n_needed)
    if not has_driver:
        raise ValidationError(
            "missing eta source: pass --kappa/--uniform-rate/--atom or --eta-file"
        )
    driver = LevyDriver(
        kappa=args.kappa or 0.0,
        uniform_rate=args.uniform_rate or 0.0,
        atoms=tuple(_parse_atom(t) for t in (args.atom or ())),
    )
    return eta_sequence(driver, n_needed)


def _resolve_system(args) -> LoewnerMatrices:
    """The --variant system at --n, else at its truncation order N <= --m-max."""
    variant = Variant.parse(args.variant)
    if args.n is not None:
        if args.n < 1:
            raise ValidationError(f"--n must be >= 1, got {args.n}")
        n, eta = args.n, _resolve_eta(args, max(args.n - 1, 1))
    else:
        eta = _resolve_eta(args, args.m_max)
        mode, n = _beta2_mode(eta, variant, args.m_max)
        if mode != "truncated":
            raise ValidationError(f"no truncation order N <= {args.m_max}; pass --n")
    return build_matrices(eta, n, variant)


# ---------------------------------------------------------------- commands


def _cmd_eta(args) -> None:
    eta = _resolve_eta(args, args.n_max)
    if not 1 <= args.n_max <= eta.n_max:
        raise ValidationError(f"--n-max must be in 1..{eta.n_max}, got {args.n_max}")
    rows = [
        {"n": i + 1, "eta_n": v} for i, v in enumerate(eta.values[: args.n_max])
    ]
    # exactly the formal-eta schema, so --json output re-enters via --eta-file
    payload = {"eta": list(eta.values[: args.n_max])}
    _emit(args, payload, rows)


def _cmd_spectrum(args) -> None:
    system = _resolve_system(args)
    spec = eigen_spectrum(system)
    rows = [
        {"index": i, "re": z.real, "im": z.imag, "multiplicity": m}
        for i, (z, m) in enumerate(zip(spec.eigenvalues, spec.multiplicities))
    ]
    payload = {
        "variant": system.variant.value,
        "n": system.n,
        "max_real": spec.max_real,
        "n_nonneg_real": spec.n_nonneg_real,
        "resonant": spec.resonant,
        "all_real": spec.all_real,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in spec.eigenvalues],
        "clusters": [
            {"re": c.real, "im": c.imag, "multiplicity": m} for c, m in spec.clusters
        ],
    }
    _emit(args, payload, rows)


def _sequence_rows(seq, first_gap=None) -> list[dict]:
    """One row per (M, beta_max), with the gap to the previous row."""
    return [
        {"M": m, "beta_max": v, "gap": first_gap if i == 0 else abs(v - seq[i - 1][1])}
        for i, (m, v) in enumerate(seq)
    ]


def _cmd_beta2(args) -> None:
    variant = Variant.parse(args.variant)
    eta = _resolve_eta(args, args.m_max)
    rep = beta2(eta, variant, args.m_max)
    truncated = rep.mode == "truncated"
    # a truncated report is a one-row sequence at N, exact, so its gap is 0
    rows = _sequence_rows(
        rep.sequence or ((rep.n, rep.beta2),), 0.0 if truncated else None
    )
    payload = {
        "variant": variant.value,
        "mode": rep.mode,
        **({"N": rep.n} if truncated else {}),
        "beta2": rep.beta2,
        "converged": rep.converged,
        # None (JSON null) for a one-entry sequence, whose gap is inf
        "convergence_gap": rows[-1]["gap"],
    }
    if not truncated:
        payload["sequence"] = [[m, v] for m, v in rep.sequence]
        payload["gaps"] = [r["gap"] for r in rows[1:]]
    _emit(args, payload, rows)


def _cmd_fuchs(args) -> None:
    system = FuchsianSystem(_resolve_system(args))
    fit = blowup_exponent(system, GeometricLadder(args.j_min, args.j_max))
    payload = {
        "variant": system.variant.value,
        "n": system.n,
        "beta_est": fit.beta_est,
        "residual": fit.residual,
        "oscillation_detected": fit.oscillation_detected,
        "window_near": fit.window[0],
        "window_far": fit.window[1],
        "slopes": list(fit.slopes),
    }
    keys = ("beta_est", "residual", "oscillation_detected", "window_near", "window_far")
    _emit(args, payload, [{k: payload[k] for k in keys}])


def _cmd_theorem1(args) -> None:
    xi_grid = _parse_grid(args.xi_grid, "--xi-grid")
    beta_closed = beta2_unbounded_n2(args.eta1)
    spec = eigen_spectrum(
        build_matrices(validate_eta((args.eta1,)), 2, Variant.UNBOUNDED)
    )
    rows = []
    for xi in xi_grid:
        t = theorem1_solution(args.eta1, xi)
        rows.append(
            {"xi": xi, "f0": t.f0, "f1": t.f1, "theta0": t.theta0, "theta1": t.theta1}
        )
    payload = {
        "eta1": args.eta1,
        "beta2_closed": beta_closed,
        "beta2_eigen": spec.max_real,
        "abs_diff": abs(beta_closed - spec.max_real),
        "values": rows,
    }
    _emit(args, payload, rows)


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated numbers") from exc
    if not vals:
        raise ValidationError(f"{flag} is empty")
    return vals


def _cmd_ple_curve(args) -> None:
    lambdas = _parse_grid(args.lambdas, "--lambdas")
    if any(lam <= 0 or not math.isfinite(lam) for lam in lambdas):
        raise ValidationError("lambda grid entries must be positive and finite")

    def point(lam: float) -> dict:
        # integer lambda truncates exactly at N = lambda + 2; any other lambda
        # takes the top eigenvalue at N = m_max, the last of beta2's sequence
        m_max = max(args.m_max, int(math.ceil(lam)) + 2)
        eta = eta_sequence(LevyDriver(uniform_rate=lam), m_max)
        mode, n = _beta2_mode(eta, Variant.BOUNDED, m_max)
        beta = _top_eigenvalue(build_matrices(eta, n, Variant.BOUNDED), n)
        return {"lambda": lam, "beta2": beta, "mode": mode, "N": n}

    rows = [point(lam) for lam in lambdas]
    _emit(args, {"points": rows}, rows)


def _cmd_sle_converge(args) -> None:
    variant = Variant.parse(args.variant)
    eta = eta_sequence(LevyDriver(kappa=args.kappa), args.m_max)
    seq = _max_real_sequence(eta, variant, args.m_max)
    rows = _sequence_rows(seq)
    payload = {
        "kappa": args.kappa,
        "variant": variant.value,
        "beta2": seq[-1][1],
        "last_gap": rows[-1]["gap"],
        "rows": [[r["M"], r["beta_max"], r["gap"]] for r in rows],
    }
    _emit(args, payload, rows)


def _cmd_perturbation(args) -> None:
    dks = args.delta_kappa or [1e-6, 1e-5, 1e-4]

    def point(dk: float) -> list[dict]:
        driver = perturbed_n6_driver(dk)
        eta = eta_sequence(driver, 5)
        spec = eigen_spectrum(build_matrices(eta, 6, Variant.UNBOUNDED))
        out = []
        for pred in perturbed_n6_pairs(dk):
            comp = min(spec.eigenvalues, key=lambda z: abs(z - pred))
            out.append(
                {
                    "delta_kappa": dk,
                    "predicted_re": pred.real,
                    "predicted_im": pred.imag,
                    "computed_re": comp.real,
                    "computed_im": comp.imag,
                    "abs_err_re": abs(comp.real - pred.real),
                    "rel_err_im": abs(comp.imag - pred.imag) / abs(pred.imag),
                }
            )
        return out

    rows = [row for dk in dks for row in point(dk)]
    _emit(args, {"pairs": rows}, rows)


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--kappa", type=float, default=None, help="Brownian temperature")
    source.add_argument(
        "--uniform-rate", type=float, default=None, help="uniform jump intensity"
    )
    source.add_argument(
        "--atom",
        action="append",
        metavar="ANGLE:RATE",
        help="symmetric jump atom, repeatable",
    )
    source.add_argument(
        "--eta-file", default=None, help="JSON driver or formal eta file"
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON")
    output.add_argument("--csv", action="store_true", help="emit CSV")
    output.add_argument("--out", default=None, help="output file (needs --json/--csv)")

    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument(
        "--variant",
        choices=["unbounded", "bounded"],
        default="unbounded",
        help="growth convention",
    )

    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, default=None, help="matrix dimension")
    size.add_argument(
        "--m-max", type=int, default=64, help="largest truncation order without --n"
    )

    parser = argparse.ArgumentParser(
        prog="llespec",
        description="beta(2) of Levy-Loewner evolutions by eigenvalues, "
        "characteristic-polynomial roots, and blowup fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", parents=[source, output], help="exponent sequence")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser(
        "spectrum", parents=[source, output, variant, size], help="eigenvalue table"
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "beta2", parents=[source, output, variant], help="beta(2) report"
    )
    p.add_argument("--m-max", type=int, default=64)
    p.set_defaults(func=_cmd_beta2)

    p = sub.add_parser(
        "fuchs", parents=[source, output, variant, size], help="blowup-exponent fit"
    )
    p.add_argument("--j-min", type=int, default=GeometricLadder.j_min)
    p.add_argument(
        "--j-max",
        type=int,
        default=GeometricLadder.j_max,
        help="nearest ladder point |1 - xi| = 2^-j_max, at most 52 "
        "(default %(default)s)",
    )
    p.set_defaults(func=_cmd_fuchs)

    p = sub.add_parser(
        "theorem1", parents=[output], help="closed-form N=2 solution and beta(2)"
    )
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument(
        "--xi-grid",
        default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma-separated xi values in [0, 1)",
    )
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser(
        "ple-curve",
        parents=[output],
        help="beta(2) versus uniform jump rate (bounded): integer lambda "
        "truncates, any other lambda reports the top eigenvalue at "
        "N = max(m_max, ceil(lambda) + 2)",
    )
    p.add_argument("--lambdas", default=_DEFAULT_LAMBDAS)
    p.add_argument("--m-max", type=int, default=40)
    p.set_defaults(func=_cmd_ple_curve)

    p = sub.add_parser(
        "sle-converge",
        parents=[output, variant],
        help="maximal real eigenvalue versus matrix size",
    )
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--m-max", type=int, default=60)
    p.set_defaults(func=_cmd_sle_converge)

    p = sub.add_parser(
        "perturbation",
        parents=[output],
        help="perturbed N=6 spectrum against the complex-pair asymptotics",
    )
    p.add_argument(
        "--delta-kappa", type=float, action="append", default=None, metavar="DK"
    )
    p.set_defaults(func=_cmd_perturbation)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every command has the output flags: refuse a conflict before work
        if args.json and args.csv:
            raise ValidationError("choose one output format, --json or --csv")
        if args.out and not (args.json or args.csv):
            raise ValidationError("--out requires --json or --csv")
        if getattr(args, "m_max", 2) < 2:
            raise ValidationError(f"--m-max must be >= 2, got {args.m_max}")
        args.func(args)
    except LLESpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
