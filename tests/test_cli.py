import csv
import io
import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from llespec import (
    BlowupFit,
    CapacityError,
    DegeneracyError,
    DomainError,
    LevyDriver,
    NumericalError,
    PoleError,
    PrecisionError,
    SizeError,
    ValidationError,
    Variant,
    beta2,
    eta_sequence,
)
from llespec import cli, fuchsian_series, spectral_solver
from llespec.cli import main
from llespec.closed_forms import (
    HypergeometricParams,
    _gauss_series,
    truncated_sle_spectrum,
)


def run_cli(*args, env=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "llespec.cli", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


class TestEtaCommand:
    def test_json_schema_round_trips(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        code, _ = run_main(
            capsys, "eta", "--kappa", "2", "--n-max", "4", "--json", "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text()) == {"eta": [1.0, 4.0, 9.0, 16.0]}
        code, text = run_main(
            capsys, "eta", "--eta-file", str(out), "--n-max", "4", "--json"
        )
        assert code == 0
        assert json.loads(text) == {"eta": [1.0, 4.0, 9.0, 16.0]}

    def test_csv_structure(self, capsys):
        code, text = run_main(capsys, "eta", "--kappa", "2", "--n-max", "3", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "eta_n"]
        assert rows[1:] == [["1", "1.0"], ["2", "4.0"], ["3", "9.0"]]

    def test_atom_flag(self, capsys):
        code, text = run_main(
            capsys,
            "eta",
            "--atom",
            f"{math.pi}:1.5",
            "--n-max",
            "2",
            "--json",
        )
        assert code == 0
        vals = json.loads(text)["eta"]
        assert vals[0] == pytest.approx(3.0)
        assert vals[1] == pytest.approx(0.0, abs=1e-12)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


class TestStrictJson:
    @pytest.mark.parametrize(
        "args",
        [
            ("eta", "--kappa", "2", "--n-max", "4"),
            ("spectrum", "--kappa", "2", "--n", "4"),
            ("beta2", "--kappa", "2"),
            # a one-entry sequence has no gap: null, not Infinity
            ("beta2", "--kappa", "0.3", "--m-max", "2"),
            ("fuchs", "--kappa", "2", "--n", "2"),
            ("theorem1", "--eta1", "1"),
            ("ple-curve", "--lambdas", "1,1.5", "--m-max", "8"),
            ("sle-converge", "--kappa", "0.3", "--m-max", "2"),
            ("perturbation",),
        ],
        ids=lambda args: "-".join(args),
    )
    def test_every_command_emits_strict_json(self, capsys, args):
        # NaN and Infinity, which json.dumps writes by default, are refused
        code, text = run_main(capsys, *args, "--json")
        assert code == 0
        json.loads(text, parse_constant=_refuse_constant)

    def test_one_entry_sequence_gap_is_null(self, capsys):
        code, text = run_main(
            capsys, "beta2", "--kappa", "0.3", "--m-max", "2", "--json"
        )
        assert code == 0
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert doc["convergence_gap"] is None and doc["gaps"] == []
        rep = beta2(eta_sequence(LevyDriver(kappa=0.3), 2), Variant.UNBOUNDED, 2)
        assert rep.convergence_gap == math.inf


class TestValidationExits:
    def test_missing_source(self):
        code, _, err = run_cli("beta2")
        assert code == 2
        assert b"eta source" in err
        # sle-converge takes only --kappa; argparse requires it
        code, _, err = run_cli("sle-converge")
        assert code == 2
        assert b"--kappa" in err

    def test_both_sources(self, tmp_path):
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0]}')
        code, _, err = run_cli("beta2", "--kappa", "1", "--eta-file", str(f))
        assert code == 2

    def test_bad_atom(self):
        code, _, err = run_cli("spectrum", "--atom", "bad", "--n", "2")
        assert code == 2
        assert b"ANGLE:RATE" in err

    @pytest.mark.parametrize(
        "args, content, message",
        [
            (["--atom", "1"], None, "--atom expects ANGLE:RATE"),
            (["--kappa", "1", "--eta-file", "{f}"], '{"eta": [1.0]}', "not both"),
            ([], None, "missing eta source"),
            (["--eta-file", "{f}", "--n-max", "3"], '{"eta": [1.0, 4.0]}', "1..2, got 3"),
            (["--eta-file", "{f}"], '{"atoms": 3}', "'atoms' must be a list"),
            (["--eta-file", "{f}"], '{"atoms": [[1, 2]]}', "atoms[0] must be an object"),
            (["--eta-file", "{f}"], None, "cannot read eta file"),
            (["--eta-file", "{f}"], "[1.0, 4.0]", "must hold a JSON object"),
            (["--eta-file", "{f}"], '{"eta": 1.0}', "'eta' must be a list"),
        ],
        ids=[
            "atom-without-colon", "both-sources", "no-source", "short-formal-file",
            "atoms-not-list", "atom-not-object", "missing-file", "top-level-array",
            "eta-not-list",
        ],
    )
    def test_eta_input_is_exit_2(self, tmp_path, capsys, args, content, message):
        f = tmp_path / "eta.json"
        if content is not None:
            f.write_text(content)
        code = main(["eta", *(a.format(f=f) for a in args)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_out_needs_format(self, tmp_path):
        code, _, err = run_cli(
            "eta", "--kappa", "1", "--out", str(tmp_path / "x.txt")
        )
        assert code == 2

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        code = main(["eta", "--kappa", "1", "--json", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file")
        assert str(out) in err

    def test_json_and_csv_conflict(self):
        code, _, _ = run_cli("eta", "--kappa", "1", "--json", "--csv")
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [("--json", "--csv"), ("--out", "x.txt")], ids=["both", "out"]
    )
    def test_output_flags_refused_before_any_work(self, monkeypatch, flags):
        def fail(*args, **kwargs):
            raise AssertionError("beta2 ran before the flags were checked")

        monkeypatch.setattr(cli, "beta2", fail)
        code = main(["beta2", "--kappa", "0.7", "--m-max", "200", *flags])
        assert code == 2

    @pytest.mark.parametrize(
        "body",
        [
            '{"eta": ["x"]}',
            '{"eta": [null]}',
            '{"eta": 5}',
            '{"eta": [[1]]}',
            '{"atoms": 5}',
            '{"eta": "12"}',  # a string is not read digit by digit
        ],
    )
    def test_malformed_eta_file_is_exit_2(self, tmp_path, body):
        f = tmp_path / "eta.json"
        f.write_text(body)
        code, out, err = run_cli("eta", "--eta-file", str(f), "--n-max", "2")
        assert code == 2
        assert out == b""
        assert err.startswith(b"error:")
        assert b"Traceback" not in err

    @pytest.mark.parametrize("n_max", ["0", "-1", "3"])
    def test_eta_n_max_outside_the_file_is_exit_2(self, tmp_path, n_max):
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0, 4.0]}')
        code, out, err = run_cli(
            "eta", "--eta-file", str(f), "--n-max", n_max, "--json"
        )
        assert code == 2
        assert out == b""
        assert b"--n-max" in err

    def test_short_file_for_spectrum_size_is_exit_2(self, tmp_path):
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0, 4.0]}')
        code, out, err = run_cli("spectrum", "--n", "10", "--eta-file", str(f))
        assert code == 2
        assert out == b""
        assert b"need 9 for dimension 10" in err

    @pytest.mark.parametrize("command", ["spectrum", "fuchs"])
    def test_short_file_without_n_is_exit_2(self, tmp_path, capsys, command):
        # two entries that never close the system, short of the default
        # --m-max: the size can come only from --n
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0, 2.0]}')
        assert main([command, "--eta-file", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n" in captured.err

    def test_negative_kappa(self):
        code, _, err = run_cli("eta", "--kappa", "-1")
        assert code == 2
        assert b"kappa" in err

    def test_ladder_beyond_double_precision_is_exit_2(self, capsys):
        code = main(["fuchs", "--kappa", "2", "--n", "2", "--j-max", "60"])
        assert code == 2
        assert "j_max" in capsys.readouterr().err

    def test_oversized_dense_spectrum_is_exit_4(self, capsys):
        # kappa = 1 unbounded has a_n < 0, so only the dense solver applies
        code = main(["spectrum", "--kappa", "1", "--n", "4097"])
        assert code == 4
        assert "4096" in capsys.readouterr().err

    def test_oversized_dense_integration_is_exit_4(self, capsys):
        # route 3 is held to the dense eigensolver's limit, a capacity
        # guard, though only its Magnus range forms dense matrices
        code = main(["fuchs", "--kappa", "1", "--n", "4097"])
        assert code == 4
        assert "4096" in capsys.readouterr().err

    def test_oversized_sequence_is_exit_4_before_solving(self):
        # every M of kappa = 1 unbounded takes the dense solver; M = 4097 is
        # refused before any of the 4,095 smaller problems is solved
        for command in ("beta2", "sle-converge"):
            code, _, err = run_cli(
                command, "--kappa", "1", "--m-max", "4097", timeout=60
            )
            assert code == 4
            assert b"4096" in err

    def test_ple_curve_m_max_below_2(self, capsys):
        for m_max in ("1", "0", "-5"):
            code = main(["ple-curve", "--lambdas", "1.5", "--m-max", m_max])
            assert code == 2
            assert "--m-max must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", ["", "a,1"], ids=["empty", "word"])
    def test_grid_error_names_its_flag(self, capsys, lambdas):
        assert main(["ple-curve", "--lambdas", lambdas]) == 2
        err = capsys.readouterr().err
        assert "--lambdas " in err and "-grid" not in err
        assert main(["theorem1", "--eta1", "1", "--xi-grid", ","]) == 2
        assert "--xi-grid is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            *(
                (("ple-curve", "--lambdas", lam), "positive and finite")
                for lam in ("0", "-1", "nan", "inf")
            ),
            (("spectrum", "--kappa", "1", "--n", "0"), "--n must be >= 1"),
            (("eta", "--kappa", "1", "--n-max", "0"), "n_max must be >= 1"),
            (("spectrum", "--atom", "1:x", "--n", "2"), "--atom expects numbers"),
        ],
    )
    def test_out_of_range_argument_is_exit_2(self, capsys, args, message):
        assert main(list(args)) == 2
        assert message in capsys.readouterr().err

    def test_exception_exit_codes(self):
        assert ValidationError("x").exit_code == 2
        assert DomainError("x").exit_code == 2
        assert PoleError("x").exit_code == 2
        assert SizeError("x").exit_code == 2
        assert NumericalError("x").exit_code == 3
        assert PrecisionError("x").exit_code == 3
        assert DegeneracyError("x").exit_code == 3
        assert CapacityError("x").exit_code == 4
        assert isinstance(PoleError("x"), DomainError)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        args = ("ple-curve", "--lambdas", "1,3,8", "--csv")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "module", ["scipy.integrate", "scipy.linalg", "scipy.special", "fractions"]
    )
    def test_import_leaves_scipy_unloaded(self, module):
        # the integrator, the symmetric tridiagonal solver and the special
        # functions are each imported by the functions that call them; no
        # code path computes in exact rationals
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys, llespec.cli; sys.exit({module!r} in sys.modules)",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr


    def test_small_fit_leaves_scipy_integrate_unloaded(self):
        # up to the Magnus size limit route 3 needs only scipy.linalg's
        # exponential; kappa = 4/9 closes at N = 6
        code = (
            "import sys, llespec.cli; "
            "llespec.cli.main(['fuchs', '--kappa', '0.4444444444444444', '--json']); "
            "sys.exit('scipy.integrate' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 6


class TestSpectrumCommand:
    def test_auto_truncation(self, capsys):
        code, text = run_main(capsys, "spectrum", "--kappa", "2", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["n"] == 2
        assert doc["max_real"] == pytest.approx(4.0)
        assert doc["resonant"] is True
        assert len(doc["eigenvalues"]) == 2

    def test_explicit_n_with_multiplicities(self, capsys):
        code, text = run_main(
            capsys,
            "spectrum",
            "--eta-file",
            "/dev/stdin",
            "--n",
            "2",
            "--json",
        )
        # /dev/stdin is empty here, so this must fail cleanly
        assert code == 2

    def test_cluster_multiplicity_column(self, capsys, tmp_path):
        kappa = 2.0 * 8 / 36  # exact truncation family at N = 6
        code, text = run_main(
            capsys, "spectrum", "--kappa", repr(kappa), "--n", "6", "--csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 6
        mults = sorted(int(r["multiplicity"]) for r in rows)
        assert mults == [1, 1, 2, 2, 2, 2]

    def test_no_truncation_needs_n(self):
        code, _, err = run_cli("spectrum", "--kappa", "1")
        assert code == 2
        assert b"--n" in err

    def test_auto_truncation_from_short_file(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        run_main(
            capsys,
            "eta", "--kappa", repr(4.0 / 9.0), "--n-max", "6",
            "--json", "--out", str(out),
        )
        code, text = run_main(capsys, "spectrum", "--eta-file", str(out), "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["n"] == 6
        assert doc["max_real"] == pytest.approx(14.0 / 3.0, abs=1e-9)


class TestHumanOutput:
    """The default format: each scalar of the --json payload as
    `key = value`, then the --csv table with its columns padded."""

    @pytest.mark.parametrize(
        "args", [("spectrum", "--kappa", "2", "--n", "2"), ("beta2", "--kappa", "2")]
    )
    def test_matches_json_and_csv(self, capsys, args):
        code, text = run_main(capsys, *args)
        assert code == 0
        doc = json.loads(run_main(capsys, *args, "--json")[1])
        table = list(csv.reader(io.StringIO(run_main(capsys, *args, "--csv")[1])))
        scalars = [(k, v) for k, v in doc.items() if not isinstance(v, (list, dict))]
        lines = text.splitlines()
        assert lines[: len(scalars)] == [
            f"{k} = {v if isinstance(v, str) else json.dumps(v)}" for k, v in scalars
        ]
        header, *rows = lines[len(scalars):]
        starts = [cell.start() for cell in re.finditer(r"\S+", header)]
        spans = list(zip(starts, starts[1:] + [None]))
        cells = [[line[a:b].strip() for a, b in spans] for line in [header, *rows]]
        assert cells == table


class TestBeta2Command:
    def test_truncated_json(self, capsys):
        code, text = run_main(capsys, "beta2", "--kappa", "2", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc == {
            "variant": "unbounded",
            "mode": "truncated",
            "N": 2,
            "beta2": 4.0,
            "converged": True,
            "convergence_gap": 0.0,
        }

    def test_sequence_json(self, capsys):
        code, text = run_main(
            capsys, "beta2", "--kappa", "1", "--m-max", "24", "--json"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["mode"] == "sequence"
        assert doc["sequence"][0][0] == 2
        assert doc["sequence"][-1][0] == 24
        assert len(doc["gaps"]) == 22

    def test_same_result_from_either_source(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        run_main(
            capsys,
            "eta", "--kappa", "2", "--n-max", "8", "--json", "--out", str(out),
        )
        _, text1 = run_main(capsys, "beta2", "--kappa", "2", "--m-max", "8", "--json")
        _, text2 = run_main(
            capsys, "beta2", "--eta-file", str(out), "--m-max", "8", "--json"
        )
        assert text1 == text2

    def test_truncating_file_shorter_than_m_max(self, tmp_path, capsys):
        # the six entries close the system, so the default m_max is moot
        kappa = repr(4.0 / 9.0)
        out = tmp_path / "eta.json"
        run_main(
            capsys,
            "eta", "--kappa", kappa, "--n-max", "6", "--json", "--out", str(out),
        )
        _, from_driver = run_main(capsys, "beta2", "--kappa", kappa, "--json")
        code, from_file = run_main(capsys, "beta2", "--eta-file", str(out), "--json")
        assert code == 0
        assert from_file == from_driver
        assert json.loads(from_file)["N"] == 6

    def test_short_file_without_truncation_is_rejected(self, tmp_path):
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0, 2.0]}')
        code, _, err = run_cli("beta2", "--eta-file", str(f))
        assert code == 2
        assert b"m_max" in err


class TestSleConverge:
    def test_kappa2_is_flat(self, capsys):
        code, text = run_main(
            capsys, "sle-converge", "--kappa", "2", "--m-max", "8", "--csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["M"] for r in rows] == [str(m) for m in range(2, 9)]
        for r in rows:
            assert float(r["beta_max"]) == pytest.approx(4.0, abs=1e-10)
        assert rows[0]["gap"] == ""

    def test_truncation_family_stationary_from_n(self, capsys):
        kappa = 2.0 * 8 / 36
        code, text = run_main(
            capsys,
            "sle-converge", "--kappa", repr(kappa), "--m-max", "12", "--csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        tail = [float(r["beta_max"]) for r in rows if int(r["M"]) >= 6]
        for v in tail:
            assert v == pytest.approx(14.0 / 3.0, abs=1e-9)


class TestFuchsCommand:
    def test_light_ladder_agrees(self, capsys):
        code, text = run_main(
            capsys,
            "fuchs", "--kappa", "2", "--n", "2", "--j-max", "12", "--json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["beta_est"] == pytest.approx(4.0, rel=0.05)
        assert doc["oscillation_detected"] is False
        assert doc["window_near"] == pytest.approx(1 - 2.0**-12)
        assert len(doc["slopes"]) == 6

    def test_ladder_to_j_max_30(self, capsys):
        code, text = run_main(
            capsys,
            "fuchs", "--kappa", "2", "--n", "2", "--j-max", "30", "--json",
        )
        assert code == 0
        assert json.loads(text)["beta_est"] == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("j_max", [40, 52])
    def test_ladder_to_double_precision_limit(self, capsys, j_max):
        # |1 - xi| = 2^-52 is the last distance a double resolves
        code, text = run_main(
            capsys,
            "fuchs", "--kappa", "2", "--n", "2", "--j-max", str(j_max), "--json",
        )
        assert code == 0
        assert abs(json.loads(text)["beta_est"] - 4.0) < 1e-9

    @pytest.mark.parametrize("j_min, j_max", [(16, 24), (30, 31)])
    def test_far_ladder_start(self, capsys, j_min, j_max):
        # the series is summed at x = 1/2, so --j-min costs no series terms
        code, text = run_main(
            capsys,
            "fuchs", "--kappa", "2", "--n", "2",
            "--j-min", str(j_min), "--j-max", str(j_max), "--json",
        )
        assert code == 0
        assert abs(json.loads(text)["beta_est"] - 4.0) < 1e-8

    def test_large_truncating_system(self, capsys):
        # above the Magnus size limit one DOP853 solve carries the N-vector
        # with a product from the bands, as at N = 1024 (~1 s), and no
        # N x N matrix is formed
        n = 300
        code, text = run_main(
            capsys,
            "fuchs", "--kappa", repr(2.0 * (n + 2) / n**2), "--n", str(n), "--json",
        )
        assert code == 0
        top = max(truncated_sle_spectrum(n, Variant.UNBOUNDED))
        assert abs(json.loads(text)["beta_est"] - top) < 1e-6

    def test_non_finite_chain_is_exit_3(self, monkeypatch, capsys):
        def chain(sys, t0, t1, theta0, r):
            out = np.ones((t1 - t0 + 1, sys.n))
            out[-1] = np.inf
            return out

        monkeypatch.setattr(fuchsian_series, "_integrate_log_distance", chain)
        code, text = run_main(capsys, "fuchs", "--kappa", "2", "--n", "2", "--json")
        assert code == 3
        assert text == ""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_nan_fit_is_exit_3_with_no_output(
        self, monkeypatch, capsys, tmp_path, to_file
    ):
        nan = math.nan
        fit = BlowupFit(nan, (nan, nan), nan, False, (nan,))
        monkeypatch.setattr(cli, "blowup_exponent", lambda sys, ladder: fit)
        out = tmp_path / "fit.json"
        extra = ("--out", str(out)) if to_file else ()
        code, text = run_main(
            capsys, "fuchs", "--kappa", "2", "--n", "2", "--json", *extra
        )
        assert code == 3
        assert text == ""
        assert not out.exists()


class TestPerturbationCommand:
    def test_matched_rows(self, capsys):
        code, text = run_main(
            capsys, "perturbation", "--delta-kappa", "1e-4", "--csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4
        for r in rows:
            assert float(r["rel_err_im"]) < 0.01
            assert float(r["abs_err_re"]) < 1e-3

    def test_out_of_range(self):
        code, _, _ = run_cli("perturbation", "--delta-kappa", "0.5")
        assert code == 2


class TestTheorem1Command:
    def test_closed_vs_eigen_reported(self, capsys):
        code, text = run_main(
            capsys, "theorem1", "--eta1", "1.0", "--xi-grid", "0.0,0.5", "--json"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["beta2_closed"] == pytest.approx(4.0)
        assert doc["abs_diff"] < 1e-10
        assert doc["values"][0]["f1"] == pytest.approx(-1.0)

    def test_large_hypergeometric_c(self, capsys):
        # c = 72.4: the 2F1 value must not overflow on the way
        eta1 = 143.81309222219554
        code, text = run_main(
            capsys, "theorem1", "--eta1", repr(eta1), "--xi-grid", "0.8", "--json"
        )
        assert code == 0
        p = HypergeometricParams.from_eta1(eta1)
        want = _gauss_series(p.a, p.b, p.c, 0.8, 400_000)
        assert json.loads(text)["values"][0]["f0"] == pytest.approx(want, rel=1e-12)


class TestPleCurve:
    def test_default_grid_increasing(self, capsys):
        code, text = run_main(capsys, "ple-curve", "--csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        vals = [float(r["beta2"]) for r in rows]
        assert len(vals) == 6
        assert vals == sorted(vals)
        assert all(r["mode"] == "truncated" for r in rows)

    def test_non_integer_lambda_solves_once_at_m_max(self, capsys, monkeypatch):
        lams = (1.5, 3.5, 98.5)
        reports = [
            beta2(eta_sequence(LevyDriver(uniform_rate=lam), 120), Variant.BOUNDED, 120)
            for lam in lams
        ]
        sizes = []
        solve = spectral_solver._eigenvalues

        def counting(diag, sub, sup):
            sizes.append(len(diag))
            return solve(diag, sub, sup)

        monkeypatch.setattr(spectral_solver, "_eigenvalues", counting)
        code, text = run_main(
            capsys, "ple-curve", "--lambdas", "1.5,3.5,98.5", "--m-max", "120", "--json"
        )
        assert code == 0
        assert sizes == [120, 120, 120]
        points = json.loads(text)["points"]
        for pt, lam, rep in zip(points, lams, reports, strict=True):
            assert rep.mode == "sequence"
            assert pt == {
                "lambda": lam, "beta2": rep.beta2, "mode": "sequence", "N": 120
            }


# kappa = 2 * 82 / 80^2 closes the unbounded system at N = 80
_KAPPA_N80 = "0.025625"


class TestOneSizeRule:
    """spectrum, fuchs and beta2 pick N by one rule, whatever the eta source:
    a truncation counts only at N <= --m-max."""

    @pytest.fixture
    def sources(self, tmp_path, capsys):
        out = tmp_path / "eta100.json"
        code, _ = run_main(
            capsys,
            "eta", "--kappa", _KAPPA_N80, "--n-max", "100",
            "--json", "--out", str(out),
        )
        assert code == 0
        return (("--eta-file", str(out)), ("--kappa", _KAPPA_N80))

    @pytest.mark.parametrize("command", ["spectrum", "fuchs"])
    def test_truncation_past_m_max_needs_n_from_both_sources(
        self, capsys, sources, command
    ):
        for source in sources:
            assert main([command, *source]) == 2
            assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key", [("spectrum", "n"), ("fuchs", "n"), ("beta2", "N")]
    )
    def test_truncation_within_m_max_from_both_sources(
        self, capsys, sources, command, key
    ):
        for source in sources:
            code, text = run_main(capsys, command, *source, "--m-max", "100", "--json")
            assert code == 0
            assert json.loads(text)[key] == 80

    @pytest.mark.parametrize(
        "args",
        [
            ("spectrum", "--kappa", "6"),
            ("fuchs", "--kappa", "6"),
            ("beta2", "--kappa", "6"),
            ("ple-curve",),
            ("sle-converge", "--kappa", "6"),
        ],
        ids=lambda args: args[0],
    )
    def test_m_max_floor_is_one_check(self, capsys, args):
        assert main([*args, "--m-max", "1"]) == 2
        assert "--m-max must be >= 2" in capsys.readouterr().err


class TestOversizedRequests:
    """A size past the exponent limit exits 4 before any exponent is made."""

    @pytest.mark.parametrize(
        "args",
        [
            ("ple-curve", "--lambdas", "1e9"),
            ("eta", "--kappa", "1", "--n-max", "1000000000"),
            ("spectrum", "--kappa", "1", "--n", "1000000000"),
            ("spectrum", "--kappa", "1", "--m-max", "1000000000"),
            ("beta2", "--kappa", "1", "--m-max", "1000000000"),
            ("sle-converge", "--kappa", "1", "--m-max", "1000000000"),
        ],
        ids=lambda args: f"{args[0]}{args[-2]}",
    )
    def test_exit_4_within_a_second(self, capsys, args):
        t0 = time.perf_counter()
        assert main(list(args)) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "exponent limit" in capsys.readouterr().err


_HUGE_DRIVERS = (
    ("--kappa", "1e200"),
    ("--kappa", "1e300"),
    ("--uniform-rate", "1e300"),
    ("--atom", "3.14159:1e300"),
)


class TestOverflowingBands:
    """Exponents near 1e300 put products a_n beyond double range. Bounded
    systems have every a_n > 0, so the symmetric band sqrt(a_n) overflows:
    exit 3 with one error line. Unbounded ones have a_1 < 0 and solve
    densely, reading only the overflowing products' signs: exit 0, and no
    RuntimeWarning, which pytest turns into an error."""

    @pytest.mark.parametrize("variant", ["bounded", "unbounded"])
    @pytest.mark.parametrize(
        "args",
        [("spectrum", "--n", "4", *d) for d in _HUGE_DRIVERS]
        + [("beta2", "--m-max", "6", *d) for d in _HUGE_DRIVERS]
        + [("sle-converge", "--m-max", "6", *d) for d in _HUGE_DRIVERS[:2]],
        ids=lambda args: f"{args[0]}{args[-2]}={args[-1]}",
    )
    def test_exit_0_or_3_without_traceback(self, capsys, args, variant):
        code = main([*args, "--variant", variant, "--json"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if variant == "bounded":
            assert code == 3
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0
            assert err == ""
            assert json.loads(out)
