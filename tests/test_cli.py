import csv
import io
import json
import math
import subprocess
import sys

import pytest

from llespec import (
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
from llespec import spectral_solver
from llespec.cli import main


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


class TestValidationExits:
    def test_missing_source(self):
        code, _, err = run_cli("beta2")
        assert code == 2
        assert b"eta source" in err

    def test_both_sources(self, tmp_path):
        f = tmp_path / "eta.json"
        f.write_text('{"eta": [1.0]}')
        code, _, err = run_cli("beta2", "--kappa", "1", "--eta-file", str(f))
        assert code == 2

    def test_bad_atom(self):
        code, _, err = run_cli("spectrum", "--atom", "bad", "--n", "2")
        assert code == 2
        assert b"ANGLE:RATE" in err

    def test_out_needs_format(self, tmp_path):
        code, _, err = run_cli(
            "eta", "--kappa", "1", "--out", str(tmp_path / "x.txt")
        )
        assert code == 2

    def test_json_and_csv_conflict(self):
        code, _, _ = run_cli("eta", "--kappa", "1", "--json", "--csv")
        assert code == 2

    def test_negative_kappa(self):
        code, _, err = run_cli("eta", "--kappa", "-1")
        assert code == 2
        assert b"kappa" in err

    def test_precision_failure_is_exit_3(self, capsys):
        code = main(["fuchs", "--kappa", "2", "--n", "2", "--k-terms", "50"])
        capsys.readouterr()
        assert code == 3

    def test_oversized_series_is_exit_4(self, capsys):
        oversized = (["--j-min", "30", "--j-max", "31"], ["--k-terms", "1000000000000"])
        for extra in oversized:
            code = main(["fuchs", "--kappa", "2", "--n", "2", *extra])
            capsys.readouterr()
            assert code == 4

    def test_ladder_beyond_double_precision_is_exit_2(self, capsys):
        code = main(["fuchs", "--kappa", "2", "--n", "2", "--j-max", "60"])
        assert code == 2
        assert "j_max" in capsys.readouterr().err

    def test_oversized_dense_spectrum_is_exit_4(self, capsys):
        # kappa = 1 unbounded has a_n < 0, so only the dense solver applies
        code = main(["spectrum", "--kappa", "1", "--n", "4097"])
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

    def test_import_leaves_scipy_integrate_unloaded(self):
        # the integrator is imported by the one function that uses it
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, llespec.cli; "
                "sys.exit('scipy.integrate' in sys.modules)",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr


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
