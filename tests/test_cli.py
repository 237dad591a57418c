"""End-to-end CLI behaviour: commands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import greycast
from greycast.cli import main
from greycast.sweep import generate_synthetic

_DATA = resources.files("greycast").joinpath("data")
NUCLEAR = str(_DATA / "nuclear.csv")
OILFIELD = str(_DATA / "oilfield.csv")
SETTLEMENT = str(_DATA / "settlement.csv")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def nuclear_model(tmp_path, capsys):
    out = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", NUCLEAR, "--model", "fagmo", "--order", "1.1595",
         "--train", "10", "--out", str(out)],
        capsys,
    )
    assert code == 0
    return out


class TestFit:
    def test_writes_model_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, _ = run(
            ["fit", NUCLEAR, "--model", "fagmo", "--order", "1.1595",
             "--train", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "21.9432" in stdout  # fitted 2012
        doc = json.loads(out.read_text())
        assert doc["variant"] == "fagmo"
        assert doc["nu"] == 10 and doc["n_total"] == 12
        for key in ("a", "b", "c", "alpha", "beta", "gamma"):
            assert isinstance(doc[key], float)
        assert doc["labels"][0] == 2006

    def test_settlement_rmspe(self, capsys):
        code, stdout, _ = run(
            ["evaluate", SETTLEMENT, "--model", "fagmo", "--order", "0.2295",
             "--train", "11"],
            capsys,
        )
        assert code == 0
        assert "RMSPE    0.6011%" in stdout

    def test_train_too_small_exits_3(self, capsys):
        code, _, stderr = run(["fit", NUCLEAR, "--train", "3"], capsys)
        assert code == 3
        assert "TooFewSamples" in stderr

    def test_order_conflict_exits_3(self, capsys):
        code, _, stderr = run(
            ["fit", NUCLEAR, "--model", "gm11", "--order", "0.5"], capsys
        )
        assert code == 3
        assert "VariantOrderConflict" in stderr

    def test_non_finite_fit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("period,value\n2001,1\n2002,1e308\n2003,3\n2004,4\n2005,5\n")
        code, stdout, stderr = run(["fit", str(path), "--order", "0.5"], capsys)
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("error: NonFiniteResult: ")
        assert "Traceback" not in stderr

    def test_non_finite_fit_prints_only_the_error(self, tmp_path):
        # a fresh interpreter, where numpy's warnings would reach stderr
        path = tmp_path / "huge.csv"
        path.write_text("period,value\n2001,1\n2002,1e308\n2003,3\n2004,4\n2005,5\n")
        src = str(Path(greycast.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "greycast.cli", "fit", str(path), "--order", "0.5"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: NonFiniteResult: ")

    def test_huge_order_stays_exit_0(self, capsys):
        # finite however large: RMSPE near 3e105%, but no NaN or inf
        code, stdout, _ = run(["fit", NUCLEAR, "--order", "1e6"], capsys)
        assert code == 0
        assert "nan" not in stdout and "inf" not in stdout

    @pytest.mark.parametrize(
        "values",
        [["1", "1e308", "3", "4", "5"], ["1e308"] * 5, ["1", "2", "0", "4", "5"],
         ["-1", "-2", "-3", "-4", "-5"], ["1", "1", "1", "1"], ["1", "2", "3"],
         ["1e-308", "1", "1e300", "1", "1e-300", "5"]],
    )
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_hostile_csv_gives_a_typed_exit(self, values, command, tmp_path, capsys):
        path = tmp_path / "hostile.csv"
        rows = "".join(f"{2001 + i},{v}\n" for i, v in enumerate(values))
        path.write_text("period,value\n" + rows)
        for order in ("0.5", "auto"):
            code, stdout, stderr = run(
                [command, str(path), "--order", order, "--order-step", "0.05"], capsys
            )
            assert code in (0, 2, 3)
            assert (code == 0) == (stderr == "")
            if code == 0:
                assert "nan" not in stdout and "inf" not in stdout

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(["fit", str(tmp_path / "nope.csv")], capsys)
        assert code == 2
        assert "error" in stderr

    def test_bad_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("period,value\n1,1\n2,0\n3,3\n4,4\n")
        code, _, stderr = run(["fit", str(bad)], capsys)
        assert code == 2
        assert ":3:" in stderr

    def test_auto_order_records_search_info(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, _ = run(
            ["fit", NUCLEAR, "--order", "auto", "--train", "10",
             "--order-step", "0.01", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["order_search"]["objective"] == "rmspe"
        assert abs(doc["r"] - 1.1595) <= 0.05
        assert "order search" in stdout

    def test_auto_order_on_locked_variant_exits_3(self, capsys):
        code, _, stderr = run(
            ["fit", NUCLEAR, "--model", "ongm11k", "--order", "auto"], capsys
        )
        assert code == 3

    def test_auto_order_with_window_past_the_series_exits_3(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("period,value\n1,1\n2,2\n3,3\n4,4\n5,5\n")
        code, _, stderr = run(
            ["fit", str(short), "--order", "auto", "--train", "9"], capsys
        )
        assert code == 3
        assert "TooFewSamples" in stderr

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "model.json"
        code, _, stderr = run(
            ["fit", NUCLEAR, "--order", "1.1595", "--out", str(out)], capsys
        )
        assert code == 2
        assert "error: FileNotFoundError" in stderr

    def test_bad_order_string_exits_2(self, capsys):
        for order in ("fast", "-1", "0", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(["fit", NUCLEAR, "--order", order])
            assert exc.value.code == 2
            assert "argument --order" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_bad_order_step_exits_2(self, command, capsys):
        # 1e-12 would make a grid of about 2e12 orders
        for step in ("0", "-0.5", "nan", "1e-12"):
            with pytest.raises(SystemExit) as exc:
                main([command, NUCLEAR, "--order", "auto", "--order-step", step])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --order-step" in err and "Traceback" not in err

    def test_evaluate_help_matches_fit_help(self, capsys):
        helps = {}
        for command in ("fit", "evaluate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = capsys.readouterr().out
        for text in ("number of leading samples to fit on", "grid-search it",
                     "grid resolution for --order auto"):
            assert text in helps["fit"] and text in helps["evaluate"]


class TestForecast:
    def test_horizon_rows_and_values(self, nuclear_model, tmp_path, capsys):
        out = tmp_path / "forecast.csv"
        code, _, _ = run(
            ["forecast", "--model", str(nuclear_model), "--horizon", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "period,predicted"
        assert len(lines) == 1 + 15
        rows = dict(line.split(",") for line in lines[1:])
        for period, want in (("2018", 75.1679), ("2019", 96.0147), ("2020", 123.3723)):
            assert float(rows[period]) == pytest.approx(want, rel=1e-3)

    def test_zero_horizon_covers_fitted_range_only(self, nuclear_model, tmp_path, capsys):
        out = tmp_path / "forecast.csv"
        code, _, _ = run(
            ["forecast", "--model", str(nuclear_model), "--out", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12
        assert lines[1].startswith("2006,")

    def test_fitted_values_match_fit_stdout(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, fit_stdout, _ = run(
            ["fit", NUCLEAR, "--order", "1.1595", "--train", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0
        csv_out = tmp_path / "f.csv"
        code, _, _ = run(
            ["forecast", "--model", str(out), "--out", str(csv_out)], capsys
        )
        assert code == 0
        printed = {}
        for line in fit_stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0].isdigit():
                printed[parts[0]] = parts[2]
        for line in csv_out.read_text().splitlines()[1:]:
            period, value = line.split(",")
            assert f"{float(value):.4f}" == printed[period]

    def test_settlement_stride_extrapolation(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, _, _ = run(
            ["fit", SETTLEMENT, "--order", "0.2295", "--out", str(model)], capsys
        )
        assert code == 0
        out = tmp_path / "f.csv"
        code, _, _ = run(
            ["forecast", "--model", str(model), "--horizon", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        periods = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert periods[-2:] == ["120", "130"]  # day labels advance by 10

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        code, _, stderr = run(
            ["forecast", "--model", str(bad), "--out", str(tmp_path / "f.csv")], capsys
        )
        assert code == 2
        assert "ModelFileError" in stderr


    @pytest.mark.parametrize(
        "breakage",
        [
            {"r": -1},
            {"r": 0},
            {"r": float("nan")},
            {"r": float("inf")},
            {"variant": "ongm11k"},
            {"alpha": float("nan")},
            {"a": float("nan")},
            {"x0": float("inf")},
            {"variant": "fagm11k"},  # a plain model carrying the optimised triple
            {"labels": [2006] * 12},
            {"labels": list(range(2017, 2005, -1))},
            {"nu": 10.7},
            {"n_total": 12.5},
            {"r": "1.1595"},
            {"x0": "12.4"},
            {"alpha": True},
            {"labels": [True] + list(range(2007, 2018))},
        ],
    )
    def test_hostile_model_file_exits_2(self, nuclear_model, breakage, tmp_path, capsys):
        doc = json.loads(nuclear_model.read_text())
        doc.update(breakage)
        bad = tmp_path / "hostile.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run(
            ["forecast", "--model", str(bad), "--out", str(tmp_path / "f.csv")], capsys
        )
        assert code == 2
        assert "error: ModelFileError" in stderr

    def test_overflowing_forecast_exits_3(self, nuclear_model, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code, _, stderr = run(
            ["forecast", "--model", str(nuclear_model), "--horizon", "20000",
             "--out", str(out)],
            capsys,
        )
        assert code == 3
        assert stderr.startswith("error: NonFiniteResult: ")
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_huge_development_coefficient_gives_a_typed_exit(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, _, _ = run(
            ["fit", NUCLEAR, "--model", "fagm11k", "--order", "1.1595", "--out", str(model)],
            capsys,
        )
        assert code == 0
        doc = json.loads(model.read_text())
        doc["a"] = 1e200  # a^2 overflows
        model.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, stderr = run(["forecast", "--model", str(model), "--out", str(out)], capsys)
        assert code in (0, 3)
        assert "Traceback" not in stderr
        if code == 0:
            values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
            assert np.isfinite(values).all()

    # q / a and q / a^2 divide by zero as floats: a^2 underflows for 1e-300
    @pytest.mark.parametrize("a", [0.0, -0.0, 1e-300, -5e-324])
    def test_zero_development_coefficient_exits_3(self, a, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, _, _ = run(
            ["fit", NUCLEAR, "--model", "fagm11k", "--order", "1.1595", "--out", str(model)],
            capsys,
        )
        assert code == 0
        doc = json.loads(model.read_text())
        doc["a"] = a
        model.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        code, _, stderr = run(
            ["forecast", "--model", str(model), "--horizon", "2", "--out", str(out)], capsys
        )
        assert code == 3
        assert stderr.startswith("error: NonFiniteResult: ")
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_large_finite_forecast_exits_0(self, nuclear_model, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code, _, _ = run(
            ["forecast", "--model", str(nuclear_model), "--horizon", "2000",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert float(out.read_text().splitlines()[-1].split(",")[1]) > 1e236

    def test_missing_model_file_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["forecast", "--model", str(tmp_path / "missing.json"),
             "--out", str(tmp_path / "f.csv")],
            capsys,
        )
        assert code == 2
        assert "error: FileNotFoundError" in stderr

    def test_unwritable_out_exits_2(self, nuclear_model, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "f.csv"
        code, _, stderr = run(
            ["forecast", "--model", str(nuclear_model), "--out", str(out)], capsys
        )
        assert code == 2
        assert "error: FileNotFoundError" in stderr


class TestEvaluate:
    def test_nuclear_reference_metrics_in_json(self, capsys):
        code, stdout, _ = run(
            ["evaluate", NUCLEAR, "--model", "fagmo", "--order", "1.1595",
             "--train", "10"],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout[stdout.index("{"):])
        metrics = doc["metrics"]
        assert metrics["rmspepr_pct"] == pytest.approx(3.1409, abs=0.05)
        assert metrics["rmspepo_pct"] == pytest.approx(4.1502, abs=0.05)
        assert metrics["ia"] == pytest.approx(0.9985, abs=1e-3)
        assert doc["relative_errors"]["2007"] == pytest.approx(0.0701, abs=2e-4)

    def test_zero_slope_variant_reference_ae(self, capsys):
        code, stdout, _ = run(
            ["evaluate", NUCLEAR, "--model", "fagm11", "--order", "1.4127",
             "--train", "10"],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout[stdout.index("{"):])
        assert doc["metrics"]["ae"] == pytest.approx(-1.1818, abs=5e-3)

    def test_self_consistent_file_scores_perfectly(self, tmp_path, capsys):
        raw = generate_synthetic(0.5, 0.3, 1.0, 10.0, 1.5, 8)
        assert np.all(raw > 0)
        path = tmp_path / "synthetic.csv"
        lines = ["period,value"] + [f"{i + 1},{float(v)!r}" for i, v in enumerate(raw)]
        path.write_text("\n".join(lines) + "\n")
        code, stdout, _ = run(
            ["evaluate", str(path), "--model", "fagmo", "--order", "0.5"], capsys
        )
        assert code == 0
        doc = json.loads(stdout[stdout.index("{"):])
        assert doc["metrics"]["ia"] > 1 - 1e-9
        assert "IA       1.0000" in stdout


class TestSweep:
    def test_summary_and_determinism(self, tmp_path, capsys):
        args = ["sweep", "--seed", "3", "--r-steps", "5", "--alpha-steps", "6",
                "--points", "11"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        code, stdout, _ = run(args + ["--out", str(out1)], capsys)
        assert code == 0
        assert "max eps_params" in stdout
        code, _, _ = run(args + ["--out", str(out2)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "s.csv"
        code, _, stderr = run(
            ["sweep", "--r-steps", "2", "--alpha-steps", "2", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "error: FileNotFoundError" in stderr

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["sweep", "--r-steps", "0", "--out", str(tmp_path / "s.csv")], capsys
        )
        assert code == 2
        assert "error" in stderr


class TestReproduce:
    @pytest.mark.parametrize("case", ["table1", "oilfield", "settlement", "nuclear"])
    def test_cases_pass(self, case, capsys):
        code, stdout, _ = run(["reproduce", "--case", case], capsys)
        assert code == 0
        assert "0 fail" in stdout

    def test_external_cells_are_marked(self, capsys):
        code, stdout, _ = run(["reproduce", "--case", "nuclear"], capsys)
        assert code == 0
        assert "[ext ]" in stdout and "engm" in stdout

    def test_unknown_case_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--case", "tables"])
        assert exc.value.code == 2
