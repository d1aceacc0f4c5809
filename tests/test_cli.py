import json
from pathlib import Path

import numpy as np
import pytest

from intreg import FORMAT_MIDSPR, build_design, fit_lasso, fit_ls, ingest, write_sample
from intreg.cli import RunConfig, build_parser, config_from_args, main, run

from conftest import exact_fit_sample, random_sample, split_model_sample

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_CSV = str(FIXTURES / "synthetic59.csv")


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    write_sample(random_sample(50, n=24, k=2), path, FORMAT_MIDSPR)
    return str(path)


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


class TestConfig:
    def test_defaults(self, sample_csv):
        cfg = parse(["--input-path", sample_csv])
        assert cfg.method == "ls" and cfg.variant == "full"
        assert cfg.tau == 0.5 and cfg.folds == 5 and cfg.seed == 0

    def test_tau_bounds(self, sample_csv):
        with pytest.raises(ValueError):
            parse(["--input-path", sample_csv, "--tau", "1.0"])

    def test_lambda_flags_need_lasso(self, sample_csv):
        with pytest.raises(ValueError):
            parse(["--input-path", sample_csv, "--method", "ls", "--lambda-mid", "0.5"])

    def test_budget_needs_lasso_ir(self, sample_csv):
        with pytest.raises(ValueError):
            parse(["--input-path", sample_csv, "--method", "lasso", "--t-budget", "0.1"])

    def test_rule_conflicts_with_full_override(self, sample_csv):
        with pytest.raises(ValueError):
            parse([
                "--input-path", sample_csv, "--method", "lasso", "--lambda-rule", "mse",
                "--lambda-mid", "0.1", "--lambda-spr", "0.1",
            ])

    def test_rule_with_partial_override_allowed(self, sample_csv):
        cfg = parse([
            "--input-path", sample_csv, "--method", "lasso", "--lambda-rule", "1se",
            "--lambda-mid", "0.1",
        ])
        assert cfg.lambda_mid == 0.1 and cfg.lambda_spr is None


class TestRun:
    def test_ls_json_report(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="ls", output_format="json")
        report = json.loads(run(cfg))
        assert set(report) == {
            "coefficients", "delta", "lambda_mid", "lambda_spr", "t", "mse", "diagnostics", "config",
        }
        assert len(report["coefficients"]["b1"]) == 2
        assert report["lambda_mid"] is None and report["t"] is None
        assert report["config"]["method"] == "ls"

    def test_json_matches_library_fit(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="ls", output_format="json")
        report = json.loads(run(cfg))
        res = fit_ls(build_design(ingest(sample_csv), "full"), 0.5)
        assert report["coefficients"]["b1"] == [float(v) for v in res.coefficients.b1]
        assert report["mse"] == res.mse

    def test_byte_identical_reports(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="lasso", seed=3, folds=4, output_format="json")
        assert run(cfg) == run(cfg)

    def test_explicit_lambdas_reproduce_library_call(self, sample_csv):
        cfg = RunConfig(
            input_path=sample_csv, method="lasso", lambda_mid=0.4, lambda_spr=0.03,
            output_format="json",
        )
        report = json.loads(run(cfg))
        res = fit_lasso(build_design(ingest(sample_csv), "full"), 0.5, lambda_mid=0.4, lambda_spr=0.03)
        assert report["lambda_mid"] == 0.4 and report["lambda_spr"] == 0.03
        assert report["coefficients"]["b2"] == [float(v) for v in res.coefficients.b2]

    def test_lasso_ir_with_budget(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="lasso-ir", t_budget=0.1, output_format="json")
        report = json.loads(run(cfg))
        assert report["t"] == 0.1
        assert report["lambda_mid"] is None

    def test_unweighted_convention_doubles_balanced_mse(self, sample_csv):
        base = RunConfig(input_path=sample_csv, method="ls", output_format="json")
        flipped = RunConfig(
            input_path=sample_csv, method="ls", mse_convention="unweighted", output_format="json"
        )
        m1 = json.loads(run(base))["mse"]
        m2 = json.loads(run(flipped))["mse"]
        assert m2 == pytest.approx(2.0 * m1, rel=1e-9)

    def test_degenerate_regressor_diagnostic(self, tmp_path):
        # constant midpoint and spread columns vanish under centering
        path = tmp_path / "degen.csv"
        rows = ["mid_y,spr_y,mid_x1,spr_x1"]
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows.append(f"{rng.normal()},{rng.uniform(0.1, 1)},3.0,0.5")
        path.write_text("\n".join(rows) + "\n")
        cfg = RunConfig(input_path=str(path), method="ls", output_format="json")
        report = json.loads(run(cfg))
        assert report["diagnostics"]["degenerate_design"] == 1.0

    def test_table_output_lists_all_blocks(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="ls", variant="model-m")
        text = run(cfg)
        assert "b1" in text and "b4" in text and "mse (dtau)" in text
        assert "x1" in text and "x2" in text

    def test_csv_output(self, sample_csv):
        cfg = RunConfig(input_path=sample_csv, method="ls", output_format="csv")
        lines = run(cfg).splitlines()
        assert lines[0] == "field,value"
        fields = {line.split(",")[0] for line in lines[1:]}
        assert {"b1_x1", "b2_x2", "delta_mid", "mse"} <= fields


class TestDefaultCrossValidation:
    """Default-CV selections on the frozen fixture, pinned to the last bit."""

    LASSO = {
        "full": (0.12682918143042346, 0.01606616306611472, 0.025666943407897734, 0.02579810492549524),
        "model-m": (0.38731799439213144, 0.005785941793658468, 0.10635099547344437, 0.10641834815576082),
    }
    LASSO_IR = {"full": 2.0550426158510984, "model-m": 0.9176160325793862}

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_lasso_selection(self, variant):
        cfg = RunConfig(input_path=FIXTURE_CSV, method="lasso", variant=variant, output_format="json")
        report = json.loads(run(cfg))
        lambda_mid, lambda_spr, mid_error, spr_error = self.LASSO[variant]
        assert report["lambda_mid"] == lambda_mid
        assert report["lambda_spr"] == lambda_spr
        assert report["diagnostics"]["cv_mid_min_error"] == pytest.approx(mid_error, rel=1e-12)
        assert report["diagnostics"]["cv_spr_min_error"] == pytest.approx(spr_error, rel=1e-12)

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_lasso_ir_selection(self, variant):
        cfg = RunConfig(input_path=FIXTURE_CSV, method="lasso-ir", variant=variant, output_format="json")
        assert json.loads(run(cfg))["t"] == self.LASSO_IR[variant]


class TestDesignBuiltOnce:
    """A CLI run centers the full sample once, plus once per training fold."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import sys

        import intreg.design

        original = intreg.design.build_design
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        bound = [module for name, module in list(sys.modules.items())
                 if (name == "intreg" or name.startswith("intreg."))
                 and getattr(module, "build_design", None) is original]
        assert intreg.design in bound
        for module in bound:
            monkeypatch.setattr(module, "build_design", counting)
        return calls

    @pytest.mark.parametrize("method, extra, expected", [
        ("ls", [], 1),
        ("lasso", [], 1 + 5),
        ("lasso", ["--folds", "3"], 1 + 3),
        ("lasso", ["--lambda-mid", "0.4"], 1 + 5),
        ("lasso", ["--lambda-mid", "0.4", "--lambda-spr", "0.03"], 1),
        ("lasso-ir", [], 1 + 5),
        ("lasso-ir", ["--folds", "3"], 1 + 3),
        ("lasso-ir", ["--t-budget", "0.1"], 1),
    ])
    def test_build_design_calls(self, sample_csv, calls, capsys, method, extra, expected):
        assert main(["--input-path", sample_csv, "--method", method, *extra]) == 0
        assert len(calls) == expected


class TestMain:
    def test_success_exit_code(self, sample_csv, capsys):
        assert main(["--input-path", sample_csv, "--method", "ls"]) == 0
        assert "mse" in capsys.readouterr().out

    def test_domain_error_is_machine_parsable(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("inf_y,sup_y,inf_x1,sup_x1\n3.0,1.0,0.0,1.0\n")
        code = main(["--input-path", str(path), "--format", "infsup"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error code=InvertedInterval")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("fmt, header", [
        ("midspr", "mid_y,spr_y,mid_x1,spr_x1"),
        ("infsup", "inf_y,sup_y,inf_x1,sup_x1"),
    ])
    def test_non_finite_cell_is_named(self, tmp_path, capsys, fmt, header, cell):
        # the first non-finite cell in file order is reported, not a later one
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,2.0,0.0,1.0\n1.0,2.0,-{cell},{cell}\n{cell},2.0,0.0,1.0\n")
        code = main(["--input-path", str(path), "--format", fmt])
        err = capsys.readouterr().err
        column = header.split(",")[2]
        assert code == 1
        assert err == f"error code=NonNumericCell detail=non-numeric value '-{cell}' at data row 2, column '{column}'\n"

    @pytest.mark.parametrize("second, third, detail", [
        ("1e308,1.7e308", "-1.7e308,1.7e308", "the midpoint of inf 1e+308 and sup 1.7e+308 overflows"),
        ("-1.7e308,1.7e308", "1e308,1.7e308", "the spread of inf -1.7e+308 and sup 1.7e+308 overflows"),
    ])
    def test_overflowing_endpoints_are_named(self, tmp_path, capsys, recwarn, second, third, detail):
        # finite endpoints whose midpoint or spread overflows: the first such
        # interval in file order is named, and numpy warns about nothing
        path = tmp_path / "huge.csv"
        path.write_text(f"inf_y,sup_y,inf_x1,sup_x1\n1.0,2.0,0.0,1.0\n1.0,2.0,{second}\n{third},0.0,1.0\n")
        code = main(["--input-path", str(path), "--format", "infsup"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error code=InvertedInterval detail=invalid interval for 'x1' at data row 2: {detail}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_solver_failure_is_one_error_line(self, monkeypatch, capsys):
        # a ray termination on a feasible program is a solver failure, and
        # reaches the CLI as one error line (this fixture's spread block has
        # violated rows, so it reaches the Lemke solver)
        import intreg.lcp as lcp

        def ray(lcp_, max_pivots=None):
            return lcp.LcpSolution(np.zeros(lcp_.dim), lcp_.q.copy(), lcp.RAY_TERMINATION, 1)

        monkeypatch.setattr(lcp, "lemke_solve", ray)
        code = main(["--input-path", str(FIXTURES / "zero_spread20.csv"), "--method", "ls"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error code=RayTermination")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_zero_spread_rows_fit_at_zero(self, variant, capsys):
        # 20 rows, one of them with spread 0: the spread block's feasible set
        # is {0}
        path = str(FIXTURES / "zero_spread20.csv")
        code = main(["--input-path", path, "--method", "ls", "--variant", variant, "--output-format", "json"])
        assert code == 0
        b = json.loads(capsys.readouterr().out)["coefficients"]
        assert b["b2"] == [0.0, 0.0, 0.0] and b["b3"] == [0.0, 0.0, 0.0]
        sample = ingest(path)
        fitted = sample.spr_x @ np.array(b["b2"]) + np.abs(sample.mid_x) @ np.array(b["b3"])
        assert np.all(fitted <= sample.spr_y)

    def test_missing_file(self, capsys):
        code = main(["--input-path", "/nonexistent/nope.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error code=InvalidArgument")

    def test_exact_fit_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "exact.csv"
        write_sample(exact_fit_sample(n=8), path, FORMAT_MIDSPR)
        code = main(["--input-path", str(path), "--output-format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"]["b1"][0] == pytest.approx(2.0, abs=1e-7)
        assert report["mse"] <= 1e-10


class TestOpenDefects:
    """Reproduced defects, pinned as strict expected failures so that their
    fix has to flip them."""

    @pytest.mark.xfail(strict=True, reason="lasso-ir returns a fit whose kkt_feasibility 5.2e-7 exceeds its bound")
    def test_lasso_ir_fit_meets_its_certificate(self, tmp_path, capsys):
        # the seed [1, 13] draws the sample bench/workloads.generate(1, 13, 30, 3)
        path = tmp_path / "sample.csv"
        write_sample(split_model_sample([1, 13], 30), path, FORMAT_MIDSPR)
        assert main(["--input-path", str(path), "--method", "lasso-ir", "--output-format", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert max(diagnostics[key] for key in diagnostics if key.startswith("kkt_")) <= 1e-8 * (1 + 30)

    @pytest.mark.xfail(strict=True, reason="cross-validated lasso raises RayTermination on zero-spread rows")
    def test_lasso_fits_zero_spread_rows(self, capsys):
        code = main(["--input-path", str(FIXTURES / "zero_spread20.csv"), "--method", "lasso"])
        assert capsys.readouterr().err == ""
        assert code == 0
