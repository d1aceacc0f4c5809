import csv
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intreg import FORMAT_MIDSPR, IntervalSample, build_design, fit_lasso, fit_lasso_ir, fit_ls, ingest, write_sample
from intreg.cli import RunConfig, build_parser, config_from_args, main, run
from intreg.errors import RayTermination

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
    """A CLI run centers the full sample once, plus once per training fold.

    Every design is centered by one routine, ``design._center``:
    :func:`build_design` calls it for the full sample, and the
    cross-validation for each training fold's row slice of the full
    sample's blocks, so its calls are counted wherever a module binds it.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        import sys

        import intreg.design

        original = intreg.design._center
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        bound = [module for name, module in list(sys.modules.items())
                 if (name == "intreg" or name.startswith("intreg."))
                 and getattr(module, "_center", None) is original]
        assert intreg.design in bound and intreg.lasso in bound
        for module in bound:
            monkeypatch.setattr(module, "_center", counting)
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


class TestScaledSample:
    """Every value of the fixture times 1e5.  The walk's certificate bounds
    are relative to each program's own terms, so a fit is the unscaled fit,
    scaled: the coefficients as they are, the intercept times 1e5, and the
    penalties and the error, which are squared, times 1e10."""

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    @pytest.mark.parametrize("fit", [
        fit_ls, fit_lasso,
        # the budget walk's KKT systems are judged singular at this scale
        # and the Lemke fallback ray-terminates; open, so it stays in view
        pytest.param(fit_lasso_ir, marks=pytest.mark.xfail(strict=True, raises=RayTermination)),
    ], ids=["ls", "lasso", "lasso-ir"])
    def test_fit_is_the_unscaled_fit_scaled(self, fit, variant):
        sample = ingest(FIXTURE_CSV)
        scaled = IntervalSample(*(1e5 * x for x in (sample.mid_y, sample.spr_y, sample.mid_x, sample.spr_x)))
        want, got = (fit(build_design(x, variant), 0.5) for x in (sample, scaled))
        blocks = [np.concatenate([getattr(result.coefficients, b) for b in ("b1", "b2", "b3", "b4")])
                  for result in (want, got)]
        assert np.max(np.abs(blocks[1] - blocks[0])) <= 1e-9 * np.max(np.abs(blocks[0]))
        assert [got.lambda_mid, got.lambda_spr, got.mse] == pytest.approx(
            [1e10 * want.lambda_mid, 1e10 * want.lambda_spr, 1e10 * want.mse], rel=1e-9)
        delta = (want.coefficients.delta, got.coefficients.delta)
        assert [delta[1].mid, delta[1].spr] == pytest.approx([1e5 * delta[0].mid, 1e5 * delta[0].spr], rel=1e-9)


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

    def test_cell_over_the_csv_field_limit_is_one_error_line(self, tmp_path, capsys, recwarn):
        # the later bad row sends the file to the csv row loop, where the
        # long cell of data row 2 is over the csv module's field size limit
        path = tmp_path / "long.csv"
        long = "0." + "0" * csv.field_size_limit() + "1"
        path.write_text(f"mid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n{long},0.5,2,0.25\n1,x,2,0.25\n")
        code = main(["--input-path", str(path), "--method", "ls"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error code=MalformedHeader detail=data row 2 cannot be read: "
                       f"field larger than field limit ({csv.field_size_limit()})\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("method", ["ls", "lasso", "lasso-ir"])
    @pytest.mark.parametrize("magnitude", ["1e154", "-1e154", "1e160", "1e200", "1e308"])
    def test_overflow_is_a_report_or_one_error_line(self, tmp_path, capsys, magnitude, method):
        # one huge midpoint (data row 5, mid_x1) overflows the fit's products:
        # the run either fits or ends in exactly one error line, never in a
        # numpy warning or a traceback
        rows = Path(FIXTURE_CSV).read_text().splitlines()
        cells = rows[5].split(",")
        cells[2] = magnitude
        rows[5] = ",".join(cells)
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["--input-path", str(path), "--method", method, "--output-format", "json"])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            json.loads(out)
        else:
            assert code == 1
            assert out == ""
            assert err.startswith("error code=") and err.count("\n") == 1

    @pytest.mark.parametrize("magnitude", ["1e154", "-1e154"])
    def test_huge_magnitude_is_rejected_at_ingest(self, tmp_path, capsys, magnitude):
        # |mid_x1| sqrt(n) beyond sqrt(max float) / 2 would overflow the fit's
        # sums of squares (ls reported a failing certificate with exit 0,
        # lasso and lasso-ir other error codes): every method ends in the same
        # one error line, which names the row and the column
        rows = Path(FIXTURE_CSV).read_text().splitlines()
        cells = rows[5].split(",")
        cells[2] = magnitude
        rows[5] = ",".join(cells)
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        errors = set()
        for method in ("ls", "lasso", "lasso-ir"):
            assert main(["--input-path", str(path), "--method", method]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            errors.add(err)
        value = float(magnitude)
        assert errors == {f"error code=InvertedInterval detail=invalid interval for 'x1' at data row 5: "
                          f"the midpoint {value} overflows the fit's sums of squares\n"}

    def test_solver_failure_is_one_error_line(self, monkeypatch, capsys):
        # a ray termination on a feasible program is a solver failure, and
        # reaches the CLI as one error line (the joint QP of lasso-ir on this
        # fixture has violated rows, so it reaches the Lemke solver)
        import intreg.lcp as lcp

        calls = []

        def ray(lcp_, max_pivots=None):
            calls.append(lcp_.dim)
            return lcp.LcpSolution(np.zeros(lcp_.dim), lcp_.q.copy(), lcp.RAY_TERMINATION, 1)

        monkeypatch.setattr(lcp, "lemke_solve", ray)
        code = main(["--input-path", FIXTURE_CSV, "--method", "lasso-ir"])
        err = capsys.readouterr().err
        assert calls
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

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_lasso_fits_zero_spread_rows(self, variant, capsys):
        # walked downwards, one fold's spread path met a grid point whose
        # Lemke solve ray-terminated; walked upwards from the zero penalty,
        # it reaches that point by active-set steps
        path = str(FIXTURES / "zero_spread20.csv")
        code = main(["--input-path", path, "--method", "lasso", "--variant", variant, "--output-format", "json"])
        out, err = capsys.readouterr()
        assert err == "" and code == 0
        report = json.loads(out)
        assert report["coefficients"]["b2"] == [0.0, 0.0, 0.0] and report["coefficients"]["b3"] == [0.0, 0.0, 0.0]
        assert max(report["diagnostics"][key] for key in report["diagnostics"] if key.startswith("kkt_")) <= 1e-8 * 21

    def test_missing_file(self, capsys):
        code = main(["--input-path", "/nonexistent/nope.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error code=InvalidArgument")

    @pytest.mark.parametrize("method, option", [
        ("lasso", "--lambda-mid"), ("lasso", "--lambda-spr"), ("lasso-ir", "--t-budget"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_non_finite_or_negative_penalty_is_one_error_line(self, sample_csv, capsys, method, option, value):
        # a NaN budget must not pass for t = 0 (its report would carry
        # "t": NaN, which is not JSON), nor a NaN penalty reach the fit
        extra = ["--lambda-mid", "0.1"] if option == "--lambda-spr" else []
        code = main(["--input-path", sample_csv, "--method", method, *extra, option, value,
                     "--output-format", "json"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error code=InvalidArgument") and err.count("\n") == 1
        assert "finite and nonnegative" in err

    def test_exact_fit_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "exact.csv"
        write_sample(exact_fit_sample(n=8), path, FORMAT_MIDSPR)
        code = main(["--input-path", str(path), "--output-format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"]["b1"][0] == pytest.approx(2.0, abs=1e-7)
        assert report["mse"] <= 1e-10

    def test_lasso_ir_fit_meets_its_certificate(self, tmp_path, capsys):
        # the seed [1, 13] draws the sample bench/workloads.generate(1, 13, 30, 3);
        # its selected budget's polish must close over the offset rows it
        # violates, or the ridge-biased Lemke iterate is reported
        path = tmp_path / "sample.csv"
        write_sample(split_model_sample([1, 13], 30), path, FORMAT_MIDSPR)
        assert main(["--input-path", str(path), "--method", "lasso-ir", "--output-format", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert max(diagnostics[key] for key in diagnostics if key.startswith("kkt_")) <= 1e-8 * (1 + 30)


# a mutated cell: any finite float, the magnitudes around the ingest cut,
# negative spreads (on a spread column), non-finite values and text
_MUTANT_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
    st.sampled_from(["1e154", "-1e154", "1e200", "-1e200", "1e308", "-0.5", "-1e-300", "0", "-0",
                     "nan", "inf", "-inf", "1e999", "x", "", " ", "1,5"]),
)


@st.composite
def fixture_mutants(draw):
    """The fixture in either layout with cells replaced, rows blanked or
    dropped (or all but the first few), and LF or CRLF line ends, with the
    flags of a run."""
    fmt = draw(st.sampled_from(["midspr", "infsup"]))
    rows = Path(FIXTURE_CSV).read_text().splitlines()
    if fmt == "infsup":
        rows[1:] = [",".join(repr(f) for m, r in zip(row[::2], row[1::2]) for f in (m - r, m + r))
                    for row in ([float(x) for x in line.split(",")] for line in rows[1:])]
        rows[0] = rows[0].replace("mid_", "inf_").replace("spr_", "sup_")
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(1, len(rows) - 1))
        cells = rows[j].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_MUTANT_CELL)
        rows[j] = ",".join(cells)
    blanked = draw(st.sets(st.integers(1, len(rows) - 1), max_size=3))
    dropped = draw(st.sets(st.integers(1, len(rows) - 1), max_size=5))
    rows = ["" if j in blanked else row for j, row in enumerate(rows) if j not in dropped]
    rows = rows[: 1 + draw(st.one_of(st.just(len(rows)), st.integers(0, 12)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    flags = ["--format", fmt, "--method", draw(st.sampled_from(["ls", "lasso", "lasso-ir"])),
             "--variant", draw(st.sampled_from(["full", "model-m"]))]
    return end.join(rows) + end, flags


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(case=fixture_mutants())
def test_mutated_fixture_is_a_report_or_one_error_line(tmp_path_factory, case):
    # whatever the file holds, a run prints a JSON report and nothing on
    # stderr, or exits 1 after exactly one error line and prints nothing,
    # with no numpy warning on the way
    text, flags = case
    path = tmp_path_factory.getbasetemp() / "mutant.csv"
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--input-path", str(path), *flags, "--output-format", "json"])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert code == 1 and out == ""
        assert err.startswith("error code=") and err.count("\n") == 1, err
