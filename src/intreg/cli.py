"""Command-line interface: ingest a CSV of intervals, fit the chosen
estimator and print a coefficient report.

Reports are deterministic: identical configuration (seed included) yields
byte-identical JSON output.  Errors exit nonzero after printing one
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import io as sample_io
from .design import VARIANT_FULL, VARIANTS, build_design
from .errors import IntregError
from .intervals import validate_tau
from .lasso import RULE_MSE, RULES, fit_lasso
from .lasso_ir import fit_lasso_ir
from .least_squares import (
    METHOD_LASSO,
    METHOD_LASSO_IR,
    METHOD_LS,
    FitResult,
    fit_ls,
    mean_squared_unweighted,
)

METHODS = (METHOD_LS, METHOD_LASSO, METHOD_LASSO_IR)
MSE_DTAU = "dtau"
MSE_UNWEIGHTED = "unweighted"
OUTPUT_FORMATS = ("table", "json", "csv")


@dataclass
class RunConfig:
    input_path: str
    format: str = sample_io.FORMAT_MIDSPR
    method: str = METHOD_LS
    variant: str = VARIANT_FULL
    tau: float = 0.5
    lambda_rule: str = RULE_MSE
    lambda_mid: Optional[float] = None
    lambda_spr: Optional[float] = None
    t_budget: Optional[float] = None
    folds: int = 5
    seed: int = 0
    mse_convention: str = MSE_DTAU
    output_format: str = "table"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intreg",
        description="Fit interval-valued linear regression models from a CSV sample.",
    )
    parser.add_argument("--input-path", required=True, help="CSV file with the interval sample")
    parser.add_argument("--format", choices=sample_io.FORMATS, default=sample_io.FORMAT_MIDSPR,
                        help="column layout of the input file")
    parser.add_argument("--method", choices=METHODS, default=METHOD_LS, help="estimator to fit")
    parser.add_argument("--variant", choices=VARIANTS, default=VARIANT_FULL,
                        help="full design or the restricted model without cross relations")
    parser.add_argument("--tau", type=float, default=0.5, help="spread weight of the metric, in (0,1)")
    parser.add_argument("--lambda-rule", choices=RULES, default=None,
                        help="penalty selection rule for cross-validated blocks")
    parser.add_argument("--lambda-mid", type=float, default=None,
                        help="explicit midpoint-block penalty (skips cross-validation)")
    parser.add_argument("--lambda-spr", type=float, default=None,
                        help="explicit spread-block penalty (skips cross-validation)")
    parser.add_argument("--t-budget", type=float, default=None,
                        help="explicit offset budget for method lasso-ir")
    parser.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    parser.add_argument("--seed", type=int, default=0, help="seed for the fold partition")
    parser.add_argument("--mse-convention", choices=(MSE_DTAU, MSE_UNWEIGHTED), default=MSE_DTAU,
                        help="weighted metric or plain mid/spread sum for the reported error")
    parser.add_argument("--output-format", choices=OUTPUT_FORMATS, default="table")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    validate_tau(args.tau)
    if args.folds < 2:
        raise ValueError("--folds must be at least 2")
    if args.method != METHOD_LASSO and (args.lambda_mid is not None or args.lambda_spr is not None
                                        or args.lambda_rule is not None):
        raise ValueError("--lambda-* options apply to --method lasso only")
    if args.method != METHOD_LASSO_IR and args.t_budget is not None:
        raise ValueError("--t-budget applies to --method lasso-ir only")
    if args.lambda_rule is not None and args.lambda_mid is not None and args.lambda_spr is not None:
        raise ValueError("--lambda-rule is redundant when both penalties are explicit")
    for name in ("lambda_mid", "lambda_spr", "t_budget"):
        value = getattr(args, name)
        if value is not None and not 0.0 <= value < np.inf:
            raise ValueError(f"--{name.replace('_', '-')} must be finite and nonnegative")
    return RunConfig(**dict(vars(args), lambda_rule=args.lambda_rule or RULE_MSE))


def _reported_mse(result: FitResult, sample, config: RunConfig) -> float:
    if config.mse_convention == MSE_DTAU:
        return result.mse
    return mean_squared_unweighted(sample.mid_y, sample.spr_y, result.fitted_mid, result.fitted_spr)


def _execute(config: RunConfig) -> tuple[FitResult, object]:
    sample = sample_io.ingest(config.input_path, config.format)
    design = build_design(sample, config.variant)
    if config.method == METHOD_LS:
        result = fit_ls(design, config.tau)
    elif config.method == METHOD_LASSO:
        result = fit_lasso(
            design,
            tau=config.tau,
            rule=config.lambda_rule,
            folds=config.folds,
            seed=config.seed,
            lambda_mid=config.lambda_mid,
            lambda_spr=config.lambda_spr,
        )
    else:
        result = fit_lasso_ir(design, config.tau, config.t_budget, config.folds, config.seed)
    return result, sample


def _report_dict(result: FitResult, sample, config: RunConfig) -> dict:
    coefs = result.coefficients
    return {
        "coefficients": {
            "b1": [float(x) for x in coefs.b1],
            "b2": [float(x) for x in coefs.b2],
            "b3": [float(x) for x in coefs.b3],
            "b4": [float(x) for x in coefs.b4],
        },
        "delta": {
            "mid": coefs.delta.mid,
            "spr": coefs.delta.spr,
            "inf": coefs.delta.inf,
            "sup": coefs.delta.sup,
        },
        "lambda_mid": result.lambda_mid if result.method == METHOD_LASSO else None,
        "lambda_spr": result.lambda_spr if result.method == METHOD_LASSO else None,
        "t": result.t_budget if result.method == METHOD_LASSO_IR else None,
        "mse": _reported_mse(result, sample, config),
        "diagnostics": {k: float(v) for k, v in sorted(result.diagnostics.items())},
        "config": asdict(config),
    }


def _render_table(report: dict, variable_names) -> str:
    lines = []
    cfg = report["config"]
    lines.append(f"method: {cfg['method']}    variant: {cfg['variant']}    tau: {cfg['tau']:g}")
    lines.append(f"{'variable':<12}{'b1':>12}{'b2':>12}{'b3':>12}{'b4':>12}")
    coefs = report["coefficients"]
    for i, name in enumerate(variable_names[1:]):
        lines.append(
            f"{name:<12}{coefs['b1'][i]:>12.4f}{coefs['b2'][i]:>12.4f}"
            f"{coefs['b3'][i]:>12.4f}{coefs['b4'][i]:>12.4f}"
        )
    delta = report["delta"]
    lines.append(f"delta: [{delta['inf']:.4f}, {delta['sup']:.4f}]")
    if report["lambda_mid"] is not None:
        lines.append(f"lambda_mid: {report['lambda_mid']:.6g}    lambda_spr: {report['lambda_spr']:.6g}")
    if report["t"] is not None:
        lines.append(f"t: {report['t']:.6g}")
    lines.append(f"mse ({cfg['mse_convention']}): {report['mse']:.6f}")
    return "\n".join(lines)


def _render_csv(report: dict, variable_names) -> str:
    rows = [("field", "value")]
    coefs = report["coefficients"]
    for block in ("b1", "b2", "b3", "b4"):
        for i, name in enumerate(variable_names[1:]):
            rows.append((f"{block}_{name}", repr(coefs[block][i])))
    rows.append(("delta_mid", repr(report["delta"]["mid"])))
    rows.append(("delta_spr", repr(report["delta"]["spr"])))
    for key in ("lambda_mid", "lambda_spr", "t"):
        if report[key] is not None:
            rows.append((key, repr(report[key])))
    rows.append(("mse", repr(report["mse"])))
    return "\n".join(",".join(row) for row in rows)


def run(config: RunConfig) -> str:
    """Fit per the configuration and return the rendered report."""
    result, sample = _execute(config)
    report = _report_dict(result, sample, config)
    if config.output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    if config.output_format == "csv":
        return _render_csv(report, sample.variable_names)
    return _render_table(report, sample.variable_names)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        # an overflow or invalid value inside the fit ends the run in one
        # error line that names it, not in numpy warnings followed by
        # whichever later check the non-finite numbers trip
        with np.errstate(over="raise", invalid="raise"):
            report = run(config)
    except IntregError as exc:
        print(f"error code={exc.code} detail={exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error code=InvalidArgument detail={exc}", file=sys.stderr)
        return 1
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
